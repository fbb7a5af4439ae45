"""The package namespace: what `rankhash` re-exports from its modules."""

import ast
import types
from pathlib import Path

import rankhash
from rankhash import core, data, evaluation, hashers, learning

# the library modules; `rankhash.cli` is the command line, imported on its own
MODULES = (core, data, evaluation, hashers, learning)
ORACLES = Path(__file__).with_name("oracles.py")


def exported():
    """Public names bound in `rankhash`, submodules and the version aside."""
    return {
        name
        for name, value in vars(rankhash).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_every_module_all_name_exists_and_is_reexported():
    union = set()
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            assert getattr(rankhash, name) is getattr(module, name), name
        union.update(module.__all__)
    assert exported() == union
    assert len(rankhash.__all__) == len(union) and set(rankhash.__all__) == union
    namespace = {}
    exec("from rankhash import *", namespace)  # binds no submodule
    assert set(namespace) - {"__builtins__"} == union


def test_no_oracle_is_exported():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"pair_error", "rsh_encode", "objective_arrays", "center_and_normalize"} <= defined
    for module in (rankhash, *MODULES):
        assert not defined & set(vars(module)), module.__name__


# numpy names that exist only from numpy 2.0 on, while pyproject.toml
# accepts numpy 1.24: a use passes on numpy 2 and fails on the floor
NUMPY2_ONLY = {
    "bitwise_count", "unstack", "cumulative_sum", "cumulative_prod", "vecdot", "matvec",
    "vecmat", "astype", "concat", "permute_dims", "isdtype", "trapezoid", "_core",
    # the array-API set functions and aliases that numpy 2.0 added
    "unique_all", "unique_counts", "unique_inverse", "unique_values",
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "pow",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
}


def numpy2_uses(source: str) -> list:
    """(line, name) of each numpy-2-only name that `source` takes from
    numpy: an attribute chain from numpy under any alias (`np.concat`,
    `np.linalg.vecdot`), `from numpy import ...`, and any import of
    `numpy._core`. Methods such as `ndarray.astype` are not numpy's names."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "numpy"}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += [(node.lineno, a.name) for a in node.names if a.name.startswith("numpy._core")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module.startswith("numpy._core"):
                uses.append((node.lineno, node.module))
            elif node.module == "numpy":
                uses += [(node.lineno, a.name) for a in node.names if a.name in NUMPY2_ONLY]
        elif isinstance(node, ast.Attribute) and node.attr in NUMPY2_ONLY:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                uses.append((node.lineno, node.attr))
    return sorted(uses)


def test_numpy2_check_sees_every_form():
    source = (
        "import numpy as xp\n"
        "from numpy import concat, zeros\n"
        "import numpy._core.multiarray\n"
        "from numpy._core import umath\n"
        "xp.bitwise_count(a)\n"
        "xp.linalg.vecdot(a, b)\n"
        "a.astype(int)\n"
        "xp.asarray(a).astype(int)\n"
        "_, which = xp.unique_inverse(a)\n"
    )
    assert numpy2_uses(source) == [(2, "concat"), (3, "numpy._core.multiarray"),
                                   (4, "numpy._core"), (5, "bitwise_count"), (6, "vecdot"),
                                   (9, "unique_inverse")]


def test_src_uses_no_numpy2_only_name():
    # the local stand-in for the CI job at the numpy 1.24 floor, which runs
    # the package, the scripts, the benchmark harness and the tests
    src = Path(rankhash.__file__).parent
    root = Path(__file__).resolve().parent.parent
    paths = sorted(src.glob("*.py"))
    for folder in ("scripts", "perfbench", "tests"):
        found = sorted((root / folder).glob("*.py"))
        assert found, folder
        paths += found
    uses = {f"{path.parent.name}/{path.name}": numpy2_uses(path.read_text(encoding="utf-8"))
            for path in paths}
    assert {name: found for name, found in uses.items() if found} == {}


# the command line raises a ConfigError of its own only where it parses and
# validates the config, names the key behind a library rule's refusal, and
# picks the input loader; every other bound is a library rule
CONFIG_ERROR_HOMES = {"parse_config", "validate_config", "_config_keys", "_load_input"}


def config_error_sites(source: str) -> list:
    """(line, top-level definition) of each `ConfigError(...)` call in
    `source`, nested definitions counted with the one that holds them."""
    return sorted(
        (node.lineno, getattr(top, "name", None))
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "ConfigError"
    )


def test_config_error_check_sees_every_form():
    source = (
        "def validate_config(cfg):\n"
        "    def bad(key):\n"
        "        raise ConfigError(key)\n"
        "def _evaluate_model(cfg):\n"
        "    raise ConfigError('radius')\n"
        "class Runner:\n"
        "    def run(self):\n"
        "        return [ConfigError(k) for k in 'ab']\n"
        "ERROR = ConfigError('x')\n"
    )
    assert config_error_sites(source) == [(3, "validate_config"), (5, "_evaluate_model"),
                                          (8, "Runner"), (9, None)]


def test_cli_raises_config_error_only_in_its_config_code():
    cli = Path(rankhash.__file__).with_name("cli.py")
    sites = config_error_sites(cli.read_text(encoding="utf-8"))
    assert sites and [site for site in sites if site[1] not in CONFIG_ERROR_HOMES] == []
