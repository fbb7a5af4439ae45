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
