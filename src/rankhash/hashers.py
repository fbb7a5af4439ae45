"""Encoding by argmax of projections, and the two baselines in that form.

Three code families share one representation (length-L symbol arrays over
{0, ..., K-1}, one unsigned byte per symbol up to K = 256) and one encoder,
`encode_dataset`, which takes one product of each block of rows with all L
matrices stacked and writes the (L, N) column store that every reader in
`evaluation` scans:

* learned argmax-of-projections codes (a `HashModel` from training),
* winner-take-all permutation codes (`make_wta_spec`, `wta_as_rsh`): the
  learned form with standard basis vectors as projection rows,
* sign-of-projection binary codes (`make_lsh_spec`, `lsh_as_rsh`): one
  hyperplane row and one zero row per bit.

Ties always resolve to the smallest index, so encoding is total and
deterministic. A code spends `symbol_bits(K)` = ceil(log2 K) bits per
symbol; that is the packed-bit budget the methods are compared at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    HashModel,
    Hyperparams,
    ValidationError,
    _as_count,
    _frozen_array,
)

__all__ = [
    "WtaSpec",
    "LshSpec",
    "make_wta_spec",
    "make_lsh_spec",
    "encode_dataset",
    "wta_as_rsh",
    "lsh_as_rsh",
    "symbol_bits",
]


# encode_dataset's product per block of rows, in floats (1 MB) whatever N is
ENCODE_BLOCK_CELLS = 1 << 17


def encode_dataset(data: Dataset, model: HashModel) -> np.ndarray:
    """Encode every row of a dataset, returning an (N, L) symbol matrix.

    Row order follows the dataset; column l is the symbol emitted by
    projection matrix l. The symbols are in the smallest unsigned dtype
    that holds K - 1 (uint8 up to K = 256), and the matrix is the transpose
    of a C-contiguous (L, N) column store: `codes.T` is the layout that
    `build_table`, `knn_hamming` and `knn_weighted` scan, with no copy.

    Each block of rows takes one product with the (L * K, d) stack of all
    projection rows and one argmax over its (rows, L, K) view. The BLAS may
    round that product in the last bit unlike `X @ projections[l].T`, so a
    symbol can differ from that one's only where two projections tie to
    within that rounding.
    """
    if data.dim != model.d:
        raise ValidationError(
            f"dimension mismatch: dataset has d={data.dim}, model expects d={model.d}"
        )
    X, L, K = data.features, model.L, model.K
    columns = np.empty((L, data.n), dtype=np.min_scalar_type(K - 1))
    rows = max(1, ENCODE_BLOCK_CELLS // (L * K))
    stacked = model.projections.reshape(L * K, -1).T
    for r0 in range(0, data.n, rows):
        # the product is freed before the next block's is taken
        columns[:, r0:r0 + rows] = (X[r0:r0 + rows] @ stacked).reshape(-1, L, K).argmax(axis=2).T
    return columns.T


def check_wta_window(window, d: int) -> int:
    """A WTA window as an int in [2, d]: each symbol is the argmax over
    `window` of the d input coordinates."""
    return _as_count("window", window, 2, d)


@dataclass(frozen=True)
class WtaSpec:
    """Winner-take-all spec: L permutations of [0, d) and a window size."""

    permutations: np.ndarray
    window: int

    def __post_init__(self):
        perms = _frozen_array(self.permutations, np.int64, "permutations")
        if perms.ndim != 2 or perms.shape[0] < 1:
            raise ValidationError("permutations must be a non-empty (L, d) array")
        d = perms.shape[1]
        expected = np.arange(d, dtype=np.int64)
        for row in range(perms.shape[0]):
            if not np.array_equal(np.sort(perms[row]), expected):
                raise ValidationError(f"permutation row {row} is not a bijection on [0, {d})")
        object.__setattr__(self, "window", check_wta_window(self.window, d))
        object.__setattr__(self, "permutations", perms)

    @property
    def L(self) -> int:
        return self.permutations.shape[0]

    @property
    def d(self) -> int:
        return self.permutations.shape[1]


def make_wta_spec(L: int, K: int, d: int, rng: np.random.Generator) -> WtaSpec:
    """Draw L random permutations of [0, d) with window size K."""
    L, d = _as_count("L", L, 1), _as_count("d", d, 1)
    perms = np.stack([rng.permutation(d) for _ in range(L)])
    return WtaSpec(perms, K)


def wta_as_rsh(spec: WtaSpec) -> HashModel:
    """Express a WTA spec as a projection model with basis-vector rows.

    Row k of matrix l is the standard basis vector selecting coordinate
    spec.permutations[l, k]: symbol l of a vector is the position of the
    largest of its coordinates in permutation l's first-K window, ties
    included.
    """
    L, K, d = spec.L, spec.window, spec.d
    proj = np.zeros((L, K, d), dtype=np.float64)
    for l in range(L):
        proj[l, np.arange(K), spec.permutations[l, :K]] = 1.0
    return HashModel(proj, None, Hyperparams(K=K, L=L))


@dataclass(frozen=True)
class LshSpec:
    """Random hyperplane spec for sign-of-projection binary codes."""

    hyperplanes: np.ndarray

    def __post_init__(self):
        planes = _frozen_array(self.hyperplanes, np.float64, "hyperplanes")
        if planes.ndim != 2 or planes.shape[0] < 1 or planes.shape[1] < 1:
            raise ValidationError("hyperplanes must be a non-empty 2-D array")
        if not np.all(np.isfinite(planes)):
            raise ValidationError("hyperplanes must be finite")
        object.__setattr__(self, "hyperplanes", planes)

    @property
    def bits(self) -> int:
        return self.hyperplanes.shape[0]

    @property
    def d(self) -> int:
        return self.hyperplanes.shape[1]


def make_lsh_spec(bits: int, d: int, rng: np.random.Generator) -> LshSpec:
    """Draw `bits` random hyperplanes with standard normal entries."""
    return LshSpec(rng.standard_normal((_as_count("bits", bits, 1), _as_count("d", d, 1))))


def lsh_as_rsh(spec: LshSpec) -> HashModel:
    """Express hyperplane signs in projection form (symbol 0 means bit 1).

    Matrix b holds the hyperplane in row 0 and zeros in row 1: the argmax is
    0 exactly when the projection is >= 0 (ties resolve to the smaller
    index), so symbol = 1 - bit and symbol agreement matches bit agreement.
    """
    B, d = spec.bits, spec.d
    proj = np.zeros((B, 2, d), dtype=np.float64)
    proj[:, 0, :] = spec.hyperplanes
    return HashModel(proj, None, Hyperparams(K=2, L=B))


def symbol_bits(K: int) -> int:
    """Bits needed per symbol: ceil(log2 K)."""
    return (_as_count("K", K, 2) - 1).bit_length()
