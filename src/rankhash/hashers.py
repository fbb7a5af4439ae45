"""Stateless encoders and code packing.

Three encoder families share one code representation (length-L symbol arrays
over {0, ..., K-1}):

* learned argmax-of-projections codes (`rsh_encode`, `encode_dataset`),
* winner-take-all permutation codes (`wta_encode`), a special case of the
  learned form whose projection rows are standard basis vectors,
* sign-of-projection binary codes (`lsh_encode`), expressible in the same
  form with one hyperplane row and one zero row per bit.

Ties always resolve to the smallest index, so every encoder is total and
deterministic. Symbols pack into ceil(log2 K) bits each, big-endian within
the symbol, symbol order preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    FormatError,
    HashModel,
    Hyperparams,
    ValidationError,
)

__all__ = [
    "WtaSpec",
    "check_wta_window",
    "LshSpec",
    "make_wta_spec",
    "make_lsh_spec",
    "rsh_encode",
    "encode_dataset",
    "wta_encode",
    "wta_as_rsh",
    "lsh_encode",
    "lsh_as_rsh",
    "symbol_bits",
    "code_bit_length",
    "pack_code",
    "unpack_code",
]


def _as_projection(W) -> np.ndarray:
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValidationError("projection matrix must be 2-D")
    if W.shape[0] < 2:
        raise ValidationError("projection matrix needs K >= 2 rows")
    if not np.all(np.isfinite(W)):
        raise ValidationError("projection matrix must be finite")
    return W


def rsh_encode(x, W) -> int:
    """Hash one vector to the index of its largest projection.

    Ties resolve to the smallest index. The symbol depends only on the
    ordering of the projections, so positive rescaling of x (or W) never
    changes it.
    """
    W = _as_projection(W)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (W.shape[1],):
        raise ValidationError(
            f"dimension mismatch: vector has shape {x.shape}, projections expect ({W.shape[1]},)"
        )
    return int(np.argmax(W @ x))


def encode_dataset(data: Dataset, model: HashModel) -> np.ndarray:
    """Encode every row of a dataset, returning an (N, L) symbol matrix.

    Row order follows the dataset; column l is the symbol emitted by
    projection matrix l.
    """
    if data.dim != model.d:
        raise ValidationError(
            f"dimension mismatch: dataset has d={data.dim}, model expects d={model.d}"
        )
    X = data.features
    codes = np.empty((data.n, model.L), dtype=np.int64)
    for l in range(model.L):
        codes[:, l] = np.argmax(X @ model.projections[l].T, axis=1)
    return codes


def check_wta_window(window, d: int) -> None:
    """Reject a WTA window that is not an integer in [2, d]: each symbol
    is the argmax over `window` of the d input coordinates."""
    if not isinstance(window, (int, np.integer)) or not 2 <= window <= d:
        raise ValidationError("window must satisfy 2 <= window <= d")


@dataclass(frozen=True)
class WtaSpec:
    """Winner-take-all spec: L permutations of [0, d) and a window size."""

    permutations: np.ndarray
    window: int

    def __post_init__(self):
        perms = np.array(self.permutations, dtype=np.int64, copy=True)
        if perms.ndim != 2 or perms.shape[0] < 1:
            raise ValidationError("permutations must be a non-empty (L, d) array")
        d = perms.shape[1]
        expected = np.arange(d, dtype=np.int64)
        for row in range(perms.shape[0]):
            if not np.array_equal(np.sort(perms[row]), expected):
                raise ValidationError(f"permutation row {row} is not a bijection on [0, {d})")
        check_wta_window(self.window, d)
        perms.setflags(write=False)
        object.__setattr__(self, "permutations", perms)
        object.__setattr__(self, "window", int(self.window))

    @property
    def L(self) -> int:
        return self.permutations.shape[0]

    @property
    def d(self) -> int:
        return self.permutations.shape[1]


def make_wta_spec(L: int, K: int, d: int, rng: np.random.Generator) -> WtaSpec:
    """Draw L random permutations of [0, d) with window size K."""
    if L < 1:
        raise ValidationError("L must be >= 1")
    perms = np.stack([rng.permutation(d) for _ in range(L)])
    return WtaSpec(perms, K)


def wta_encode(x, spec: WtaSpec) -> np.ndarray:
    """Per permutation, the argmax position within its first-K window."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.d,):
        raise ValidationError(
            f"dimension mismatch: vector has shape {x.shape}, spec expects ({spec.d},)"
        )
    windows = x[spec.permutations[:, : spec.window]]
    return np.argmax(windows, axis=1).astype(np.int64)


def wta_as_rsh(spec: WtaSpec) -> HashModel:
    """Express a WTA spec as a projection model with basis-vector rows.

    Row k of matrix l is the standard basis vector selecting coordinate
    spec.permutations[l, k], so encoding agrees with `wta_encode` exactly,
    ties included.
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
        planes = np.array(self.hyperplanes, dtype=np.float64, copy=True)
        if planes.ndim != 2 or planes.shape[0] < 1 or planes.shape[1] < 1:
            raise ValidationError("hyperplanes must be a non-empty 2-D array")
        if not np.all(np.isfinite(planes)):
            raise ValidationError("hyperplanes must be finite")
        planes.setflags(write=False)
        object.__setattr__(self, "hyperplanes", planes)

    @property
    def bits(self) -> int:
        return self.hyperplanes.shape[0]

    @property
    def d(self) -> int:
        return self.hyperplanes.shape[1]


def make_lsh_spec(bits: int, d: int, rng: np.random.Generator) -> LshSpec:
    """Draw `bits` random hyperplanes with standard normal entries."""
    if bits < 1:
        raise ValidationError("bits must be >= 1")
    if d < 1:
        raise ValidationError("d must be >= 1")
    return LshSpec(rng.standard_normal((bits, d)))


def lsh_encode(x, spec: LshSpec) -> np.ndarray:
    """Binary code: bit b is 1 iff hyperplane b's projection is >= 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.d,):
        raise ValidationError(
            f"dimension mismatch: vector has shape {x.shape}, spec expects ({spec.d},)"
        )
    return (spec.hyperplanes @ x >= 0).astype(np.int64)


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
    if not isinstance(K, (int, np.integer)) or K < 2:
        raise ValidationError("K must be an integer >= 2")
    return int(K - 1).bit_length()


def code_bit_length(L: int, K: int) -> int:
    """Packed length in bits of a length-L code over K symbols."""
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValidationError("L must be an integer >= 1")
    return int(L) * symbol_bits(K)


def pack_code(code, K: int) -> bytes:
    """Pack symbols into bytes, big-endian per symbol, zero-padded at the end."""
    bits = symbol_bits(K)
    code = np.asarray(code)
    if code.ndim != 1 or code.size < 1:
        raise ValidationError("code must be a non-empty 1-D sequence")
    if not np.issubdtype(code.dtype, np.integer):
        raise ValidationError("code symbols must be integers")
    acc = 0
    for sym in code.tolist():
        if not 0 <= sym < K:
            raise ValidationError(f"symbol {sym} out of range for K={K}")
        acc = (acc << bits) | sym
    total = bits * code.size
    pad = (-total) % 8
    return (acc << pad).to_bytes((total + pad) // 8, "big")


def unpack_code(packed: bytes, L: int, K: int) -> np.ndarray:
    """Invert `pack_code`, validating length, padding, and symbol range."""
    bits = symbol_bits(K)
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValidationError("L must be an integer >= 1")
    total = bits * int(L)
    nbytes = (total + 7) // 8
    if len(packed) != nbytes:
        raise FormatError(f"expected {nbytes} packed bytes for L={L}, K={K}, got {len(packed)}")
    acc = int.from_bytes(packed, "big")
    pad = nbytes * 8 - total
    if acc & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits in packed code")
    acc >>= pad
    mask = (1 << bits) - 1
    out = np.empty(int(L), dtype=np.int64)
    for l in range(int(L)):
        sym = (acc >> (bits * (int(L) - 1 - l))) & mask
        if sym >= K:
            raise FormatError(f"symbol {sym} out of range for K={K} at position {l}")
        out[l] = sym
    return out
