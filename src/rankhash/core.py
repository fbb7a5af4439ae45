"""Core domain types, deterministic randomness, and model serialization.

A hash model is a stack of projection matrices. Each matrix W maps an input
vector x to K projection values W @ x, and the index of the largest value is
the emitted symbol, so a model with L matrices turns x into a length-L code
over the alphabet {0, ..., K-1}. Everything in this module is immutable after
construction and safe to share across threads or processes, apart from the
private memos that `Dataset` and `PairSet` keep of results computed from
them, which a recomputation would only write again.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "RankHashError",
    "ValidationError",
    "FormatError",
    "Dataset",
    "PairSet",
    "Hyperparams",
    "HashModel",
    "seeded_rng",
    "child_seed",
    "init_projection",
    "save_model",
    "load_model",
    "MAX_SEED",
]


class RankHashError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RankHashError):
    """An input violates a documented invariant."""


class FormatError(RankHashError):
    """A file or byte stream cannot be parsed."""


MAX_SEED = 2**64 - 1

# Serialized model layout (all integers little-endian):
#   magic "RSHM1" | u16 version | u32 K | u32 L | u32 d | u8 flags
#   | f64 rho, lam, eta, tol, eps_min | u32 epochs | u64 seed
#   | L*K*d f64 projections (row-major) | L f64 weights if flags & 1
_MODEL_MAGIC = b"RSHM1"
_MODEL_VERSION = 1
_FLAG_WEIGHTS = 1


def seeded_rng(seed: int) -> np.random.Generator:
    """Return the package-wide deterministic generator (PCG64) for a seed.

    The generator family is fixed so that identical seeds reproduce identical
    streams across runs and platforms.
    """
    return np.random.Generator(np.random.PCG64(_as_count("seed", seed, 0, MAX_SEED)))


def child_seed(seed: int, index: int) -> int:
    """Derive an independent child seed from (seed, index).

    Uses SHA-256 so the derivation is stable across platforms and Python
    versions. Child streams for distinct indices are independent, which lets
    per-bit training run in any order (or in parallel) with serial results.
    """
    seed = _as_count("seed", seed, 0, MAX_SEED)
    if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
        raise ValidationError("index must be an integer")
    digest = hashlib.sha256(b"rankhash:%d:%d" % (seed, index)).digest()
    return int.from_bytes(digest[:8], "little")


def _as_count(name: str, value, low: int, high: int | None = None) -> int:
    """A count or size as an int in [low, high] (no upper bound when high is
    None): an int or np.integer, never a bool or a float. The message opens
    with the bare `name`, which the CLI maps to its config key."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _real_or_nan(value) -> float:
    """An int, float or numpy number as a float (an int beyond the float range
    as an infinity of its sign), and anything else, a bool or a string, as NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_real(name: str, value, low: float, high: float = math.inf, open: bool = False) -> float:
    """A real parameter as a finite float in [low, high], or in (low, high)
    when `open` is set: an int, float or numpy number, never a bool or a
    string. The message opens with the bare `name`, as `_as_count`'s does."""
    real = _real_or_nan(value)
    if not (math.isfinite(real) and (low < real < high if open else low <= real <= high)):
        left, right = "()" if open else "[]"
        bounds = (f"{'>' if open else '>='} {low:g}" if high == math.inf
                  else f"in {left}{low:g}, {high:g}{right}")
        raise ValidationError(f"{name} must be a finite number {bounds}, got {value!r}")
    return real


def init_projection(K: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a fresh K x d projection matrix with standard normal entries;
    K >= 2, since the argmax over a single projection is constant."""
    return rng.standard_normal((_as_count("K", K, 2), _as_count("d", d, 1)))


def _as_ints(values, name: str, dtype=np.int64) -> np.ndarray:
    """`values` as an array of `dtype` (None keeps the given integer dtype),
    copied only if needed. They must already be integers, or none at all: a
    float or a bool array is refused by its dtype, not cast, so the check
    makes no pass over the values."""
    given = np.asarray(values)
    if given.dtype.kind not in "iu" and given.size:
        raise ValidationError(f"{name} must be integers")
    return given if dtype is None else given.astype(dtype, copy=False)


def _as_reals(values, name: str, dtype=np.float64) -> np.ndarray:
    """`values` as an array of `dtype` (None keeps the given dtype), copied
    only if needed: integers or floats, or none at all. A string, complex,
    object or bool array is refused by its dtype, as `_as_ints` does."""
    given = np.asarray(values)
    if given.dtype.kind not in "iuf" and given.size:
        raise ValidationError(f"{name} must be real numbers")
    return given if dtype is None else given.astype(dtype, copy=False)


def _frozen_array(values, dtype, name: str) -> np.ndarray:
    """A read-only C-contiguous copy of `values` as `dtype`, owned by the
    value type that holds it. `_as_ints` (for an integer dtype) or
    `_as_reals` decides what it accepts."""
    check = _as_ints if np.dtype(dtype).kind in "iu" else _as_reals
    out = np.array(check(values, name, None), dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _all_finite(values: np.ndarray) -> bool:
    """No NaN or inf in a non-empty float array: min() and max() carry both."""
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def _refuse_repeated_ids(ids: np.ndarray) -> None:
    """Refuse a 1-D ids array that holds an id twice; strictly ascending ids
    (0..N-1 are) are known unique without a sort."""
    if not (ids[1:] > ids[:-1]).all() and np.unique(ids).size != ids.size:
        raise ValidationError("ids must be unique")


@dataclass(frozen=True)
class Dataset:
    """Dense feature matrix plus stable integer row identities.

    `calibrate_pair_threshold` leaves its threshold and the row-major ranks
    of the pairs within it in `_similar_pairs`, which `make_pairs` reads at
    that threshold; the field takes no part in init, repr or comparison.
    """

    features: np.ndarray
    ids: np.ndarray
    _similar_pairs: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._hold(_frozen_array(self.features, np.float64, "features"),
                   _frozen_array(self.ids, np.int64, "ids"))

    @classmethod
    def _adopt(cls, features: np.ndarray, ids: np.ndarray) -> "Dataset":
        """Hold, not copy, the float64 C-contiguous `features` a library function
        has just made, and int64 `ids` made with them or another Dataset's."""
        assert features.dtype == np.float64 and features.flags.c_contiguous and features.flags.owndata
        return object.__new__(cls)._hold(features, ids)

    def _hold(self, feats: np.ndarray, ids: np.ndarray) -> "Dataset":
        if feats.ndim != 2:
            raise ValidationError("features must be a 2-D array")
        n, d = feats.shape
        if n < 1 or d < 1:
            raise ValidationError("features must have at least one row and one column")
        if not _all_finite(feats):
            raise ValidationError("features must be finite")
        if ids.shape != (n,):
            raise ValidationError("ids must be a 1-D array with one entry per row")
        _refuse_repeated_ids(ids)
        feats.setflags(write=False)
        ids.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "ids", ids)
        return self

    @classmethod
    def from_features(cls, features) -> "Dataset":
        features = np.asarray(features, dtype=np.float64)
        return cls(features, np.arange(features.shape[0], dtype=np.int64))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, rows) -> "Dataset":
        """Select rows (keeping their ids) as a new Dataset."""
        rows = _as_ints(rows, "rows")
        return Dataset._adopt(self.features[rows], self.ids[rows])


@dataclass(frozen=True)
class PairSet:
    """Supervised pairs (i, j, s): row indices with s=1 similar, s=0 dissimilar.

    Pairs are canonical (i < j) and duplicate-free. Indices refer to rows of
    the dataset the pairs were sampled from, not to Dataset ids.

    The trainers keep each bit they train at unit pair weights, with its
    per-pair errors, in `_bits`, for one features array at a time, so that
    rsh and srsh on these pairs train such a bit once; the field takes no
    part in init, repr or comparison.
    """

    i: np.ndarray
    j: np.ndarray
    s: np.ndarray
    _bits: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        i = _frozen_array(self.i, np.int64, "pair indices")
        j = _frozen_array(self.j, np.int64, "pair indices")
        s = _frozen_array(self.s, np.int64, "s")
        if not (i.ndim == j.ndim == s.ndim == 1) or not (i.shape == j.shape == s.shape):
            raise ValidationError("i, j, s must be 1-D arrays of equal length")
        if i.size:
            if i.min() < 0:
                raise ValidationError("pair indices must be non-negative")
            if not np.all(i < j):
                raise ValidationError("pairs must be canonical with i < j")
            if not np.all((s == 0) | (s == 1)):
                raise ValidationError("s must contain only 0 or 1")
            if np.unique(np.stack([i, j], axis=1), axis=0).shape[0] != i.size:
                raise ValidationError("pairs must be duplicate-free")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "s", s)

    def __len__(self) -> int:
        return self.i.size


@dataclass(frozen=True)
class Hyperparams:
    """Training hyperparameters shared by the batch and sequential trainers.

    rho weighs similar pairs that land on different symbols, lam weighs
    dissimilar pairs that collide. eta is the base learning rate (decayed per
    epoch), epochs the per-bit cap, tol the relative-objective stopping
    threshold, and eps_min the clamp applied to per-bit weighted error rates
    in the sequential trainer. Every ValidationError raised here opens with
    the offending field's name, which the CLI maps to its config key.
    """

    K: int
    L: int
    rho: float = 1.0
    lam: float = 1.0
    eta: float = 0.1
    epochs: int = 50
    tol: float = 1e-4
    seed: int = 0
    eps_min: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "K", _as_count("K", self.K, 2))
        object.__setattr__(self, "L", _as_count("L", self.L, 1))
        for name, low, high, open in (("rho", 0, math.inf, False), ("lam", 0, math.inf, False),
                                      ("eta", 0, math.inf, True), ("tol", 0, math.inf, False),
                                      ("eps_min", 0, 0.5, True)):
            object.__setattr__(self, name, _as_real(name, getattr(self, name), low, high, open))
        # the model format stores epochs as a u32 and the seed as a u64
        object.__setattr__(self, "epochs", _as_count("epochs", self.epochs, 1, 2**32 - 1))
        object.__setattr__(self, "seed", _as_count("seed", self.seed, 0, MAX_SEED))


@dataclass(frozen=True)
class HashModel:
    """L projection matrices, optional per-bit fusion weights, and the
    hyperparameters they were trained with."""

    projections: np.ndarray
    weights: np.ndarray | None
    hyper: Hyperparams

    def __post_init__(self):
        proj = _frozen_array(self.projections, np.float64, "projections")
        if proj.ndim != 3:
            raise ValidationError("projections must have shape (L, K, d)")
        L, K, d = proj.shape
        if L < 1 or K < 2 or d < 1:
            raise ValidationError("projections must satisfy L >= 1, K >= 2, d >= 1")
        if not _all_finite(proj):
            raise ValidationError("projections must be finite")
        if K != self.hyper.K or L != self.hyper.L:
            raise ValidationError("projection shape must match hyper.K and hyper.L")
        object.__setattr__(self, "projections", proj)
        if self.weights is not None:
            w = _frozen_array(self.weights, np.float64, "weights")
            if w.shape != (L,):
                raise ValidationError("weights must be a length-L vector")
            if not _all_finite(w):
                raise ValidationError("weights must be finite")
            object.__setattr__(self, "weights", w)

    @property
    def L(self) -> int:
        return self.projections.shape[0]

    @property
    def K(self) -> int:
        return self.projections.shape[1]

    @property
    def d(self) -> int:
        return self.projections.shape[2]


def save_model(model: HashModel, path=None) -> bytes:
    """Serialize a model to the package's binary format.

    Returns the bytes; also writes them to `path` when given. The format is
    self-describing (magic, version, shape header) and round-trips bit-exactly.
    """
    if not isinstance(model, HashModel):
        raise ValidationError("save_model expects a HashModel")
    h = model.hyper
    flags = _FLAG_WEIGHTS if model.weights is not None else 0
    blob = bytearray()
    blob += _MODEL_MAGIC
    blob += struct.pack("<H", _MODEL_VERSION)
    blob += struct.pack("<III", model.K, model.L, model.d)
    blob += struct.pack("<B", flags)
    blob += struct.pack("<dddddIQ", h.rho, h.lam, h.eta, h.tol, h.eps_min, h.epochs, h.seed)
    blob += model.projections.astype("<f8").tobytes(order="C")
    if model.weights is not None:
        blob += model.weights.astype("<f8").tobytes()
    data = bytes(blob)
    if path is not None:
        Path(path).write_bytes(data)
    return data


def load_model(source) -> HashModel:
    """Parse a model from bytes or from a file path.

    Raises FormatError naming the byte offset for malformed or truncated
    input; never returns a partially parsed model.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        raise ValidationError("load_model expects bytes or a path")

    pos = 0

    def take(count: int, what: str) -> bytes:
        nonlocal pos
        if pos + count > len(data):
            raise FormatError(
                f"truncated model: need {count} bytes for {what} at offset {pos}, "
                f"have {len(data) - pos}"
            )
        chunk = data[pos : pos + count]
        pos += count
        return chunk

    magic = take(len(_MODEL_MAGIC), "magic")
    if magic != _MODEL_MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0, expected {_MODEL_MAGIC!r}")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != _MODEL_VERSION:
        raise FormatError(f"unsupported model format version {version} at offset 5")
    K, L, d = struct.unpack("<III", take(12, "shape header"))
    if K < 2 or L < 1 or d < 1:
        raise FormatError(f"invalid shape header K={K}, L={L}, d={d} at offset 7")
    (flags,) = struct.unpack("<B", take(1, "flags"))
    if flags & ~_FLAG_WEIGHTS:
        raise FormatError(f"unknown flag bits {flags:#x} at offset 19")
    rho, lam, eta, tol, eps_min, epochs, seed = struct.unpack(
        "<dddddIQ", take(52, "hyperparameter block")
    )
    proj_bytes = take(L * K * d * 8, "projection payload")
    projections = np.frombuffer(proj_bytes, dtype="<f8").reshape(L, K, d)
    weights = None
    if flags & _FLAG_WEIGHTS:
        weights = np.frombuffer(take(L * 8, "weight payload"), dtype="<f8")
    if pos != len(data):
        raise FormatError(f"unexpected trailing bytes at offset {pos}")
    try:
        hyper = Hyperparams(
            K=K, L=L, rho=rho, lam=lam, eta=eta, epochs=int(epochs),
            tol=tol, seed=int(seed), eps_min=eps_min,
        )
        return HashModel(projections, weights, hyper)
    except ValidationError as exc:
        raise FormatError(f"model payload violates invariants: {exc}") from exc
