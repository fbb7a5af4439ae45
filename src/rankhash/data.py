"""Dataset ingestion, preprocessing, groundtruth calibration, and pair sampling.

File formats:

* CSV: UTF-8 with or without a byte-order mark, comma separated, one row
  per vector, optional header line (any non-numeric field in the first
  line; a field is numeric if it is ASCII, has no `_` and float() reads
  it). Blank lines are skipped. Parse failures, a number that is not
  finite among them, name the offending line.
* Binary vectors ("RSHV1"): magic b"RSHV1", then N and d as unsigned 64-bit
  little-endian, then N*d float32 values, row-major little-endian. Parse
  failures name the byte offset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    Dataset,
    FormatError,
    PairSet,
    RankHashError,
    ValidationError,
    _all_finite,
    _as_count,
    _as_ints,
    _as_real,
    _frozen_array,
    _real_or_nan,
    _refuse_repeated_ids,
)

__all__ = [
    "PcaBasis",
    "GroundTruth",
    "load_csv",
    "load_fvec",
    "save_fvec",
    "apply_center_and_normalize",
    "row_normalize",
    "fit_pca",
    "apply_pca",
    "calibrate_groundtruth",
    "calibrate_pair_threshold",
    "groundtruth_from_labels",
    "make_pairs",
    "make_pairs_from_labels",
    "synth_clusters",
    "split_dataset",
]

_VEC_MAGIC = b"RSHV1"


def _csv_number(field: str) -> float:
    if field.isascii() and "_" not in field:
        return float(field)
    raise ValueError(f"could not convert string to float: {field!r}")


def load_csv(path) -> Dataset:
    """Load a CSV of feature rows; ids are assigned 0..N-1 in file order."""
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.strip())]
    rows = []
    for index, (lineno, line) in enumerate(lines):
        fields = [f.strip() for f in line.split(",")]
        if rows and len(fields) != len(rows[0]):
            raise FormatError(f"line {lineno}: expected {len(rows[0])} fields, got {len(fields)}")
        try:
            row = [_csv_number(f) for f in fields]
        except ValueError as exc:
            if index:  # a non-numeric first line is the header
                raise FormatError(f"line {lineno}: non-numeric field ({exc})") from exc
            continue
        if not all(finite := [math.isfinite(v) for v in row]):
            raise FormatError(f"line {lineno}: non-finite field {fields[finite.index(False)]!r}")
        rows.append(row)
    if not rows:
        raise FormatError("no data rows found")
    return Dataset._adopt(np.asarray(rows, dtype=np.float64), np.arange(len(rows)))


def load_fvec(path) -> Dataset:
    """Load an RSHV1 binary vector file; ids are assigned 0..N-1."""
    data = Path(path).read_bytes()
    if len(data) < len(_VEC_MAGIC):
        raise FormatError(f"truncated header at offset {len(data)}")
    if data[: len(_VEC_MAGIC)] != _VEC_MAGIC:
        raise FormatError(f"bad magic {data[:len(_VEC_MAGIC)]!r} at offset 0")
    pos = len(_VEC_MAGIC)
    if len(data) < pos + 16:
        raise FormatError(f"truncated count header at offset {len(data)}")
    n, d = struct.unpack_from("<QQ", data, pos)
    pos += 16
    expected = pos + n * d * 4
    if len(data) < expected:
        raise FormatError(
            f"truncated payload at offset {len(data)}: expected {expected} bytes total"
        )
    if len(data) > expected:
        raise FormatError(f"unexpected trailing bytes at offset {expected}")
    if n < 1 or d < 1:
        raise FormatError(f"invalid shape N={n}, d={d} at offset 5")
    feats = np.frombuffer(data, dtype="<f4", count=n * d, offset=pos).reshape(n, d)
    return Dataset._adopt(feats.astype(np.float64), np.arange(n))


def _check_float32(*datasets: Dataset) -> None:
    """Refuse features that float32 rounds to inf: from half a unit above its
    largest value, 2^128 - 2^104, up (that tie rounds to even, up)."""
    for data in datasets:
        # two reductions, with no |features| temporary
        if max(data.features.max(), -data.features.min()) >= 2.0**128 - 2.0**103:
            raise ValidationError("features beyond the float32 range cannot be written")


def save_fvec(data: Dataset, path) -> None:
    """Write a dataset in RSHV1 form (values rounded to float32); features
    that float32 rounds to inf are refused and nothing is written."""
    _check_float32(data)
    payload = data.features.astype("<f4")
    with open(path, "wb") as out:
        out.writelines((_VEC_MAGIC + struct.pack("<QQ", data.n, data.dim), payload))


# below this norm the sum of squares is not a normal float
_SMALLEST_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def _row_norms(X: np.ndarray, block_cells: int = 2**15) -> np.ndarray:
    """np.linalg.norm(X, axis=1) bit for bit (each row is reduced on its
    own), squaring about `block_cells` entries (256 KB) at a time."""
    norms, step = np.empty(X.shape[0]), max(1, block_cells // X.shape[1])
    for r0 in range(0, X.shape[0], step):
        np.sqrt(np.add.reduce(X[r0:r0 + step] ** 2, axis=1), out=norms[r0:r0 + step])
    return norms


def row_normalize(data: Dataset) -> Dataset:
    """Scale every row to unit Euclidean norm; zero rows stay zero, and a
    norm that overflows (entries near 1e154 and up) is refused. A row whose
    sum of squares falls below the smallest normal float (entries near
    1e-154 and below) is measured after dividing by its largest entry, so
    it too comes out at unit norm instead of kept as if it were zero."""
    return apply_center_and_normalize(data, np.zeros(data.dim))


def apply_center_and_normalize(data: Dataset, mean) -> Dataset:
    """Subtract a stored training mean, then scale rows as `row_normalize` does."""
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (data.dim,):
        raise ValidationError("mean length must match the feature dimension")
    X = data.features - mean
    with np.errstate(over="ignore"):
        norms = _row_norms(X)
    if not np.isfinite(norms).all():  # a mean can make X itself non-finite
        raise ValidationError("features must be finite" if not _all_finite(X)
                              else "row norms overflow the float range")
    tiny = np.flatnonzero(norms < _SMALLEST_NORM)
    if tiny.size:
        peak = np.abs(X[tiny]).max(axis=1, keepdims=True)
        peak[peak == 0] = 1.0
        norms[tiny] = np.linalg.norm(X[tiny] / peak, axis=1) * peak[:, 0]
    X /= np.where(norms == 0, 1.0, norms)[:, None]
    return Dataset._adopt(X, data.ids)


@dataclass(frozen=True)
class PcaBasis:
    """Orthonormal projection basis: row k is the k-th principal direction."""

    mean: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        mean = _frozen_array(self.mean, np.float64, "mean")
        comps = _frozen_array(self.components, np.float64, "components")
        if mean.ndim != 1 or comps.ndim != 2 or comps.shape[1] != mean.shape[0]:
            raise ValidationError("components must be (m, d) with a length-d mean")
        m, d = comps.shape
        if m < 1 or m > d:
            raise ValidationError("component count must satisfy 1 <= m <= d")
        gram = comps @ comps.T
        if np.max(np.abs(gram - np.eye(m))) > 1e-8:
            raise ValidationError("components must be orthonormal within 1e-8")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)

    @property
    def m(self) -> int:
        return self.components.shape[0]


def fit_pca(data: Dataset, m: int) -> PcaBasis:
    """Top-m eigenvectors of the sample covariance, eigenvalues descending.

    Each component's sign is fixed so its largest-magnitude entry is
    positive, making the basis deterministic.
    """
    m = _as_count("m", m, 1, min(data.n, data.dim))
    mean = data.features.mean(axis=0)
    centered = data.features - mean
    cov = centered.T @ centered / max(data.n - 1, 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")[:m]
    comps = evecs.T[order].copy()
    for row in comps:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0:
            row *= -1.0
    return PcaBasis(mean, comps)


def apply_pca(basis: PcaBasis, data: Dataset) -> Dataset:
    """Project rows onto the basis: (x - mean) @ components.T."""
    if data.dim != basis.mean.shape[0]:
        raise ValidationError("dataset dimension does not match the basis")
    return Dataset._adopt((data.features - basis.mean) @ basis.components.T, data.ids)


def _id_rows(ids: np.ndarray, keys: np.ndarray):
    """(found, rows) for the ids in `keys` against the unique database ids
    `ids`, row n holding ids[n]: whether a row holds each key, and that row
    (any row when none does). Ids 0..N-1 in row order are their own rows,
    with no sort; any other ids take one argsort and one search."""
    n = ids.size
    if np.array_equal(ids, np.arange(n)):
        rows = np.clip(keys, 0, n - 1)
        return rows == keys, rows
    order = np.argsort(ids)
    rows = order[np.minimum(np.searchsorted(ids[order], keys), n - 1)]
    return ids[rows] == keys, rows


@dataclass(frozen=True)
class GroundTruth:
    """Per-query neighbor id lists; threshold is None for label-derived truth.

    List q is flat[offsets[q]:offsets[q + 1]], strictly ascending, for the
    offsets.size - 1 queries; `flat` and `offsets` are read-only int64
    copies, and offsets rise from 0 to flat.size.
    """

    flat: np.ndarray
    offsets: np.ndarray
    threshold: float | None = None
    # the last `rows_in` ids and result, reused while the database ids are equal
    _rows: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        flat = _frozen_array(self.flat, np.int64, "neighbor ids")
        offsets = _frozen_array(self.offsets, np.int64, "offsets")
        if (offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or offsets[-1] != flat.size or (np.diff(offsets) < 0).any()):
            raise ValidationError("offsets must rise from 0 to the number of neighbor ids")
        if flat.ndim != 1:
            raise ValidationError("neighbor lists must be 1-D, ascending and duplicate-free")
        # every step within a list rises; a step across a list boundary may not
        rises = np.diff(flat) > 0
        ends = offsets[1:-1]
        rises[ends[(ends > 0) & (ends < flat.size)] - 1] = True
        if not rises.all():
            raise ValidationError("neighbor lists must be 1-D, ascending and duplicate-free")
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "offsets", offsets)

    def rows_in(self, ids) -> "GroundTruth":
        """The lists resolved against the unique database ids `ids` (row n
        holds ids[n]): a GroundTruth with the same threshold whose list q
        holds, ascending, the rows of the ids list q names; an id the
        database lacks gives no row. The last result is kept and returned
        again while `ids` holds the same values, so models evaluated on one
        database resolve the groundtruth once."""
        ids = _as_ints(ids, "ids")
        if self._rows is not None and np.array_equal(self._rows[0], ids):
            return self._rows[1]
        ids = _frozen_array(ids, np.int64, "ids")
        if ids.ndim != 1 or ids.size == 0:
            raise ValidationError("the database ids must be a non-empty 1-D array")
        _refuse_repeated_ids(ids)
        found, rows = _id_rows(ids, self.flat)
        rows, ends = rows[found], np.concatenate([[0], np.cumsum(found)])[self.offsets]
        if not (ids[1:] > ids[:-1]).all():  # only ascending ids keep each list's rows ascending
            # owner-major keys: one sort puts each list's rows in ascending order
            owner = np.repeat(np.arange(ends.size - 1), np.diff(ends)) * ids.size
            rows = np.sort(owner + rows) - owner
        resolved = GroundTruth(rows, ends, self.threshold)
        object.__setattr__(self, "_rows", (ids, resolved))
        return resolved

    def pairs(self, queries: np.ndarray):
        """(owner, members) of the lists of the queries `queries`, query
        after query: members[i] is listed for query queries[owner[i]]."""
        first, end = self.offsets[queries], self.offsets[queries + 1]
        counts = end - first
        owner = np.repeat(np.arange(queries.size), counts)
        at = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(owner.size)
        return owner, self.flat[at]


# Pair calibration and sampling visit the strict upper triangle of the N x N
# pair matrix in row blocks of about this many cells, so their transient
# arrays stay at a few MB whatever N is.
PAIR_BLOCK_CELLS = 1 << 20
# Each pair block's product, and each query block's product in distance
# groundtruth, is finished into squared distances in row chunks of about
# this many cells (1 MB), so that a chunk's elementwise passes run on data
# held in cache.
GT_BLOCK_CELLS = 1 << 17
# Distance groundtruth takes `queries @ db.T` in query blocks of a multiple
# of GT_ROW_ALIGN rows, the fewest that hold GT_MIN_BLOCK_CELLS cells (4 MB);
# see `_query_blocks` for why these sizes keep every product bit-identical.
GT_ROW_ALIGN = 96
GT_MIN_BLOCK_CELLS = 1 << 19


def _squared_norms(*features: np.ndarray) -> list:
    """The squared row norms of each array, once they are known not to
    overflow any squared distance between the rows of the first and those of
    the last (the same array for pairs within one set).

    With sq_a and sq_b the two arrays' squared norms, |a . b| <= (sq_a +
    sq_b) / 2, so while 2 (max sq_a + max sq_b) is finite no sum, product or
    difference in `_squared_into` overflows."""
    with np.errstate(over="ignore"):
        sq = [(f * f).sum(axis=1) for f in features]
        peak = 2.0 * (sq[0].max() + sq[-1].max())
    if not math.isfinite(peak):
        raise ValidationError("squared distances overflow the float range")
    return sq


def _squared_into(gram: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray,
                  scratch: np.ndarray) -> np.ndarray:
    """fl(fl(sq_a[i] + sq_b[j]) - 2 gram[i, j]): the one expression behind
    every distance here, as an unclipped squared distance, written
    C-contiguous at the front of `scratch` (at least gram.size floats) and
    returned as a view of gram's shape; gram is doubled in place. The
    distance is sqrt(max(sq, 0))."""
    out = scratch[:gram.size].reshape(gram.shape)
    np.add(sq_a[:, None], sq_b[None, :], out=out)
    gram *= 2.0
    return np.subtract(out, gram, out=out)


def _squared_cutoff(t: float) -> float:
    """The largest double c with sqrt(max(c, 0)) <= t, so that a distance
    sqrt(max(sq, 0)) is <= t exactly when sq <= c.

    A correctly rounded sqrt is monotone, so the squared values whose
    distance is <= t are all those up to some double, found a few
    nextafter steps from t * t. For t < 0 no value passes, so c is NaN
    (no comparison with NaN holds; -inf would still admit -inf); for
    t = inf every value but NaN passes.
    """
    if t < 0:
        return math.nan
    if t == math.inf:
        return math.inf
    c = t * t
    while math.sqrt(c) > t:
        c = math.nextafter(c, -math.inf)
    while math.sqrt(math.nextafter(c, math.inf)) <= t:
        c = math.nextafter(c, math.inf)
    return c


# Chunks are compared with the running cut in slices of about this many
# cells, so that while the cut is still loose the cells kept from one
# comparison, and their positions, stay at a few hundred KB.
WITHIN_SLICE_CELLS = 1 << 15


class _Within:
    """The cells at or below a cut that only falls, each with its position,
    for the rank-th smallest value of a run of C-contiguous chunks; NaN never
    counts. A cell's position is its place in the run: the cells of all
    earlier chunks, then its row-major place in its own chunk.

    Kept cells fill a store of 2 * rank values and positions, no more than
    the `total` cells that count, with int32 positions while the run holds
    fewer than 2^31 cells (`cells`). Each time the store is full, its
    rank-th smallest value becomes the bound, the cut falls to
    `_squared_cutoff` of the bound's square root, and the cells above it go;
    the rest keep the order they came in. A bound is the rank-th smallest of
    some of the cells, so it is never below that of them all, and no cell at
    or below the cutoff of the final order statistic is ever dropped. The
    store grows only when ties at the cut fill it.
    """

    def __init__(self, rank: int, total: int, cells: int):
        self.rank = rank
        self.values = np.empty(min(2 * rank, total))
        self.at = np.empty(self.values.size,
                           dtype=np.int32 if cells <= np.iinfo(np.int32).max else np.int64)
        self.held = 0
        self.seen = 0  # cells added so far: the position of the next one
        self.cut = math.inf

    def add(self, chunk: np.ndarray) -> None:
        """Keep the cells of `chunk` at or below the cut."""
        flat = chunk.reshape(-1)
        for k in range(0, flat.size, WITHIN_SLICE_CELLS):
            part = flat[k:k + WITHIN_SLICE_CELLS]
            at = np.flatnonzero(part <= self.cut)
            values = part[at]
            at += self.seen + k
            while self.held + values.size > self.values.size:
                take = self.values.size - self.held
                self._put(values[:take], at[:take])
                self._tighten()
                keep = values[take:] <= self.cut
                values, at = values[take:][keep], at[take:][keep]
            self._put(values, at)
        self.seen += flat.size

    def _put(self, values: np.ndarray, at: np.ndarray) -> None:
        end = self.held + values.size
        self.values[self.held:end] = values
        self.at[self.held:end] = at
        self.held = end

    def _tighten(self) -> None:
        # the full store's rank-th smallest value is the new bound
        bound = np.partition(self.values, self.rank - 1)[self.rank - 1]
        self.cut = _squared_cutoff(math.sqrt(max(bound, 0.0)))
        keep = np.flatnonzero(self.values <= self.cut)
        self.values[:keep.size] = self.values[keep]
        self.at[:keep.size] = self.at[keep]
        self.held = keep.size
        if self.held == self.values.size:
            self.values = np.concatenate([self.values, np.empty(self.held)])
            self.at = np.concatenate([self.at, np.empty(self.held, self.at.dtype)])

    def threshold_and_cells(self):
        """(threshold, at): the square root of the rank-th smallest value,
        and the ascending positions of the cells at or below
        `_squared_cutoff(threshold)`."""
        values = self.values[:self.held]
        threshold = math.sqrt(max(float(np.partition(values, self.rank - 1)[self.rank - 1]), 0.0))
        return threshold, self.at[:self.held][values <= _squared_cutoff(threshold)]


def _calibrated_rank(target_avg, per: float, total: int, what: str) -> int:
    # round(target_avg * per), capped first so that no finite target_avg overflows
    target_avg = _as_real("target_avg", target_avg, 1)
    rank = round(min(target_avg * per, total + 1))
    if rank > total:
        raise ValidationError(f"target_avg must not ask for more than the {total} {what} "
                              f"that exist, got {target_avg!r}")
    return rank


def _block_products(a: np.ndarray, b: np.ndarray, blocks):
    """a[r0:r1] @ b[c0:].T for each block (r0, r1, c0) in turn, each written
    by np.matmul into one buffer sized to the largest block, so it is the
    same BLAS call as `@` and valid until the next product is drawn."""
    n = b.shape[0]
    buffer = np.empty(max((r1 - r0) * (n - c0) for r0, r1, c0 in blocks))
    for r0, r1, c0 in blocks:
        out = buffer[:(r1 - r0) * (n - c0)].reshape(r1 - r0, n - c0)
        yield np.matmul(a[r0:r1], b[c0:].T, out=out)


def _query_blocks(n_q: int, n_db: int) -> list:
    """Query row ranges [r0, r1) that cover 0..n_q-1, in order, for the
    products queries[r0:r1] @ db.T of distance groundtruth.

    A block holds the fewest multiple of GT_ROW_ALIGN rows with at least
    GT_MIN_BLOCK_CELLS cells, capped at n_q, and a rest shorter than that
    joins the last block. So a product that fits one block is the single
    Q x N call, and every block of a larger one starts on a multiple of 96
    rows and holds at least 2^19 cells. With single-threaded OpenBLAS such
    blocks match the single call's rows bit for bit on every kernel family
    checked. Other blocks did not: unaligned starts tile the rows
    differently (26- and 7-row blocks differed on several kernels), numpy
    sends a 1-row product to gemv, and AVX-512 kernels send a few rows of a
    small database (rows x N up to 1200, d >= 32) to their small-matrix
    kernel.
    """
    rows = min(n_q, GT_ROW_ALIGN * -(-GT_MIN_BLOCK_CELLS // (GT_ROW_ALIGN * n_db)))
    starts = list(range(0, n_q - rows + 1, rows))
    return list(zip(starts, starts[1:] + [n_q]))


def _cells_within_threshold(queries: np.ndarray, db: np.ndarray, rank: int) -> _Within:
    """The `_Within` store of `calibrate_groundtruth`: the cells of queries
    @ db.T as squared distances, whole rows in order, so that cell (q, n)
    has position q * N + n.

    One pass over `_query_blocks` products that share one buffer, turned
    into squared distances by row chunks of about GT_BLOCK_CELLS cells
    (`_squared_into`). The pass has its own frame so that its product
    buffer is freed before the threshold and the lists are taken.
    """
    n = db.shape[0]
    sq_q, sq_db = _squared_norms(queries, db)
    rows = max(1, GT_BLOCK_CELLS // n)
    scratch = np.empty(rows * n)
    within = _Within(rank, queries.shape[0] * n, queries.shape[0] * n)
    blocks = _query_blocks(queries.shape[0], n)
    products = _block_products(queries, db, [(r0, r1, 0) for r0, r1 in blocks])
    for (r0, r1), gram in zip(blocks, products):
        for q0 in range(r0, r1, rows):
            q1 = min(q0 + rows, r1)
            chunk = _squared_into(gram[q0 - r0:q1 - r0], sq_q[q0:q1], sq_db, scratch)
            within.add(chunk)
    return within


def calibrate_groundtruth(db: Dataset, queries: Dataset, target_avg: float) -> GroundTruth:
    """Distance-threshold groundtruth with a calibrated neighbor budget.

    The threshold is the (target_avg * Q)-th smallest of all query-to-database
    distances, so the mean neighbor list length comes out within one of
    target_avg. Neighbor lists hold database ids at distance <= threshold,
    each in ascending id order.

    Memory is O(block + rank + lists): `_cells_within_threshold` keeps the
    cells at or below a falling cut (`_Within`) in one blocked pass, and
    squared values are compared with `_squared_cutoff(threshold)`; no other
    square root is taken. Rows whose squared distances overflow are refused.
    """
    if db.dim != queries.dim:
        raise ValidationError("database and query dimensions differ")
    rank = _calibrated_rank(target_avg, queries.n, queries.n * db.n, "query-to-database distances")
    # the store is dropped, not kept beside the lists
    threshold, at = _cells_within_threshold(
        queries.features, db.features, rank).threshold_and_cells()
    query, row = np.divmod(at, db.n)
    ids = db.ids[row]
    if (np.diff(db.ids) < 0).any():  # ascending ids: positions give (query, id) order
        ids = ids[np.lexsort((ids, query))]
    ends = np.cumsum(np.bincount(query, minlength=queries.n))
    return GroundTruth(ids, np.concatenate([[0], ends]), threshold)


def _row_blocks(n: int):
    """Row ranges [r0, r1) that cover the pairs (i, j), i < j < n, in order.

    Block [r0, r1) spans columns r0..n-1 and holds about PAIR_BLOCK_CELLS
    cells, so N <= 1024 is one block, the very N x N product. Larger N is cut
    into blocks, and the BLAS may round a block's dot product differently in
    the last bit than the single N x N call does. Once blocks hold 8 rows or
    more they start on multiples of 8, which lines them up with OpenBLAS's
    tiles: on an AVX-512 host no distance then differed at N = 2000, 5000 or
    8000 (d = 16, 32), where 209-row blocks differed in 0.1% of pairs. When N
    is not a multiple of 8, pairs in the last N mod 8 columns still can
    (about 1 in 20000 pairs at N = 4999).
    """
    r0 = 0
    while r0 < n - 1:
        rows = max(1, PAIR_BLOCK_CELLS // (n - r0))
        if rows > 8:
            rows -= rows % 8
        r1 = min(n, r0 + rows)
        yield r0, r1
        r0 = r1


def _fill_non_pairs(chunk: np.ndarray, value) -> np.ndarray:
    # set, in place, the cells (t, c), c < t, that are no pairs when cell
    # (t, c) belongs to the pair (i0 + t, i0 + 1 + c)
    h = chunk.shape[0]
    np.copyto(chunk[:, :h - 1], value, where=np.tri(h, h - 1, -1, dtype=bool))
    return chunk


def _triangle_chunks(features: np.ndarray):
    """The squared distances of the pairs (i, j), i < j, in row-major order,
    as (i0, chunk): chunk[t, c] belongs to the pair (i0 + t, i0 + 1 + c), and
    its cells with c < t, which are no pairs, hold NaN.

    Each `_row_blocks` block is one product, features[r0:r1] @
    features[r0:].T, written into one buffer for the whole pass
    (`_block_products`). Row chunks of about GT_BLOCK_CELLS cells of it
    turn into squared distances (`_squared_into`), each chunk from the
    column after its first row's diagonal on. A chunk is a C-contiguous
    view of one scratch buffer, valid until the next one is drawn. Rows
    whose squared distances overflow are refused before the first product.
    """
    n = features.shape[0]
    sq_norms, = _squared_norms(features)
    scratch = np.empty(max(GT_BLOCK_CELLS, n))
    blocks = list(_row_blocks(n))
    products = _block_products(features, features, [(r0, r1, r0) for r0, r1 in blocks])
    for (r0, r1), gram in zip(blocks, products):
        rows = max(1, GT_BLOCK_CELLS // (n - r0))
        for i0 in range(r0, min(r1, n - 1), rows):
            h = min(rows, r1 - i0)
            chunk = _squared_into(gram[i0 - r0:i0 - r0 + h, i0 + 1 - r0:],
                                  sq_norms[i0:i0 + h], sq_norms[i0 + 1:], scratch)
            yield i0, _fill_non_pairs(chunk, np.nan)


def _pairs_within(features: np.ndarray, rank: int):
    """(threshold, similar) for `calibrate_pair_threshold`: the square root
    of the rank-th smallest squared pair distance, and the ascending
    row-major ranks of the pairs at or below its `_squared_cutoff`, from one
    `_triangle_chunks` pass into a `_Within` store. The run's positions stay
    below N^2; only the kept ones are turned into pair ranks."""
    n = features.shape[0]
    within = _Within(rank, n * (n - 1) // 2, n * n)
    starts = []  # each chunk's first row and the position of its cell (0, 0)
    for i0, chunk in _triangle_chunks(features):
        starts.append((i0, within.seen))
        within.add(chunk)
    threshold, at = within.threshold_and_cells()
    ends = np.searchsorted(at, [first for _, first in starts[1:]]).tolist() + [at.size]
    return threshold, np.concatenate([
        _cell_ranks(n, i0, n - 1 - i0, at[lo:hi].astype(np.int64) - first)
        for (i0, first), lo, hi in zip(starts, [0] + ends, ends)])


def calibrate_pair_threshold(data: Dataset, target_avg: float) -> float:
    """Within-set distance threshold giving each point about target_avg
    neighbors, self-pairs excluded.

    The threshold is the rank-th smallest pair distance, rank = round(
    target_avg * N / 2): the square root of the rank-th smallest squared
    distance, which `_Within` finds in one pass over `_triangle_chunks`. The
    square root is monotone, so the two order statistics agree. The same
    pass lists the pairs within the threshold, and `data` keeps them, so
    that `make_pairs(data, threshold, ...)` samples from them without a
    second pass.
    """
    n = data.n
    if n < 2:
        raise ValidationError("need at least two points")
    rank = _calibrated_rank(target_avg, n / 2.0, n * (n - 1) // 2, "pair distances")
    threshold, similar = _pairs_within(data.features, rank)
    similar.setflags(write=False)
    object.__setattr__(data, "_similar_pairs", (threshold, similar))
    return threshold


def groundtruth_from_labels(db_ids, db_labels, query_labels) -> GroundTruth:
    """Class-label groundtruth: a query's neighbors are all database points
    sharing its label, listed in ascending id order."""
    db_ids = _as_ints(db_ids, "db_ids")
    db_labels = np.asarray(db_labels)
    query_labels = np.asarray(query_labels)
    if db_ids.shape != db_labels.shape or db_ids.ndim != 1 or query_labels.ndim != 1:
        raise ValidationError("ids and labels must be 1-D arrays of matching length")
    order = np.argsort(db_ids, kind="stable")
    db_ids, db_labels = db_ids[order], db_labels[order]
    labels, which = np.unique(query_labels, return_inverse=True)  # one scan per label
    by_label = [db_ids[db_labels == lab] for lab in labels]
    lists = [by_label[i] for i in which]
    ends = np.cumsum([lst.size for lst in lists], dtype=np.int64)
    return GroundTruth(np.concatenate([db_ids[:0], *lists]), np.concatenate([[0], ends]))


def _check_sampling(max_pairs, pos_fraction) -> None:
    _as_count("max_pairs", max_pairs, 1)
    _as_real("pos_fraction", pos_fraction, 0, 1, open=True)


def _row_starts(n: int, rows) -> np.ndarray:
    # rank of pair (i, i + 1) among the pairs (i, j), i < j < n, in row-major order
    return rows * (2 * n - rows - 1) // 2


def _cell_ranks(n: int, i0: int, width: int, cells: np.ndarray) -> np.ndarray:
    """Row-major ranks, among the pairs (i, j), i < j < n, of the pairs
    (i0 + t, i0 + 1 + c) at the row-major places t * width + c of the cells
    of a triangle chunk (`_triangle_chunks`)."""
    t, c = np.divmod(cells, width)
    return _row_starts(n, i0 + t) + c - t


def _sample_pairs(n: int, similar: np.ndarray, max_pairs, pos_fraction, rng) -> PairSet:
    """Draw similar and dissimilar pairs without replacement, given the
    row-major ranks of the similar pairs among all n(n-1)/2.

    The draws are rng.choice over the similar ranks and over the dissimilar
    ones, by their position in row-major order: the random stream is that of
    choosing from the two index lists themselves.
    """
    total = n * (n - 1) // 2
    n_similar = similar.size
    budget = min(int(max_pairs), total)
    n_pos = min(int(round(budget * pos_fraction)), n_similar)
    n_neg = min(budget - n_pos, total - n_similar)
    n_pos = min(budget - n_neg, n_similar)
    none = np.empty(0, np.int64)
    take_pos = similar[rng.choice(n_similar, size=n_pos, replace=False)] if n_pos else none
    take_neg = rng.choice(total - n_similar, size=n_neg, replace=False) if n_neg else none
    # the q-th dissimilar pair comes after every similar pair with at most q
    # dissimilar pairs before it
    take_neg = take_neg + np.searchsorted(similar - np.arange(n_similar), take_neg, side="right")
    chosen = np.concatenate([take_pos, take_neg])
    s = np.repeat(np.array([1, 0], np.int64), [n_pos, n_neg])
    order = np.argsort(chosen)
    chosen, s = chosen[order], s[order]
    i = np.searchsorted(_row_starts(n, np.arange(n - 1)), chosen, side="right") - 1
    return PairSet(i, chosen - _row_starts(n, i) + i + 1, s)


def make_pairs(db: Dataset, gt_threshold: float, max_pairs: int, pos_fraction: float,
               rng: np.random.Generator) -> PairSet:
    """Sample supervised pairs without replacement from all row pairs.

    A pair is similar (s=1) when its Euclidean distance is <= gt_threshold,
    a number (not a bool, a string or NaN; inf makes every pair similar).
    Sampling targets pos_fraction similar pairs, falling back to whatever is
    available; pairs come out in canonical sorted order.

    The similar pairs are those `calibrate_pair_threshold(db, ...)` listed
    when gt_threshold is the threshold it returned; any other threshold
    takes its own pass over `_triangle_chunks`.
    """
    if db.n < 2:
        raise ValidationError("need at least two points to form pairs")
    threshold = _real_or_nan(gt_threshold)
    if math.isnan(threshold):
        raise ValidationError(f"gt_threshold must be a number other than NaN, got {gt_threshold!r}")
    _check_sampling(max_pairs, pos_fraction)
    if db._similar_pairs is not None and db._similar_pairs[0] == threshold:
        similar = db._similar_pairs[1]
    else:
        cut = _squared_cutoff(threshold)
        similar = np.concatenate([
            _cell_ranks(db.n, i0, chunk.shape[1], np.flatnonzero(chunk <= cut))
            for i0, chunk in _triangle_chunks(db.features)])
    return _sample_pairs(db.n, similar, max_pairs, pos_fraction, rng)


def make_pairs_from_labels(labels, max_pairs: int, pos_fraction: float,
                           rng: np.random.Generator) -> PairSet:
    """Sample supervised pairs with s=1 exactly when labels agree."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 2:
        raise ValidationError("labels must be a 1-D array with at least two entries")
    _check_sampling(max_pairs, pos_fraction)
    n = labels.size
    similar = np.concatenate([
        _cell_ranks(n, r0, n - 1 - r0, np.flatnonzero(
            _fill_non_pairs(labels[r0:r1, None] == labels[None, r0 + 1:], False)))
        for r0, r1 in _row_blocks(n)])
    return _sample_pairs(n, similar, max_pairs, pos_fraction, rng)


def synth_clusters(n_clusters: int, per_cluster: int, d: int, separation: float,
                   noise_sigma: float, rng: np.random.Generator) -> tuple[Dataset, np.ndarray]:
    """Gaussian blobs around centers at pairwise distance >= separation.

    Centers are drawn so their typical pairwise distance is close to
    `separation` (candidates violating the minimum are rejected), making the
    parameter the actual scale of cluster separation rather than a loose
    bound. Rows are cluster-major (cluster 0 first). Returns the dataset and
    the integer cluster label of each row.
    """
    for name, count in (("n_clusters", n_clusters), ("per_cluster", per_cluster), ("d", d)):
        _as_count(name, count, 1)
    separation = _as_real("separation", separation, 0)
    noise_sigma = _as_real("noise_sigma", noise_sigma, 0)
    # i.i.d. N(0, s^2 I) centers have E||c1 - c2||^2 = 2 d s^2
    scale = separation / np.sqrt(2.0 * d) if separation > 0 else 1.0
    centers = []
    attempts = 0
    too_far = ValidationError(
        "separation is too large: distances between cluster centers overflow the float range"
    )
    # a scale near the float range overflows the distances between centres,
    # or the noise, before any value of the data is inf; both are refused
    with np.errstate(over="ignore"):
        while len(centers) < n_clusters:
            attempts += 1
            if attempts > 1000 * n_clusters:
                raise RankHashError("could not place cluster centers at the requested separation")
            cand = rng.standard_normal(d) * scale
            for c in centers:
                gap = float(np.linalg.norm(cand - c))
                if not math.isfinite(gap):
                    raise too_far
                if gap < separation:
                    break
            else:
                centers.append(cand)
        centers = np.stack(centers)
        if not np.isfinite(centers).all():
            raise too_far
        labels = np.repeat(np.arange(n_clusters, dtype=np.int64), per_cluster)
        features = rng.standard_normal((n_clusters * per_cluster, d))
        features *= noise_sigma
        clusters = features.reshape(n_clusters, per_cluster, d)
        clusters += centers[:, None, :]
    if not _all_finite(features):
        raise ValidationError("noise_sigma is too large: the noisy points overflow the float range")
    return Dataset._adopt(features, np.arange(features.shape[0])), labels


def split_dataset(data: Dataset, n_train: int, n_query: int,
                  rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Disjoint random split keeping original ids."""
    n_train, n_query = _as_count("n_train", n_train, 1), _as_count("n_query", n_query, 1)
    if n_train + n_query > data.n:
        raise ValidationError(
            f"split needs {n_train + n_query} rows, dataset has {data.n}"
        )
    perm = rng.permutation(data.n)
    return data.subset(perm[:n_train]), data.subset(perm[n_train : n_train + n_query])
