import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankhash import cli
from rankhash import data as data_module
from rankhash import (
    Dataset,
    FormatError,
    ValidationError,
    apply_center_and_normalize,
    apply_pca,
    calibrate_groundtruth,
    calibrate_pair_threshold,
    child_seed,
    fit_pca,
    groundtruth_from_labels,
    load_csv,
    load_fvec,
    make_pairs,
    make_pairs_from_labels,
    row_normalize,
    save_fvec,
    seeded_rng,
    split_dataset,
    synth_clusters,
)

from oracles import center_and_normalize, groundtruth_from_lists, neighbor_list


def test_load_csv_plain(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n")
    data = load_csv(path)
    assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(data.ids, [0, 1])


def test_load_csv_skips_header_and_blank_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,2\n\n3,4\n")
    data = load_csv(path)
    assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
    # fields that float() reads but that are not numeric make a header too
    path.write_text("1_0,\uff13\n1,2\n\n3,4\n", encoding="utf-8")
    assert np.array_equal(load_csv(path).features, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_ragged_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(FormatError, match="line 2"):
        load_csv(path)


def test_load_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(FormatError, match="line 2"):
        load_csv(path)


@pytest.mark.parametrize("text, message", [
    ("1,2\nnan,3\n", "^line 2: non-finite field 'nan'$"),
    ("1,2\n3,inf\n", "^line 2: non-finite field 'inf'$"),
    ("1,2\n1e400,3\n", "^line 2: non-finite field '1e400'$"),
    ("1,2\n1_0,3\n", "^line 2: non-numeric field .*'1_0'"),
    ("1,2\n\uff13,3\n", "^line 2: non-numeric field .*'\uff13'"),
    ("nan,2\n1,3\n", "^line 1: non-finite field 'nan'$"),
], ids=["nan", "inf", "1e400", "underscore", "full-width-digit", "nan-on-line-1"])
def test_load_csv_reads_finite_ascii_numbers_only(tmp_path, text, message):
    # float() reads every one of these fields: the non-finite ones made
    # Dataset refuse the whole file, naming no line, and 1_0 and a full-width
    # 3 loaded as 10.0 and 3.0
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=message):
        load_csv(path)


@pytest.mark.parametrize("header", ["", "x,y\n"], ids=["no-header", "header"])
def test_load_csv_drops_a_byte_order_mark(tmp_path, header):
    # Excel's "CSV UTF-8" opens the file with a BOM; a plain UTF-8 read keeps
    # it in the first field, so a headerless file's first row looks like a header
    path = tmp_path / "d.csv"
    path.write_text(header + "1,2\n3,4\n5,6\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    data = load_csv(path)
    assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_fvec_round_trip(tmp_path):
    rng = seeded_rng(0)
    data = Dataset(rng.standard_normal((17, 5)), np.arange(17))
    path = tmp_path / "d.rshv"
    save_fvec(data, path)
    back = load_fvec(path)
    # storage is float32, so equality holds at float32 resolution
    assert np.array_equal(back.features, data.features.astype(np.float32).astype(np.float64))


def test_fvec_refuses_features_that_float32_rounds_to_inf(tmp_path):
    # the float32 cast wrote inf with only a RuntimeWarning. From the
    # midpoint between float32's largest value and 2^128 up, values round to
    # inf; the float64 just below it rounds down to that largest value
    midpoint = 2.0**128 - 2.0**103
    path = tmp_path / "d.rshv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (midpoint, -midpoint, 1e200):
            with pytest.raises(ValidationError, match="float32 range"):
                save_fvec(Dataset.from_features([[1.0, 0.0], [2.0, value]]), path)
            assert not path.exists()
        save_fvec(Dataset.from_features([[1.0, -np.nextafter(midpoint, 0.0)]]), path)
    assert load_fvec(path).features[0, 1] == -float(np.finfo(np.float32).max)


def test_fvec_truncation_names_offset(tmp_path):
    data = Dataset(np.ones((3, 2)), np.arange(3))
    path = tmp_path / "d.rshv"
    save_fvec(data, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="offset"):
        load_fvec(path)


def test_fvec_bad_magic(tmp_path):
    path = tmp_path / "d.rshv"
    path.write_bytes(b"WRONG" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        load_fvec(path)


def test_fvec_trailing_bytes(tmp_path):
    data = Dataset(np.ones((2, 2)), np.arange(2))
    path = tmp_path / "d.rshv"
    save_fvec(data, path)
    path.write_bytes(path.read_bytes() + b"\x99")
    with pytest.raises(FormatError, match="trailing"):
        load_fvec(path)


# ------------------------------------------------------------ preprocessing


def test_center_and_normalize_hand_example():
    data = Dataset(np.array([[1.0, 0.0], [3.0, 0.0]]), np.arange(2))
    out, mean = center_and_normalize(data)
    assert np.array_equal(mean, [2.0, 0.0])
    assert np.array_equal(out.features, [[-1.0, 0.0], [1.0, 0.0]])


def test_center_and_normalize_fixed_point():
    feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    out, mean = center_and_normalize(Dataset(feats, np.arange(4)))
    assert np.allclose(mean, 0.0)
    assert np.allclose(out.features, feats)


def test_center_zero_row_stays_zero():
    data = Dataset(np.array([[2.0, 2.0], [2.0, 2.0]]), np.arange(2))
    out, _ = center_and_normalize(data)
    assert np.array_equal(out.features, np.zeros((2, 2)))
    assert np.isfinite(out.features).all()


def test_apply_center_uses_training_mean():
    train = Dataset(np.array([[1.0, 0.0], [3.0, 0.0]]), np.arange(2))
    query = Dataset(np.array([[4.0, 0.0]]), np.array([9]))
    _, mean = center_and_normalize(train)
    out = apply_center_and_normalize(query, mean)
    assert np.array_equal(out.features, [[1.0, 0.0]])
    assert np.array_equal(out.ids, [9])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 40),
       block_cells=st.one_of(st.integers(1, 300), st.just(2**15)),
       seed=st.integers(0, 2**32 - 1))
@example(n=5000, d=7, block_cells=2**15, seed=0)  # several blocks of the default size
def test_blocked_row_norms_equal_linalg_norm_bit_for_bit(n, d, block_cells, seed):
    # block_cells < d squares one row at a time; rows near 1e-160 have
    # squares below the smallest normal float, rows near 1e150 near its top
    rng = seeded_rng(seed)
    X = rng.standard_normal((n, d)) * rng.choice([1.0, 1e-160, 1e150], size=(n, 1))
    norms = data_module._row_norms(X, block_cells)
    assert norms.tobytes() == np.linalg.norm(X, axis=1).tobytes()


@pytest.mark.parametrize("call, mib", [
    (lambda data, path: load_fvec(path), 8),
    (lambda data, path: apply_center_and_normalize(data, data.features.mean(axis=0)), 6),
    (lambda data, path: row_normalize(data), 6),
    (lambda data, path: save_fvec(data, path), 2.6),
    (lambda data, path: data.subset(np.arange(0, data.n, 2)), 3),
], ids=["load_fvec", "apply_center_and_normalize", "row_normalize", "save_fvec", "subset"])
def test_data_layer_makes_each_feature_matrix_once(tmp_path, call, mib):
    # 20000 x 32 features are 4.88 MiB as float64 and 2.44 as float32. The
    # library's own arrays go into Dataset without a copy, finiteness takes
    # no temporary, and row norms square a block of rows at a time: these
    # read 13.0, 15.7, 10.7, 4.9 and 5.3 MiB with a copy at every step
    data = Dataset.from_features(seeded_rng(29).standard_normal((20_000, 32)))
    path = tmp_path / "x.rshv"
    save_fvec(data, path)
    tracemalloc.start()
    try:
        call(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20, peak / 2**20


def test_row_normalize_unit_norms():
    rng = seeded_rng(1)
    data = Dataset(rng.standard_normal((20, 4)), np.arange(20))
    out = row_normalize(data)
    assert np.allclose(np.linalg.norm(out.features, axis=1), 1.0)


def test_row_normalize_refuses_an_overflowing_norm():
    # a norm of inf divided the row to zeros; finite norms divide as before
    rows = np.array([[3e-5, 4e-5], [1e200, -1e200], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="^row norms overflow"):
        row_normalize(Dataset.from_features(rows))
    out = row_normalize(Dataset.from_features(rows[[0, 2]]))
    assert out.features.tobytes() == np.array([[3e-5 / 5e-5, 4e-5 / 5e-5], [0.0, 0.0]]).tobytes()


def test_row_normalize_scales_rows_whose_squares_underflow():
    # the squares of 3e-170 and 4e-170 underflow to 0, so the plain norm read
    # 0 and the row was kept as it was; every other row divides as before
    rows = np.array([[3e-170, 4e-170], [3.0, 4.0], [0.0, 0.0]])
    out = row_normalize(Dataset.from_features(rows)).features
    assert np.allclose(out[0], [0.6, 0.8], rtol=1e-15, atol=0)
    assert out[1:].tobytes() == np.array([[3.0 / 5.0, 4.0 / 5.0], [0.0, 0.0]]).tobytes()


def test_pca_line_through_origin():
    ts = np.linspace(-2, 2, 9)
    feats = np.stack([ts, np.zeros_like(ts)], axis=1)
    basis = fit_pca(Dataset(feats, np.arange(9)), 1)
    # sign convention: largest-magnitude entry positive
    assert np.allclose(basis.components, [[1.0, 0.0]])


def test_pca_full_rank_preserves_distances():
    rng = seeded_rng(2)
    data = Dataset(rng.standard_normal((30, 6)), np.arange(30))
    basis = fit_pca(data, 6)
    out = apply_pca(basis, data)
    for _ in range(10):
        a, b = rng.choice(30, 2, replace=False)
        before = np.linalg.norm(data.features[a] - data.features[b])
        after = np.linalg.norm(out.features[a] - out.features[b])
        assert after == pytest.approx(before, abs=1e-8)


def test_pca_orthonormal_rows_and_variance_order():
    rng = seeded_rng(3)
    data = Dataset(rng.standard_normal((50, 8)) * np.arange(1, 9), np.arange(50))
    basis = fit_pca(data, 5)
    gram = basis.components @ basis.components.T
    assert np.allclose(gram, np.eye(5), atol=1e-8)
    out = apply_pca(basis, data)
    variances = out.features.var(axis=0)
    assert all(a >= b - 1e-9 for a, b in zip(variances, variances[1:]))


def test_pca_rejects_too_many_components():
    data = Dataset(np.ones((4, 3)) + np.eye(4, 3), np.arange(4))
    with pytest.raises(ValidationError):
        fit_pca(data, 4)


# -------------------------------------------------------------- groundtruth


def test_calibrate_groundtruth_hits_target():
    rng = seeded_rng(4)
    db = Dataset(rng.standard_normal((200, 6)), np.arange(200))
    queries = Dataset(rng.standard_normal((40, 6)), np.arange(40))
    gt = calibrate_groundtruth(db, queries, 50.0)
    assert abs(np.diff(gt.offsets).mean() - 50.0) <= 1.0


def test_calibrate_groundtruth_single_nearest():
    db = Dataset(np.array([[0.0], [1.0], [5.0]]), np.arange(3))
    queries = Dataset(np.array([[0.9]]), np.array([0]))
    gt = calibrate_groundtruth(db, queries, 1.0)
    assert np.array_equal(neighbor_list(gt, 0), [1])


def test_calibrate_groundtruth_scale_equivariant():
    rng = seeded_rng(5)
    db = Dataset(rng.standard_normal((100, 4)), np.arange(100))
    queries = Dataset(rng.standard_normal((10, 4)), np.arange(10))
    gt1 = calibrate_groundtruth(db, queries, 20.0)
    gt2 = calibrate_groundtruth(
        Dataset(db.features * 2, db.ids), Dataset(queries.features * 2, queries.ids), 20.0
    )
    assert gt2.threshold == pytest.approx(2 * gt1.threshold)
    for q in range(queries.n):
        assert np.array_equal(np.sort(neighbor_list(gt1, q)), np.sort(neighbor_list(gt2, q)))


def test_groundtruth_from_labels():
    db_ids = np.array([10, 11, 12, 13])
    gt = groundtruth_from_labels(db_ids, np.array([0, 1, 0, 1]), np.array([0, 1]))
    assert np.array_equal(np.sort(neighbor_list(gt, 0)), [10, 12])
    assert np.array_equal(np.sort(neighbor_list(gt, 1)), [11, 13])


def test_groundtruth_builders_list_ascending_ids():
    # whatever the database order, each list comes out in ascending id
    # order, so GroundTruth's one-pass check sorts no list
    rng = seeded_rng(44)
    ids = rng.permutation(400)[:60]
    db = Dataset(rng.standard_normal((60, 3)), ids)
    queries = Dataset.from_features(rng.standard_normal((20, 3)))
    by_distance = calibrate_groundtruth(db, queries, 10.0)
    by_label = groundtruth_from_labels(ids, rng.integers(0, 3, 60), rng.integers(0, 3, 20))
    for gt in (by_distance, by_label):
        lists = [neighbor_list(gt, q) for q in range(queries.n)]
        assert sum(lst.size > 1 for lst in lists) > 10
        assert all((np.diff(lst) > 0).all() for lst in lists)


_DB_LABELS = np.array([1, 0, 1, 2, 0, 1])


def _by_labels(db_ids, query_labels):
    db_ids = np.array(db_ids)
    return (lambda: groundtruth_from_labels(db_ids, _DB_LABELS, query_labels),
            [db_ids[_DB_LABELS == lab] for lab in query_labels])


def _by_distance():
    # four neighbors in all: the query at 100 lists none, the other two
    # their two nearest (distances 0.25 and 0.75)
    db = Dataset(np.arange(4.0)[:, None], np.array([30, 10, 20, 0]))
    queries = Dataset.from_features([[0.25], [100.0], [2.75]])
    lists, _ = reference_calibrate_groundtruth(db, queries, 4 / 3)
    assert [len(lst) for lst in lists] == [2, 0, 2]
    return lambda: calibrate_groundtruth(db, queries, 4 / 3), lists


@pytest.mark.parametrize(
    "case, refused",
    [
        (lambda: _by_labels([12, 3, 40, 7, 25, 9], [1, 0, 5, 2, 1]), False),  # 5 in no row
        (lambda: _by_labels([12, 3, 40, 7, 25, 9], []), False),
        (lambda: _by_labels([12, 3, 12, 7, 25, 9], [0, 1]), True),  # 12 on two rows of label 1
        (_by_distance, False),
    ],
    ids=["absent_label", "no_query", "repeated_ids", "distance"],
)
def test_groundtruth_builders_match_the_list_builder(case, refused):
    # both builders hand GroundTruth the flat ids and offsets that the
    # per-query lists give; a repeated id is refused on either path
    build, lists = case()
    if refused:
        for make in (build, lambda: groundtruth_from_lists(lists)):
            with pytest.raises(ValidationError, match="duplicate-free"):
                make()
        return
    got, want = build(), groundtruth_from_lists(lists)
    assert got.flat.dtype == got.offsets.dtype == np.int64
    assert got.flat.tolist() == want.flat.tolist()
    assert got.offsets.tolist() == want.offsets.tolist()


# -------------------------------------------------------------------- pairs


@pytest.mark.parametrize(
    "lists, ok",
    [
        ([[5, 1, 3]], True),  # unsorted, no duplicate
        ([[5, 1, 5]], False),  # unsorted, with a duplicate
        ([[2, 4], [9, 3, 9, 0]], False),  # duplicate in an unsorted later list
        ([[1, 3, 7], [7, 8]], True),  # a list ends on the id the next starts with
        ([[4, 7], [7, 2, 7]], False),
        ([[1, 1]], False),
        ([[]], True),  # an empty list
        ([[3, 5], [], [5, 6]], True),
        ([[3, 5], [], [6, 6]], False),
        ([], True),
        ([[[1, 2]]], False),  # not 1-D
    ],
)
def test_groundtruth_rejects_duplicates_in_any_list(lists, ok):
    # the builder sorts each list, so the constructor sees every repeat side
    # by side
    if ok:
        gt = groundtruth_from_lists(lists)
        assert [neighbor_list(gt, q).tolist() for q in range(len(lists))] == [
            sorted(lst) for lst in lists]
    else:
        with pytest.raises(ValidationError, match="duplicate-free"):
            groundtruth_from_lists(lists)


def test_make_pairs_two_points():
    data = Dataset(np.array([[0.0], [1.0]]), np.arange(2))
    pairs = make_pairs(data, 10.0, 100, 0.5, seeded_rng(6))
    assert len(pairs) == 1
    assert (pairs.i[0], pairs.j[0], pairs.s[0]) == (0, 1, 1)


def test_make_pairs_infinite_threshold_all_similar():
    rng = seeded_rng(7)
    data = Dataset(rng.standard_normal((20, 3)), np.arange(20))
    pairs = make_pairs(data, float("inf"), 50, 0.5, seeded_rng(8))
    assert np.all(pairs.s == 1)


def test_make_pairs_deterministic_and_canonical():
    # one side samples from the pairs the calibration listed, the other, on a
    # fresh copy of the rows, from its own pass
    rng = seeded_rng(9)
    data = Dataset(rng.standard_normal((30, 3)), np.arange(30))
    threshold = calibrate_pair_threshold(data, 5.0)
    a = make_pairs(data, threshold, 100, 0.3, seeded_rng(10))
    b = make_pairs(Dataset(data.features, data.ids), threshold, 100, 0.3, seeded_rng(10))
    assert np.array_equal(a.i, b.i) and np.array_equal(a.j, b.j) and np.array_equal(a.s, b.s)
    assert np.all(a.i < a.j)
    assert len(a) == 100


def test_make_pairs_targets_positive_fraction():
    rng = seeded_rng(11)
    data = Dataset(rng.standard_normal((60, 4)), np.arange(60))
    threshold = calibrate_pair_threshold(data, 20.0)
    pairs = make_pairs(data, threshold, 400, 0.3, seeded_rng(12))
    assert abs(pairs.s.mean() - 0.3) < 0.05


def test_make_pairs_from_labels_matches_equality():
    labels = np.array([0, 0, 1, 1, 2, 2])
    pairs = make_pairs_from_labels(labels, 15, 0.4, seeded_rng(13))
    for a, b, s in zip(pairs.i, pairs.j, pairs.s):
        assert s == int(labels[a] == labels[b])


def test_calibrate_pair_threshold_fraction():
    rng = seeded_rng(14)
    data = Dataset(rng.standard_normal((40, 4)), np.arange(40))
    threshold = calibrate_pair_threshold(data, 10.0)
    diff = data.features[:, None, :] - data.features[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    iu = np.triu_indices(40, k=1)
    frac = (dist[iu] <= threshold).mean()
    # target_avg neighbors per point ~ target_avg * N / 2 pairs
    assert frac == pytest.approx(10.0 * 40 / 2 / iu[0].size, abs=0.01)


def test_make_pairs_rejects_nan_threshold():
    data = Dataset(np.array([[0.0], [1.0], [3.0]]), np.arange(3))
    with pytest.raises(ValidationError, match="NaN"):
        make_pairs(data, float("nan"), 10, 0.5, seeded_rng(22))


@pytest.mark.parametrize("threshold, similar", [
    ("0.5", None), (True, None), (None, None),
    (np.float32(0.5), [1, 0, 0]), (-1.0, [0, 0, 0]), (math.inf, [1, 1, 1]),
], ids=["str", "bool", "none", "float32", "negative", "inf"])
def test_make_pairs_takes_a_number_threshold(threshold, similar):
    # an int, float or numpy number, as `_as_real` takes; float() would also
    # take a string or a bool and sample at its value
    data = Dataset(np.array([[0.0], [0.25], [3.0]]), np.arange(3))
    if similar is None:
        with pytest.raises(ValidationError, match="^gt_threshold "):
            make_pairs(data, threshold, 10, 0.5, seeded_rng(22))
    else:
        pairs = make_pairs(data, threshold, 10, 0.5, seeded_rng(22))
        assert list(zip(pairs.i, pairs.j, pairs.s)) == [(0, 1, similar[0]), (0, 2, similar[1]),
                                                       (1, 2, similar[2])]


def test_samplers_reject_bool_max_pairs():
    data = Dataset(np.array([[0.0], [1.0], [3.0]]), np.arange(3))
    with pytest.raises(ValidationError, match="max_pairs"):
        make_pairs(data, 1.0, True, 0.5, seeded_rng(23))
    with pytest.raises(ValidationError, match="max_pairs"):
        make_pairs_from_labels(np.array([0, 0, 1]), True, 0.5, seeded_rng(23))


def reference_calibrate_groundtruth(db, queries, target_avg):
    """The whole-matrix groundtruth that the row-block version replaces."""
    dists = _reference_distances(queries.features, db.features)
    rank = int(round(float(target_avg) * queries.n))
    threshold = float(np.partition(dists.ravel(), rank - 1)[rank - 1])
    return tuple(db.ids[dists[q] <= threshold] for q in range(queries.n)), threshold


def _assert_same_groundtruth(gt, reference):
    lists, threshold = reference
    assert _bits(gt.threshold) == _bits(threshold)
    assert gt.offsets.size - 1 == len(lists)
    # the reference lists follow database order, calibrate_groundtruth's ascending ids
    for q, want in enumerate(lists):
        assert np.array_equal(neighbor_list(gt, q), np.sort(want))


@settings(max_examples=80, deadline=None)
@given(
    n_db=st.integers(1, 60),
    n_q=st.integers(1, 25),
    d=st.integers(1, 5),
    integer=st.booleans(),
    avg_fraction=st.floats(0.0, 1.0),
    cells_per_row=st.floats(0.0, 2.0),
    slice_cells=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_calibrate_groundtruth_matches_full_matrix_reference(
        n_db, n_q, d, integer, avg_fraction, cells_per_row, slice_cells, seed):
    # Up to 60 x 25 is one product block, the reference's single queries @
    # db.T, so real features match bit for bit too; integer ones add ties at
    # the threshold. Chunks run from one query row to the whole matrix, and
    # the store compares them in slices of 1 to 64 cells, so its cut falls
    # slice by slice.
    rng = seeded_rng(seed)
    if integer:
        feats = rng.integers(-2, 3, (n_db + n_q, d)).astype(np.float64)
    else:
        feats = rng.standard_normal((n_db + n_q, d)) * 3.0
    db = Dataset(feats[:n_db], rng.permutation(5 * n_db)[:n_db])
    queries = Dataset(feats[n_db:], np.arange(n_q))
    target = 1.0 + avg_fraction * (n_db - 1)
    cells = max(1, int(cells_per_row * n_db))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module, "GT_BLOCK_CELLS", cells)
        patch.setattr(data_module, "WITHIN_SLICE_CELLS", slice_cells)
        gt = calibrate_groundtruth(db, queries, target)
    _assert_same_groundtruth(gt, reference_calibrate_groundtruth(db, queries, target))


@pytest.mark.parametrize("n_q, n_db, target, mib", [
    (1000, 6000, 50.0, 20), (4000, 6000, 10.0, 20),
    # a target that is half of N: the store holds every cell, as the Q x N
    # product did, and no second pool of them (a pool and candidates of
    # 2 * rank cells each read 36.3 MiB)
    (500, 2000, 1000.0, 30)], ids=["1000-50.0", "4000-10.0", "500-2000-1000.0"])
def test_calibrate_groundtruth_memory(n_q, n_db, target, mib):
    # one product block and the store of cells, no Q x N array: the single
    # product took 48 and 185 MiB at N = 6000
    rng = seeded_rng(41)
    db = Dataset.from_features(rng.standard_normal((n_db, 16)))
    queries = Dataset.from_features(rng.standard_normal((n_q, 16)))
    tracemalloc.start()
    try:
        gt = calibrate_groundtruth(db, queries, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(np.diff(gt.offsets).mean() - target) <= 1.0
    assert peak < mib * 2**20, peak / 2**20


@pytest.mark.parametrize("pair_avg, gt_avg", [(3.3, 4.2), (1e308, 1e308)])
def test_calibrations_refuse_a_rank_beyond_the_pool(pair_avg, gt_avg):
    # 4 points: 6 pair distances at rank round(3.3 * 4 / 2) = 7, and 16
    # query-to-database distances at rank round(4.2 * 4) = 17. 1e308 raised
    # a bare OverflowError when its product was rounded
    data = Dataset.from_features(np.eye(4))
    with pytest.raises(ValidationError, match="^target_avg must not ask for more than the 6 "):
        calibrate_pair_threshold(data, pair_avg)
    with pytest.raises(ValidationError, match="^target_avg must not ask for more than the 16 "):
        calibrate_groundtruth(data, data, gt_avg)
    # the largest ranks still pass
    assert calibrate_pair_threshold(data, 3.0) == math.sqrt(2.0)
    assert calibrate_groundtruth(data, data, 4.0).threshold == math.sqrt(2.0)


@pytest.mark.parametrize("scale", [1e200, 6e153])
def test_distance_passes_refuse_squared_distances_beyond_the_float_range(scale):
    # rows of +-1e200 overflow their squared norms, rows of +-6e153 (squared
    # norms 1.44e308) only the squared distances between them. The pair
    # threshold came out inf, and the groundtruth threshold inf with lists of
    # about 25 where 3 were asked for
    data = Dataset.from_features(seeded_rng(43).choice([-scale, scale], (50, 4)))
    queries = Dataset.from_features(data.features[:5])
    calls = [lambda: calibrate_pair_threshold(data, 3.0),
             lambda: make_pairs(data, 1.0, 100, 0.5, seeded_rng(44)),
             lambda: calibrate_groundtruth(data, queries, 3.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValidationError, match="^squared distances overflow the float range$"):
                call()
        # rows of +-1e150 are in range
        small = Dataset.from_features(data.features * (1e150 / scale))
        assert math.isfinite(calibrate_pair_threshold(small, 3.0))
        assert math.isfinite(calibrate_groundtruth(small, small, 3.0).threshold)


def test_calibrate_groundtruth_lists_every_square_with_the_threshold_root():
    # From the origin, the squared distances 2^52 + 1 and 2^52 are exact and
    # share one square root, 2^26 (the root of 2^52 + 1 rounds to even), so
    # the list holds both rows though the rank-th smallest square is 2^52.
    # Candidates cut at the running bound itself lost row 0.
    db = Dataset(np.array([[2.0**26, 1.0], [2.0**26, 0.0], [2.0**26, 3.0], [0.0, 2.0**26 + 1]]),
                 np.arange(4))
    queries = Dataset(np.zeros((1, 2)), np.array([0]))
    gt = calibrate_groundtruth(db, queries, 1.0)
    assert gt.threshold == 2.0**26
    assert neighbor_list(gt, 0).tolist() == [0, 1]
    _assert_same_groundtruth(gt, reference_calibrate_groundtruth(db, queries, 1.0))


def test_calibrate_groundtruth_threshold_is_the_sorted_order_statistic():
    # integer points give many tied distances; the threshold must be the very
    # value a full sort puts at rank - 1
    rng = seeded_rng(24)
    db = Dataset(rng.integers(-2, 3, (60, 2)).astype(float), np.arange(60))
    queries = Dataset(rng.integers(-2, 3, (15, 2)).astype(float), np.arange(15))
    for target in (1.0, 7.0, 30.0):
        gt = calibrate_groundtruth(db, queries, target)
        dists = _reference_distances(queries.features, db.features)
        rank = int(round(target * queries.n))
        assert _bits(gt.threshold) == _bits(np.sort(dists.ravel())[rank - 1])


# ------------------------------------------ full-matrix pair references
#
# The N x N implementations that the blockwise pair calibration and sampling
# replace, kept as oracles. Validation is left to the functions under test.


def _reference_distances(A, B=None):
    A = np.asarray(A, dtype=np.float64)
    B = A if B is None else B
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.sqrt(np.maximum(sq, 0.0))


def reference_pair_threshold(data, target_avg):
    iu, ju = np.triu_indices(data.n, k=1)
    dists = _reference_distances(data.features)[iu, ju]
    rank = int(round(float(target_avg) * data.n / 2.0))
    return float(np.sort(dists)[rank - 1])


def _reference_sample(iu, ju, pos_mask, max_pairs, pos_fraction, rng):
    pos_idx = np.flatnonzero(pos_mask)
    neg_idx = np.flatnonzero(~pos_mask)
    budget = min(int(max_pairs), iu.size)
    n_pos = min(int(round(budget * pos_fraction)), pos_idx.size)
    n_neg = min(budget - n_pos, neg_idx.size)
    n_pos = min(budget - n_neg, pos_idx.size)
    take_pos = rng.choice(pos_idx, size=n_pos, replace=False) if n_pos else np.empty(0, np.int64)
    take_neg = rng.choice(neg_idx, size=n_neg, replace=False) if n_neg else np.empty(0, np.int64)
    chosen = np.concatenate([take_pos, take_neg]).astype(np.int64)
    order = np.lexsort((ju[chosen], iu[chosen]))
    chosen = chosen[order]
    return iu[chosen], ju[chosen], pos_mask[chosen].astype(np.int64)


def reference_make_pairs(db, gt_threshold, max_pairs, pos_fraction, rng):
    iu, ju = np.triu_indices(db.n, k=1)
    dists = _reference_distances(db.features)[iu, ju]
    return _reference_sample(iu, ju, dists <= float(gt_threshold), max_pairs, pos_fraction, rng)


def reference_make_pairs_from_labels(labels, max_pairs, pos_fraction, rng):
    labels = np.asarray(labels)
    iu, ju = np.triu_indices(labels.size, k=1)
    return _reference_sample(iu, ju, labels[iu] == labels[ju], max_pairs, pos_fraction, rng)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _assert_same_pairs(pairs, reference):
    i, j, s = reference
    assert np.array_equal(pairs.i, i)
    assert np.array_equal(pairs.j, j)
    assert np.array_equal(pairs.s, s)


def _check_distance_pairs(features, target_avg, max_pairs, pos_fraction, seed):
    """Calibrate and sample on `features`, from the pairs the calibration
    listed and, on a fresh copy of the rows, from a pass of make_pairs' own,
    and check both against the full-matrix references."""
    data = Dataset.from_features(features)
    threshold = calibrate_pair_threshold(data, target_avg)
    assert _bits(threshold) == _bits(reference_pair_threshold(data, target_avg))
    reference = reference_make_pairs(data, threshold, max_pairs, pos_fraction, seeded_rng(seed))
    pairs = make_pairs(data, threshold, max_pairs, pos_fraction, seeded_rng(seed))
    _assert_same_pairs(pairs, reference)
    own = make_pairs(Dataset.from_features(features), threshold, max_pairs, pos_fraction,
                     seeded_rng(seed))
    _assert_same_pairs(own, reference)
    return threshold, pairs


def _check_label_pairs(labels, max_pairs, pos_fraction, seed):
    pairs = make_pairs_from_labels(labels, max_pairs, pos_fraction, seeded_rng(seed))
    _assert_same_pairs(
        pairs, reference_make_pairs_from_labels(labels, max_pairs, pos_fraction, seeded_rng(seed)))
    return pairs


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 40),
    d=st.integers(1, 4),
    cells_per_row=st.floats(0.0, 1.5),
    chunk_rows=st.floats(0.0, 1.5),
    avg_fraction=st.floats(0.0, 1.0),
    budget_fraction=st.floats(0.0, 1.2),
    pos_fraction=st.floats(0.01, 0.99),
    n_labels=st.integers(1, 6),
    slice_cells=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_functions_match_full_matrix_references(
        n, d, cells_per_row, chunk_rows, avg_fraction, budget_fraction, pos_fraction, n_labels,
        slice_cells, seed):
    # Integer coordinates make every dot product exact, so the blocks'
    # distances equal the N x N ones whatever order the BLAS sums in, and they
    # produce duplicate rows and ties at the threshold. Blocks run from one
    # row (PAIR_BLOCK_CELLS below N) to the whole matrix (1.5 N^2 cells),
    # their chunks from one row to 1.5 N rows, and the calibration's store
    # compares them in slices of 1 to 64 cells.
    rng = seeded_rng(seed)
    features = rng.integers(-3, 4, (n, d)).astype(np.float64)
    labels = rng.integers(0, n_labels, n)
    total = n * (n - 1) // 2
    target_avg = 1.0 + avg_fraction * (n - 2)
    max_pairs = max(1, int(budget_fraction * total))
    cells = max(1, int(cells_per_row * n * n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module, "PAIR_BLOCK_CELLS", cells)
        patch.setattr(data_module, "GT_BLOCK_CELLS", max(1, int(chunk_rows * n * n)))
        patch.setattr(data_module, "WITHIN_SLICE_CELLS", slice_cells)
        _check_distance_pairs(features, target_avg, max_pairs, pos_fraction, seed)
        _check_label_pairs(labels, max_pairs, pos_fraction, seed)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 80),
    d=st.integers(1, 8),
    avg_fraction=st.floats(0.0, 1.0),
    pos_fraction=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_functions_match_references_on_real_features(n, d, avg_fraction, pos_fraction, seed):
    # Up to 1024 rows are one block, so the distances come from the same BLAS
    # call as the N x N matrix's and match it bit for bit.
    features = seeded_rng(seed).standard_normal((n, d)) * 3.0
    _check_distance_pairs(features, 1.0 + avg_fraction * (n - 2), 4 * n, pos_fraction, seed)


@pytest.fixture(
    params=[(1, 1 << 17), (50, 1 << 17), (50, 7), (1 << 20, 1), (1 << 20, 37),
            (1 << 20, 1 << 17)],
    ids=["rows1", "cells50", "cells50-chunks7", "chunks1", "chunks37", "default"])
def block_cells(request, monkeypatch):
    """(PAIR_BLOCK_CELLS, GT_BLOCK_CELLS): one-row blocks; blocks of 50
    cells, whose row counts grow down the triangle and do not divide N, each
    one chunk or cut into chunks of about 7 cells; one block cut into one-row
    chunks, or into chunks of about 37 cells, whose row counts (3 at N = 10,
    2 at N = 15) do not divide it; the defaults."""
    monkeypatch.setattr(data_module, "PAIR_BLOCK_CELLS", request.param[0])
    monkeypatch.setattr(data_module, "GT_BLOCK_CELLS", request.param[1])
    return request.param


def test_pairs_with_duplicate_rows(block_cells):
    features = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]), [4, 3, 2], axis=0)
    # rank 9 of the 10 zero distances between copies
    threshold, pairs = _check_distance_pairs(features, 2.0, 30, 0.5, 25)
    assert threshold == 0.0
    copies = np.all(features[pairs.i] == features[pairs.j], axis=1)
    assert np.array_equal(pairs.s, copies.astype(np.int64))


def test_pairs_with_ties_at_the_threshold(block_cells):
    # points 0..9 on a line: the pair distances are the integers 1..9, each
    # shared by 10 - k pairs, so the calibrated threshold sits on a tie
    features = np.arange(10.0)[:, None]
    threshold, pairs = _check_distance_pairs(features, 3.0, 45, 0.5, 26)
    assert threshold == 2.0
    dist = np.abs(pairs.i - pairs.j)
    assert np.array_equal(pairs.s, (dist <= 2).astype(np.int64))
    assert int(pairs.s.sum()) == 9 + 8


def test_pairs_of_identical_points(block_cells):
    features = np.full((12, 3), 2.5)
    threshold, pairs = _check_distance_pairs(features, 4.0, 20, 0.3, 27)
    assert threshold == 0.0
    # no dissimilar pair exists, so the whole budget goes to similar pairs
    assert len(pairs) == 20 and np.all(pairs.s == 1)


def test_pairs_of_two_points(block_cells):
    threshold, pairs = _check_distance_pairs(np.array([[0.0, 1.0], [3.0, 5.0]]), 1.0, 5, 0.5, 28)
    assert threshold == 5.0
    assert (pairs.i.tolist(), pairs.j.tolist(), pairs.s.tolist()) == ([0], [1], [1])


def test_pairs_budget_above_all_pairs(block_cells):
    features = seeded_rng(29).integers(-2, 3, (15, 2)).astype(float)
    _, pairs = _check_distance_pairs(features, 4.0, 10_000, 0.3, 30)
    iu, ju = np.triu_indices(15, k=1)
    assert np.array_equal(pairs.i, iu) and np.array_equal(pairs.j, ju)


def test_pairs_unattainable_positive_fraction(block_cells):
    features = np.arange(20.0)[:, None]
    threshold, pairs = _check_distance_pairs(features, 1.0, 100, 0.9, 31)
    assert threshold == 1.0
    # only the 19 neighbours on the line are similar; dissimilar pairs fill the rest
    assert len(pairs) == 100 and int(pairs.s.sum()) == 19


def test_label_pairs_single_class_and_distinct_labels(block_cells):
    pairs = _check_label_pairs(np.zeros(13, dtype=np.int64), 40, 0.3, 32)
    assert len(pairs) == 40 and np.all(pairs.s == 1)
    pairs = _check_label_pairs(np.arange(13), 40, 0.3, 33)
    assert len(pairs) == 40 and np.all(pairs.s == 0)


@pytest.fixture(params=[1, 100, 1 << 17], ids=["chunks1", "chunks100", "default"])
def chunk_cells(request, monkeypatch):
    """GT_BLOCK_CELLS alone: the products keep their shapes, so real-valued
    distances still match the full-matrix references bit for bit."""
    monkeypatch.setattr(data_module, "GT_BLOCK_CELLS", request.param)
    return request.param


def test_make_pairs_cutoff_around_a_pair_distance(chunk_cells):
    # Real-valued rows plus exact copies of some, whose squared distances
    # come out slightly negative, zero or slightly positive (1, 7 and 2 of
    # the 10 on an AVX-512 host). Every pair is drawn, so s marks exactly
    # the pairs within the threshold.
    rng = seeded_rng(38)
    base = rng.standard_normal((30, 5)) * 3.0
    features = np.concatenate([base, base[:6], base[:2]])
    data = Dataset.from_features(features)
    n = data.n
    dists = np.sort(_reference_distances(features)[np.triu_indices(n, k=1)])
    d = float(dists[300])
    below, above = np.nextafter(d, -np.inf), np.nextafter(d, np.inf)
    counts = {}
    for t in (d, below, above, 0.0, -0.0, -1.0, 1e200, np.inf, float(dists[-1])):
        pairs = make_pairs(data, t, n * n, 0.5, seeded_rng(39))
        _assert_same_pairs(pairs, reference_make_pairs(data, t, n * n, 0.5, seeded_rng(39)))
        counts[t] = int(pairs.s.sum())
    assert counts[below] < counts[d] == counts[above]
    assert 0 < counts[0.0] == counts[-0.0] <= 10 and counts[-1.0] == 0
    assert counts[1e200] == counts[np.inf] == counts[float(dists[-1])] == len(dists)


@settings(max_examples=300, deadline=None)
@given(t=st.floats(min_value=0.0, allow_infinity=False, allow_nan=False))
def test_squared_cutoff_is_the_largest_square_within_the_threshold(t):
    c = data_module._squared_cutoff(t)
    assert np.sqrt(c) <= t < np.sqrt(math.nextafter(c, math.inf))


@pytest.mark.parametrize("target", [1.0, 17.5, 60.0])
def test_calibrate_groundtruth_matches_reference_on_real_features(chunk_cells, target):
    # a real-valued 289 x 6000 product, whose distances round differently
    # from any integer grid, in three product blocks (96, 96 and 97 query
    # rows) cut into many chunks
    rng = seeded_rng(40)
    db = Dataset.from_features(rng.standard_normal((6000, 12)) * 2.0)
    queries = Dataset.from_features(rng.standard_normal((289, 12)) * 2.0)
    assert len(data_module._query_blocks(queries.n, db.n)) == 3
    gt = calibrate_groundtruth(db, queries, target)
    _assert_same_groundtruth(gt, reference_calibrate_groundtruth(db, queries, target))


@pytest.mark.parametrize(
    "n_q, n_db, d, blocks",
    [
        (577, 1000, 16, 1),  # 576 rows and a 1-row rest, which numpy would
                             # send to gemv, in one block
        (578, 1000, 3, 1),  # a 2-row rest joins the block as well
        (1154, 1000, 2, 2),  # 576 rows, then 578
        (576, 1000, 1, 1),  # exactly one block
        (192, 6000, 5, 2),  # two whole blocks of 96 rows
        (290, 6000, 33, 3),  # 96, 96, then 98
        (5000, 100, 65, 1),  # a small database: one block holds all of Q
        (21890, 48, 33, 2),  # 10944 rows, then 10946: a 2-row block of a small
                             # database fell into OpenBLAS's small-matrix kernel
    ],
)
def test_query_blocks_match_the_single_product(n_q, n_db, d, blocks):
    # The blocked product equals the single Q x N one bit for bit: blocks
    # start on multiples of GT_ROW_ALIGN rows, and each holds at least
    # GT_MIN_BLOCK_CELLS cells unless it is the whole product.
    rng = seeded_rng(42)
    a = rng.standard_normal((n_q, d)) * 2.0
    b = rng.standard_normal((n_db, d)) * 2.0
    ranges = data_module._query_blocks(n_q, n_db)
    assert len(ranges) == blocks
    assert [r0 for r0, _ in ranges] == list(range(0, n_q, ranges[0][1]))[:blocks]
    assert ranges[-1][1] == n_q and all(r0 % data_module.GT_ROW_ALIGN == 0 for r0, _ in ranges)
    assert blocks == 1 or min(r1 - r0 for r0, r1 in ranges) * n_db >= data_module.GT_MIN_BLOCK_CELLS
    products = data_module._block_products(a, b, [(r0, r1, 0) for r0, r1 in ranges])
    single = a @ b.T
    for (r0, r1), product in zip(ranges, products):
        assert product.tobytes() == single[r0:r1].tobytes(), (r0, r1)


@pytest.mark.parametrize("max_pairs", [100, 30_000])
def test_pair_draws_match_references_on_large_populations(max_pairs):
    # over 10000 similar and dissimilar pairs: numpy's choice switches from a
    # partial shuffle to Floyd's algorithm for small samples of large
    # populations, and both must give the reference's draws
    labels = np.arange(300) % 2
    _check_label_pairs(labels, max_pairs, 0.3, 34)
    features = np.arange(300.0)[:, None]
    _check_distance_pairs(features, 150.0, max_pairs, 0.3, 35)


def test_pair_calibration_and_sampling_memory():
    # the N x N distance matrix alone would take 512 MB at N = 8000; the
    # blocks share one 8 MB product buffer
    data = Dataset.from_features(seeded_rng(36).standard_normal((8000, 16)))
    tracemalloc.start()
    try:
        threshold = calibrate_pair_threshold(data, 50.0)
        pairs = make_pairs(data, threshold, 20_000, 0.3, seeded_rng(37))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 20_000
    assert peak < 24 * 2**20, peak / 2**20


def counted_triangle_passes(monkeypatch):
    """Record the row count of each `_triangle_chunks` pass."""
    passes = []
    chunks = data_module._triangle_chunks

    def counting(features):
        passes.append(features.shape[0])
        return chunks(features)

    monkeypatch.setattr(data_module, "_triangle_chunks", counting)
    return passes


def test_build_pairs_takes_one_triangle_pass(monkeypatch):
    # the CLI calibrates and then samples at the calibrated threshold: one
    # pass over the pair triangle serves both, and gives the pairs that
    # sampling on a fresh copy of the rows draws from a pass of its own
    train = Dataset.from_features(seeded_rng(43).standard_normal((300, 6)))
    cfg = cli.ExperimentConfig(neighbor_avg=12.0, max_pairs=900, pos_fraction=0.3, seed=5)
    passes = counted_triangle_passes(monkeypatch)
    pairs = cli._build_pairs(cfg, train, None)
    assert passes == [300]
    threshold = calibrate_pair_threshold(Dataset.from_features(train.features), 12.0)
    rng = seeded_rng(child_seed(cfg.seed, cli._SEED_PAIRS))
    alone = make_pairs(Dataset.from_features(train.features), threshold, 900, 0.3, rng)
    assert passes == [300, 300, 300]
    _assert_same_pairs(pairs, (alone.i, alone.j, alone.s))
    # any other threshold takes a pass of its own on the calibrated rows
    for t in (math.nextafter(threshold, -math.inf), math.nextafter(threshold, math.inf),
              math.inf):
        got = make_pairs(train, t, 900, 0.3, seeded_rng(44))
        _assert_same_pairs(got, reference_make_pairs(train, t, 900, 0.3, seeded_rng(44)))
    assert passes == [300] * 6


@settings(max_examples=150, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 9)), min_size=1, max_size=6),
    rank_fraction=st.floats(0.0, 1.0),
    levels=st.integers(1, 6),
    nan_fraction=st.floats(0.0, 0.5),
    slice_cells=st.integers(1, 20),
    wide=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_within_store_keeps_every_cell_within_the_order_statistic(
        shapes, rank_fraction, levels, nan_fraction, slice_cells, wide, seed):
    # Chunks of few distinct values, negative ones and NaN among them, so
    # that ties at the cut fill the store and make it grow; int32 positions,
    # or int64 ones for a run said to hold 2^31 cells.
    rng = seeded_rng(seed)
    chunks = [rng.integers(-1, levels, shape).astype(np.float64) for shape in shapes]
    for chunk in chunks:
        chunk[rng.random(chunk.shape) < nan_fraction] = np.nan
    run = np.concatenate([chunk.ravel() for chunk in chunks])
    total = int(np.count_nonzero(~np.isnan(run)))
    assume(total > 0)
    rank = 1 + int(rank_fraction * (total - 1))
    within = data_module._Within(rank, total, 2**31 if wide else run.size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module, "WITHIN_SLICE_CELLS", slice_cells)
        for chunk in chunks:
            within.add(chunk)
    threshold, at = within.threshold_and_cells()
    want = math.sqrt(max(np.sort(run[~np.isnan(run)])[rank - 1], 0.0))
    assert _bits(threshold) == _bits(want)
    assert at.dtype == (np.int64 if wide else np.int32)
    assert np.array_equal(at, np.flatnonzero(run <= data_module._squared_cutoff(threshold)))


# ---------------------------------------------------------------- synthetic


def test_synth_clusters_zero_noise_points_on_centers():
    data, labels = synth_clusters(3, 5, 4, 6.0, 0.0, seeded_rng(15))
    assert data.n == 15 and labels.shape == (15,)
    for c in range(3):
        block = data.features[labels == c]
        assert np.allclose(block, block[0])


def test_synth_clusters_separation_dominates_noise():
    data, labels = synth_clusters(4, 30, 8, 20.0, 0.5, seeded_rng(16))
    centers = np.stack([data.features[labels == c].mean(0) for c in range(4)])
    d2 = ((data.features[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    assert np.array_equal(d2.argmin(axis=1), labels)


def test_synth_clusters_centers_respect_separation():
    data, labels = synth_clusters(5, 200, 6, 4.0, 0.0, seeded_rng(17))
    centers = np.stack([data.features[labels == c][0] for c in range(5)])
    for a in range(5):
        for b in range(a + 1, 5):
            assert np.linalg.norm(centers[a] - centers[b]) >= 4.0


@pytest.mark.parametrize("separation, noise_sigma, name", [(1e308, 1.0, "separation"),
                                                           (1.0, 1e308, "noise_sigma")])
def test_synth_clusters_refuses_a_scale_that_overflows(separation, noise_sigma, name):
    # the centres' distances or the noisy points overflowed to inf, with a
    # RuntimeWarning, and the data failed later as not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{name} is too large"):
            synth_clusters(3, 10, 3, separation, noise_sigma, seeded_rng(18))


def test_synth_clusters_reproducible():
    a, la = synth_clusters(2, 10, 3, 5.0, 1.0, seeded_rng(18))
    b, lb = synth_clusters(2, 10, 3, 5.0, 1.0, seeded_rng(18))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(la, lb)


def test_split_dataset_disjoint_and_total():
    rng = seeded_rng(19)
    data = Dataset(rng.standard_normal((50, 3)), np.arange(100, 150))
    train, query = split_dataset(data, 30, 20, seeded_rng(20))
    assert train.n == 30 and query.n == 20
    assert set(train.ids.tolist()).isdisjoint(query.ids.tolist())
    assert set(train.ids.tolist()) | set(query.ids.tolist()) == set(range(100, 150))


def test_split_dataset_rejects_oversubscription():
    data = Dataset(np.ones((10, 2)) * np.arange(10)[:, None], np.arange(10))
    with pytest.raises(ValidationError):
        split_dataset(data, 8, 5, seeded_rng(21))
