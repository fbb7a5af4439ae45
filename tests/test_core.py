import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankhash import cli
from rankhash import (
    Dataset,
    FormatError,
    HashModel,
    Hyperparams,
    PairSet,
    ValidationError,
    child_seed,
    init_projection,
    load_model,
    save_model,
    GroundTruth,
    LshSpec,
    PcaBasis,
    WtaSpec,
    aggregate_runs,
    apply_center_and_normalize,
    apply_pca,
    boost_step,
    build_table,
    calibrate_groundtruth,
    calibrate_pair_threshold,
    fit_pca,
    groundtruth_from_labels,
    knn_hamming,
    knn_weighted,
    load_csv,
    load_fvec,
    make_lsh_spec,
    make_pairs,
    make_pairs_from_labels,
    make_wta_spec,
    relevant_hits,
    row_normalize,
    save_fvec,
    seeded_rng,
    split_dataset,
    synth_clusters,
)
from rankhash.hashers import encode_dataset


def test_seeded_rng_deterministic():
    a = seeded_rng(42).standard_normal(100)
    b = seeded_rng(42).standard_normal(100)
    assert np.array_equal(a, b)


def test_seeded_rng_streams_differ():
    assert seeded_rng(1).standard_normal() != seeded_rng(2).standard_normal()


def test_seeded_rng_zero_seed_valid():
    assert np.isfinite(seeded_rng(0).standard_normal(10)).all()


def test_child_seed_frozen_values():
    # independently derived once and frozen; any change to the derivation
    # breaks every stored model seed, so these must never move
    assert child_seed(0, 0) == 15409206829365866636
    assert child_seed(0, 1) == 15396828967627090915
    assert child_seed(42, 7) == 1072753228310520548
    assert child_seed(2**64 - 1, 3) == 1038188437728269972


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=10_000),
)
def test_child_seed_in_range(seed, index):
    assert 0 <= child_seed(seed, index) < 2**64


def test_child_seed_distinct_indices():
    seeds = {child_seed(7, i) for i in range(200)}
    assert len(seeds) == 200


@pytest.mark.parametrize("index", [True, False, 1.0, "1"])
def test_child_seed_refuses_non_integer_index(index):
    # a bool was read as an int: child_seed(0, True) == child_seed(0, 1)
    with pytest.raises(ValidationError, match="index must be an integer"):
        child_seed(0, index)


def test_init_projection_shape_and_determinism():
    W = init_projection(4, 40, seeded_rng(7))
    assert W.shape == (4, 40)
    assert np.isfinite(W).all()
    assert np.array_equal(W, init_projection(4, 40, seeded_rng(7)))


def test_init_projection_standard_normal_moments():
    W = init_projection(2, 1000, seeded_rng(3))
    assert abs(W.mean()) < 0.1
    assert abs(W.var() - 1.0) < 0.15


def test_init_projection_rejects_single_row():
    with pytest.raises(ValidationError):
        init_projection(1, 8, seeded_rng(0))


# ---------------------------------------------------------------- datasets


def test_dataset_basics():
    data = Dataset.from_features([[1.0, 2.0], [3.0, 4.0]])
    assert data.n == 2 and data.dim == 2
    assert np.array_equal(data.ids, [0, 1])


def test_dataset_rejects_nan():
    with pytest.raises(ValidationError):
        Dataset.from_features([[1.0, float("nan")]])


@pytest.mark.parametrize("build", [Dataset, lambda f, i: Dataset._adopt(f, i)],
                         ids=["constructor", "hand-over"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_dataset_rejects_nan_and_inf_among_finite_values(build, bad):
    # min() and max() carry NaN, and one of them each infinity; a lone +inf
    # leaves min() finite and a lone -inf max()
    feats = np.arange(12.0).reshape(4, 3).copy()
    feats[2, 1] = bad
    with pytest.raises(ValidationError, match="^features must be finite$"):
        build(feats, np.arange(4))


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 3)), np.array([5, 5]))


def test_dataset_immutable():
    data = Dataset.from_features([[1.0, 2.0]])
    with pytest.raises(ValueError):
        data.features[0, 0] = 9.0


def test_dataset_subset_keeps_ids():
    data = Dataset(np.arange(12.0).reshape(4, 3), np.array([10, 11, 12, 13]))
    sub = data.subset([2, 0])
    assert np.array_equal(sub.ids, [12, 10])
    assert np.array_equal(sub.features[0], data.features[2])
    # ids that are unique but not ascending take the sorting check
    assert np.array_equal(sub.subset([1, 0]).ids, [10, 12])
    assert np.array_equal(Dataset(np.zeros((3, 2)), [5, -2, 9]).ids, [5, -2, 9])
    for rows in ([1, 3, 1], [0, 0, 2]):  # a repeat after the sort, and in ascending ids
        with pytest.raises(ValidationError, match="^ids must be unique$"):
            data.subset(rows)


def test_handed_over_arrays_are_read_only(tmp_path, monkeypatch):
    # each library function that hands the arrays it has just made to a
    # Dataset, without a copy, still returns read-only ones
    base = Dataset(np.arange(1.0, 13.0).reshape(4, 3) ** 1.5, np.array([7, 3, 9, 1]))
    csv = tmp_path / "d.csv"
    csv.write_text("1,2\n3,4\n")
    save_fvec(base, tmp_path / "d.rshv")
    # without PCA and row_normalize, _transform returns the datasets it
    # centered before projecting (with no PCA it centers and scales at once)
    monkeypatch.setattr(cli, "apply_pca", lambda basis, data: data)
    monkeypatch.setattr(cli, "row_normalize", lambda data: data)
    sites = {
        "load_csv": [load_csv(csv)],
        "load_fvec": [load_fvec(tmp_path / "d.rshv")],
        "subset": [base.subset([2, 0])],
        "split_dataset": split_dataset(base, 2, 1, seeded_rng(0)),
        "synth_clusters": synth_clusters(2, 3, 2, 1.0, 0.1, seeded_rng(0))[:1],
        "apply_pca": [apply_pca(fit_pca(base, 2), base)],
        "row_normalize": [row_normalize(base)],
        "apply_center_and_normalize": [apply_center_and_normalize(base, np.ones(3))],
        "cli._transform": cli._transform(cli.ExperimentConfig(center=True, pca=2), base,
                                         base.subset([0, 2]))[:2],
    }
    for site, datasets in sites.items():
        for data in datasets:
            for a in (data.features, data.ids):
                assert not a.flags.writeable and a.flags.c_contiguous, site
                with pytest.raises(ValueError):
                    a[0] = 0


def test_pairset_canonical_only():
    PairSet(np.array([0]), np.array([1]), np.array([1]))
    with pytest.raises(ValidationError):
        PairSet(np.array([1]), np.array([1]), np.array([1]))  # self-pair
    with pytest.raises(ValidationError):
        PairSet(np.array([2]), np.array([1]), np.array([0]))  # i > j


def test_pairset_rejects_bad_labels_and_duplicates():
    with pytest.raises(ValidationError):
        PairSet(np.array([0]), np.array([1]), np.array([2]))
    with pytest.raises(ValidationError):
        PairSet(np.array([0, 0]), np.array([1, 1]), np.array([1, 1]))


def test_pairset_len():
    pairs = PairSet(np.array([0, 0]), np.array([1, 2]), np.array([1, 0]))
    assert len(pairs) == 2


@pytest.mark.parametrize(
    "field,value",
    [
        ("K", 1),
        ("L", 0),
        ("rho", -0.5),
        ("lam", -1.0),
        ("eta", 0.0),
        ("epochs", 0),
        ("epochs", 2**32),  # the model format stores a u32
        ("tol", -1e-9),
        ("seed", -1),
        ("seed", 2**64),
        ("eps_min", 0.0),
        ("eps_min", 0.5),
    ],
)
def test_hyperparams_rejects_out_of_range(field, value):
    kwargs = {"K": 4, "L": 8}
    kwargs[field] = value
    with pytest.raises(ValidationError, match=f"^{field} "):
        Hyperparams(**kwargs)


def test_hashmodel_checks_weights_length():
    hyper = Hyperparams(K=2, L=3)
    proj = np.zeros((3, 2, 5))
    with pytest.raises(ValidationError):
        HashModel(proj, np.ones(2), hyper)
    model = HashModel(proj, np.ones(3), hyper)
    assert model.L == 3 and model.K == 2 and model.d == 5


def test_hashmodel_rejects_nonfinite_weights():
    hyper = Hyperparams(K=2, L=2)
    with pytest.raises(ValidationError):
        HashModel(np.zeros((2, 2, 4)), np.array([1.0, float("inf")]), hyper)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", ["projections", "weights"])
def test_hashmodel_rejects_nan_and_inf_in_either_array(name, bad):
    # one value among finite ones: min() and max() carry NaN, and one of
    # them each infinity
    arrays = {"projections": np.arange(12.0).reshape(2, 2, 3), "weights": np.array([0.5, 2.0])}
    arrays[name].flat[1] = bad
    with pytest.raises(ValidationError, match=f"^{name} must be finite$"):
        HashModel(arrays["projections"], arrays["weights"], Hyperparams(K=2, L=2))


# ------------------------------------------------------------ model format


def make_model(with_weights: bool, seed: int = 0) -> HashModel:
    hyper = Hyperparams(K=3, L=4, rho=0.5, lam=2.0, eta=0.05, epochs=7,
                        tol=1e-5, seed=seed, eps_min=1e-3)
    rng = seeded_rng(seed)
    proj = rng.standard_normal((4, 3, 6))
    weights = rng.standard_normal(4) if with_weights else None
    return HashModel(proj, weights, hyper)


@pytest.mark.parametrize("with_weights", [False, True])
def test_model_round_trip_bit_exact(with_weights):
    model = make_model(with_weights)
    blob = save_model(model)
    back = load_model(blob)
    assert np.array_equal(back.projections, model.projections)
    assert back.hyper == model.hyper
    if with_weights:
        assert np.array_equal(back.weights, model.weights)
    else:
        assert back.weights is None
    # a second serialization is byte-identical
    assert save_model(back) == blob


def test_model_round_trip_through_file(tmp_path):
    model = make_model(True, seed=9)
    path = tmp_path / "m.rshm"
    blob = save_model(model, path)
    assert path.read_bytes() == blob
    back = load_model(path)
    data = Dataset(seeded_rng(1).standard_normal((100, 6)), np.arange(100))
    assert np.array_equal(encode_dataset(data, back), encode_dataset(data, model))


def test_load_model_truncated_names_offset():
    blob = save_model(make_model(False))
    with pytest.raises(FormatError, match="offset"):
        load_model(blob[: len(blob) // 2])


def test_load_model_bad_magic():
    blob = bytearray(save_model(make_model(False)))
    blob[0:5] = b"XXXXX"
    with pytest.raises(FormatError, match="magic"):
        load_model(bytes(blob))


def test_load_model_bad_version():
    blob = bytearray(save_model(make_model(False)))
    blob[5:7] = (999).to_bytes(2, "little")
    with pytest.raises(FormatError, match="version"):
        load_model(bytes(blob))


def test_load_model_rejects_trailing_bytes():
    blob = save_model(make_model(False)) + b"\x00"
    with pytest.raises(FormatError, match="trailing"):
        load_model(blob)


@settings(max_examples=25, deadline=None)
@given(
    K=st.integers(min_value=2, max_value=5),
    L=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=1, max_value=8),
    with_weights=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_model_round_trip_property(K, L, d, with_weights, seed):
    rng = seeded_rng(seed)
    hyper = Hyperparams(K=K, L=L, seed=seed)
    weights = rng.standard_normal(L) if with_weights else None
    model = HashModel(rng.standard_normal((L, K, d)), weights, hyper)
    back = load_model(save_model(model))
    assert np.array_equal(back.projections, model.projections)
    assert (back.weights is None) == (weights is None)
    if weights is not None:
        assert np.array_equal(back.weights, weights)


# ------------------------------------------------ owned arrays and counts


@pytest.mark.parametrize(
    "make",
    [
        lambda: PairSet([0], [1], [0.5]),  # cast, the similar pair read as s = 0
        lambda: PairSet([0.0], [1.0], [1]),
        lambda: PairSet([0], [1], [True]),
        lambda: Dataset(np.zeros((2, 3)), [0.2, 1.7]),  # cast, stored as ids [0, 1]
        lambda: GroundTruth([0.5], [0, 1]),
        lambda: GroundTruth([0], [0.0, 1.0]),
        lambda: build_table(np.zeros((2, 3), dtype=int), [0.0, 1.5], 2),
        # the calls below cast their ids: rows [0 2], lists of ids [0, 1],
        # kNN ids [0 1], and a hit read as id 0 and marked relevant
        lambda: Dataset.from_features(np.eye(3)).subset([0.7, 2.9]),
        lambda: Dataset.from_features(np.eye(3)).subset([True, False, True]),
        lambda: groundtruth_from_labels([0.5, 1.5, 2.5], [0, 0, 1], [0]),
        lambda: knn_hamming(np.zeros((3, 2), dtype=np.uint8), [0.5, 1.7, 2.2], [0, 0], 2),
        lambda: relevant_hits([[0.9]], [0, 1], GroundTruth([0], [0, 1]), [0]),
        lambda: relevant_hits([[0]], [0.0, 1.0], GroundTruth([0], [0, 1]), [0]),
        lambda: relevant_hits([[0]], [0, 1], GroundTruth([0], [0, 1]), [0.0]),
    ],
    ids=["s", "i_j", "bool_s", "dataset_ids", "gt_flat", "gt_offsets", "table_ids", "subset",
         "subset_bool", "label_groundtruth_ids", "knn_ids", "hits", "hits_ids", "hits_queries"],
)
def test_integer_arrays_refuse_non_integers(make):
    with pytest.raises(ValidationError, match="must be integers"):
        make()


NOT_REAL = {
    "str": np.array([["1.0", "2.0"], ["3.0", "4.0"]]),
    "complex": np.array([[1 + 2j, 2.0], [3.0, 4.0]]),
    "object": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=object),
    "bool": np.array([[True, False], [False, True]]),
}


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
@pytest.mark.parametrize(
    "make",
    [
        lambda bad: Dataset(bad, [0, 1]),
        lambda bad: HashModel(np.zeros((2, 2, 3)), bad[0], Hyperparams(K=2, L=2)),
        lambda bad: HashModel(np.stack([bad, bad]), None, Hyperparams(K=2, L=2)),
        lambda bad: knn_weighted(np.zeros((3, 2), dtype=np.uint8), [0, 1, 2], [0, 1], bad[0], 2),
    ],
    ids=["features", "weights", "projections", "theta"],
)
def test_real_arrays_refuse_strings_complex_objects_and_bools(make, kind):
    # refused by dtype: not the real part of a complex, not numpy's own
    # ValueError or TypeError on a string, not a bool read as 0 or 1
    with pytest.raises(ValidationError, match="must be real numbers"):
        make(NOT_REAL[kind])


def test_real_arrays_take_integers_and_floats_of_any_width():
    data = Dataset(np.array([[1, 2], [3, 4]], dtype=np.int8), [0, 1])
    assert data.features.dtype == np.float64 and data.features.tolist() == [[1, 2], [3, 4]]
    weights = np.array([0.5, 2.0], dtype=np.float16)
    model = HashModel(np.zeros((2, 2, 3)), weights, Hyperparams(K=2, L=2))
    assert model.weights.dtype == np.float64 and model.weights.tolist() == [0.5, 2.0]
    codes = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8)
    for theta in ([1, 3], np.array([1.0, 3.0], dtype=np.float32)):
        assert knn_weighted(codes, [0, 1, 2], [1, 1], theta, 2).tolist() == [1, 0]


def test_empty_id_lists_stay_allowed():
    # an empty list has a float dtype, and holds no non-integer
    assert relevant_hits([[1, 0]], [0, 1], GroundTruth([], [0, 0]), [0]).tolist() == [
        [False, False]]
    gt = groundtruth_from_labels([], [], [3])
    assert gt.flat.dtype == np.int64 and gt.flat.size == 0 and gt.offsets.tolist() == [0, 0]
    # a list may end above where the next starts, or on the same id, with an
    # empty list between
    assert GroundTruth([5, 1, 4, 4], [0, 1, 1, 3, 4]).flat.tolist() == [5, 1, 4, 4]


@pytest.mark.parametrize(
    "flat,offsets,message",
    [
        ([1, 2], [1, 2], "offsets must rise"),  # not from 0
        ([1, 2, 3], [0, 2, 1, 3], "offsets must rise"),  # falling
        ([1, 2], [0, 1], "offsets must rise"),  # not to flat.size
        ([], [], "offsets must rise"),  # no start
        ([[1, 2]], [0, 2], "must be 1-D"),
        ([2, 1], [0, 2], "ascending"),
        ([1, 1], [0, 2], "duplicate-free"),
    ],
    ids=["offsets_start", "offsets_fall", "offsets_end", "offsets_empty", "flat_2d",
         "descending", "repeated"],
)
def test_groundtruth_refuses_malformed_lists(flat, offsets, message):
    with pytest.raises(ValidationError, match=message):
        GroundTruth(flat, offsets)


@pytest.mark.parametrize(
    "build,sources,held",
    [
        (Dataset, lambda: (np.ones((2, 3)), np.array([4, 7])), lambda v: (v.features, v.ids)),
        (PairSet, lambda: (np.array([0]), np.array([1]), np.array([1])), lambda v: (v.i, v.j, v.s)),
        (
            lambda p, w: HashModel(p, w, Hyperparams(K=2, L=1)),
            lambda: (np.ones((1, 2, 3)), np.ones(1)),
            lambda v: (v.projections, v.weights),
        ),
        (PcaBasis, lambda: (np.zeros(2), np.eye(2)), lambda v: (v.mean, v.components)),
        (WtaSpec, lambda: (np.array([[2, 0, 1]]), 2), lambda v: (v.permutations,)),
        (LshSpec, lambda: (np.ones((2, 3)),), lambda v: (v.hyperplanes,)),
        # the caller's writes would leave a validated list holding a
        # duplicate, cut by offsets that no longer start at 0
        (GroundTruth, lambda: (np.array([1, 2]), np.array([0, 2])), lambda v: (v.flat, v.offsets)),
        (  # an aliased ids array would change what lookup returns
            lambda codes, ids: build_table(codes, ids, 3),
            lambda: (np.array([[0, 2], [1, 1], [2, 0]]), np.array([9, 4, 6])),
            lambda v: (v.columns, v.ids),
        ),
    ],
    ids=["Dataset", "PairSet", "HashModel", "PcaBasis", "WtaSpec", "LshSpec", "GroundTruth",
         "HashTable"],
)
def test_value_types_hold_read_only_copies(build, sources, held):
    given = sources()
    value = build(*given)
    kept = [a.copy() for a in held(value)]
    for a in given:
        if isinstance(a, np.ndarray):
            a.flat[0] += 1  # the caller's arrays, after validation
    for a, b in zip(held(value), kept):
        assert np.array_equal(a, b)
        assert not a.flags.writeable and a.flags.c_contiguous


@pytest.mark.parametrize(
    "name,call",
    [
        ("L", lambda: make_wta_spec(2.5, 2, 4, seeded_rng(0))),
        ("bits", lambda: make_lsh_spec(2.5, 4, seeded_rng(0))),
        ("n_train", lambda: split_dataset(Dataset.from_features(np.eye(4)), 2.5, 1, seeded_rng(0))),
        ("n_clusters", lambda: synth_clusters(2.5, 3, 2, 1.0, 0.1, seeded_rng(0))),
        ("K", lambda: Hyperparams(K=4.0, L=2)),
        ("L", lambda: Hyperparams(K=4, L=True)),
        ("epochs", lambda: Hyperparams(K=4, L=2, epochs=True)),
        ("m", lambda: fit_pca(Dataset.from_features(np.eye(3)), True)),
        ("n_seeds", lambda: aggregate_runs({"ap": [0.5]}, True)),
    ],
    ids=["wta_L", "lsh_bits", "split", "clusters", "hyper_K", "hyper_L", "hyper_epochs", "pca_m",
         "n_seeds"],
)
def test_counts_are_integers_never_floats_or_bools(name, call):
    # a float raised a bare TypeError deep inside; a bool was read as 1.
    # The message opens with the bare name, which the CLI maps to its key.
    with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
        call()


_DATA = Dataset.from_features(np.eye(4))
_REAL_ENTRY_POINTS = {
    **{field: (field, lambda v, field=field: Hyperparams(K=4, L=2, **{field: v}))
       for field in ("rho", "lam", "eta", "tol", "eps_min")},
    "boost_step": ("eps_min", lambda v: boost_step(np.ones(2), np.zeros(2), v)),
    "groundtruth": ("target_avg", lambda v: calibrate_groundtruth(_DATA, _DATA, v)),
    "pair_threshold": ("target_avg", lambda v: calibrate_pair_threshold(_DATA, v)),
    "make_pairs": ("pos_fraction", lambda v: make_pairs(_DATA, 1.0, 4, v, seeded_rng(0))),
    "label_pairs": ("pos_fraction",
                    lambda v: make_pairs_from_labels([0, 0, 1], 4, v, seeded_rng(0))),
    "separation": ("separation", lambda v: synth_clusters(2, 3, 2, v, 0.1, seeded_rng(0))),
    "noise_sigma": ("noise_sigma", lambda v: synth_clusters(2, 3, 2, 1.0, v, seeded_rng(0))),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "0.3"],
                         ids=["nan", "inf", "-inf", "bool", "str"])
@pytest.mark.parametrize("entry", list(_REAL_ENTRY_POINTS))
def test_reals_are_finite_numbers_in_range(entry, value):
    # inf passed the calibrations' `>= 1` and synth_clusters' `>= 0`, a NaN
    # separation made 1000 draws per cluster before failing, and a string
    # target_avg was read by float(). The message opens with the bare name.
    name, call = _REAL_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match=f"^{name} must be a finite number"):
        call(value)
