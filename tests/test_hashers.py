import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankhash import (
    Dataset,
    Hyperparams,
    HashModel,
    ValidationError,
    seeded_rng,
)
from rankhash import hashers
from rankhash.hashers import (
    LshSpec,
    WtaSpec,
    encode_dataset,
    lsh_as_rsh,
    make_lsh_spec,
    make_wta_spec,
    symbol_bits,
    wta_as_rsh,
)

from oracles import lsh_encode, rsh_encode, wta_encode


def test_rsh_encode_identity_projection():
    W = np.eye(3)
    assert rsh_encode([0.2, 0.9, 0.5], W) == 1
    assert rsh_encode(np.array([0.2, 0.9, 0.5]) * 10, W) == 1


def test_rsh_encode_hand_instance():
    W = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    # projections (0.5, -0.5, 0.8)
    assert rsh_encode([0.5, 0.8], W) == 2


def test_rsh_encode_zero_vector_takes_smallest_index():
    assert rsh_encode([0.0, 0.0], seeded_rng(0).standard_normal((4, 2))) == 0


def test_rsh_encode_tie_takes_smallest_index():
    W = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    assert rsh_encode([0.3, 0.4], W) == 0


def test_rsh_encode_dimension_mismatch():
    with pytest.raises(ValidationError):
        rsh_encode([1.0, 2.0, 3.0], np.eye(2))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    c=st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
)
def test_rsh_encode_scale_invariant(seed, c):
    rng = seeded_rng(seed)
    W = rng.standard_normal((4, 6))
    x = rng.standard_normal(6)
    y = W @ x
    top = np.sort(y)[-2:]
    if top[1] - top[0] < 1e-9:  # ties may flip under scaling; skip those
        return
    assert rsh_encode(c * x, W) == rsh_encode(x, W)


def make_model(L, K, d, seed=0):
    rng = seeded_rng(seed)
    return HashModel(rng.standard_normal((L, K, d)), None, Hyperparams(K=K, L=L, seed=seed))


def test_encode_dataset_single_function_matches_rsh_encode():
    model = make_model(1, 4, 5, seed=2)
    data = Dataset(seeded_rng(3).standard_normal((20, 5)), np.arange(20))
    codes = encode_dataset(data, model)
    assert codes.shape == (20, 1)
    for row in range(20):
        assert codes[row, 0] == rsh_encode(data.features[row], model.projections[0])


def test_encode_dataset_permutation_equivariant():
    model = make_model(3, 4, 5, seed=4)
    data = Dataset(seeded_rng(5).standard_normal((30, 5)), np.arange(30))
    perm = seeded_rng(6).permutation(30)
    assert np.array_equal(
        encode_dataset(data.subset(perm), model),
        encode_dataset(data, model)[perm],
    )


def test_encode_dataset_symbol_range():
    model = make_model(32, 4, 8, seed=7)
    data = Dataset(seeded_rng(8).standard_normal((1000, 8)), np.arange(1000))
    codes = encode_dataset(data, model)
    assert codes.shape == (1000, 32)
    assert codes.min() >= 0 and codes.max() < 4


def _encode_model(form, L, K, d, seed):
    """A projection model of one of the three code families."""
    if form == "lsh":  # a hyperplane row and a zero row per bit
        return lsh_as_rsh(LshSpec(seeded_rng(seed).integers(-3, 4, (L, d)).astype(float)))
    if form == "wta":  # standard basis rows
        return wta_as_rsh(make_wta_spec(L, K, d, seeded_rng(seed)))
    return make_model(L, K, d, seed=seed)


@pytest.mark.parametrize("form, L, K, n, cells", [
    *(pytest.param("rsh", 3, K, 50, None, id=str(K)) for K in (2, 4, 256, 257)),
    # blocks of 2^17 cells / (4 * 32) = 1024 rows: one row, one block and a
    # row, two blocks and a row
    pytest.param("rsh", 4, 32, 1, None, id="one-row"),
    pytest.param("rsh", 4, 32, 1025, None, id="block+1"),
    pytest.param("rsh", 4, 32, 2049, None, id="two-blocks+1"),
    # blocks of 5 rows: N one below, at and above a block's row count
    *(pytest.param("rsh", 3, 4, n, 60, id=f"5-row-blocks-n{n}") for n in (1, 4, 5, 6)),
    # L * K above a block's cells: each block holds one row
    pytest.param("rsh", 3, 5, 7, 8, id="row-blocks"),
    pytest.param("lsh", 6, 2, 50, None, id="lsh"),
    pytest.param("lsh", 6, 2, 50, 5, id="lsh-row-blocks"),
    pytest.param("wta", 5, 4, 50, None, id="wta"),
    pytest.param("wta", 5, 4, 50, 7, id="wta-row-blocks"),
])
def test_encode_dataset_writes_a_column_store(monkeypatch, form, L, K, n, cells):
    # the (N, L) codes are the transpose of a C-contiguous (L, N) store in
    # the smallest unsigned dtype that holds K - 1: uint8, uint16 from 257;
    # every block of the one stacked product gives each position the
    # symbol of that position's own product, ties to the smallest index
    if cells is not None:
        monkeypatch.setattr(hashers, "ENCODE_BLOCK_CELLS", cells)
    model = _encode_model(form, L, K, 6, seed=K + n)
    X = seeded_rng(K + 1).standard_normal((n, 6))
    if form == "lsh":
        # small integers: many rows lie exactly on a hyperplane, where its
        # projection ties the zero row's 0 and the symbol is 0
        X = np.round(2 * X)
        on_plane = X @ model.projections[:, 0].T == 0
        assert on_plane.sum() > 10
    codes = encode_dataset(Dataset(X, np.arange(n)), model)
    assert codes.dtype == np.min_scalar_type(K - 1)
    assert codes.dtype == (np.uint8 if K <= 256 else np.uint16)
    assert codes.shape == (n, L) and codes.T.flags.c_contiguous
    for l in range(L):
        P = model.projections[l]
        assert np.array_equal(codes[:, l], np.argmax(X @ P.T, axis=1))
        assert np.array_equal(codes[:, l], [rsh_encode(x, P) for x in X])
    if form == "lsh":
        assert (codes[on_plane] == 0).all()


def test_encode_dataset_transient_memory_is_one_block():
    # beyond its (L, N) result, encode holds about one block's product
    # (ENCODE_BLOCK_CELLS floats) and its argmax, whatever N is
    L, K = 8, 4
    model = make_model(L, K, 16, seed=3)
    block_bytes = hashers.ENCODE_BLOCK_CELLS * 8
    for n in (5_000, 80_000):
        data = Dataset(seeded_rng(n).standard_normal((n, 16)), np.arange(n))
        tracemalloc.start()
        try:
            codes = encode_dataset(data, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - codes.nbytes < 1.5 * block_bytes, (n, peak)


# ----------------------------------------------------------------- wta


def test_wta_encode_identity_permutation():
    spec = WtaSpec(np.array([[0, 1, 2, 3]]), 2)
    assert wta_encode([5.0, 1.0, 4.0, 2.0], spec)[0] == 0


def test_wta_encode_permuted_window():
    # window reads x[2], x[3] = (4, 2); its max sits at window slot 0
    spec = WtaSpec(np.array([[2, 3, 0, 1]]), 2)
    assert wta_encode([5.0, 1.0, 4.0, 2.0], spec)[0] == 0


def test_wta_monotone_transform_invariant():
    rng = seeded_rng(11)
    spec = make_wta_spec(6, 3, 10, rng)
    for _ in range(20):
        x = rng.standard_normal(10)
        assert np.array_equal(wta_encode(x, spec), wta_encode(2 * x + 3, spec))


def test_wta_spec_rejects_non_permutation():
    with pytest.raises(ValidationError):
        WtaSpec(np.array([[0, 0, 1, 2]]), 2)
    with pytest.raises(ValidationError):
        WtaSpec(np.array([[0, 1, 2, 3]]), 5)  # window wider than d


def test_wta_as_rsh_identity_case():
    spec = WtaSpec(np.array([[0, 1, 2]]), 3)
    model = wta_as_rsh(spec)
    assert np.array_equal(model.projections[0], np.eye(3))


def test_wta_as_rsh_agrees_everywhere():
    rng = seeded_rng(12)
    for trial in range(10):
        spec = make_wta_spec(5, 4, 9, rng)
        model = wta_as_rsh(spec)
        X = rng.standard_normal((20, 9))
        data = Dataset(X, np.arange(20))
        expected = np.stack([wta_encode(x, spec) for x in X])
        assert np.array_equal(encode_dataset(data, model), expected)


# ----------------------------------------------------------------- lsh


def test_lsh_encode_sign_readout():
    spec = LshSpec(np.eye(2))
    assert np.array_equal(lsh_encode([1.0, -1.0], spec), [1, 0])
    assert np.array_equal(lsh_encode([3.0, -3.0], spec), [1, 0])


def test_lsh_encode_zero_vector_all_ones():
    spec = LshSpec(np.eye(3))
    assert np.array_equal(lsh_encode([0.0, 0.0, 0.0], spec), [1, 1, 1])


def test_lsh_as_rsh_preserves_hamming():
    rng = seeded_rng(13)
    spec = make_lsh_spec(12, 7, rng)
    model = lsh_as_rsh(spec)
    assert model.K == 2
    X = rng.standard_normal((40, 7))
    data = Dataset(X, np.arange(40))
    codes = encode_dataset(data, model)
    bits = np.stack([lsh_encode(x, spec) for x in X])
    # symbol = 1 - bit, so pairwise disagreement counts are identical
    assert np.array_equal(codes, 1 - bits)


# --------------------------------------------------------- symbol width


def test_symbol_bits():
    assert symbol_bits(2) == 1
    assert symbol_bits(4) == 2
    assert symbol_bits(5) == 3
