import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankhash import (
    Dataset,
    FormatError,
    Hyperparams,
    HashModel,
    ValidationError,
    seeded_rng,
)
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

from oracles import (
    code_bit_length,
    lsh_encode,
    pack_code,
    rsh_encode,
    unpack_code,
    wta_encode,
)


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


@pytest.mark.parametrize("K", [2, 4, 256, 257])
def test_encode_dataset_writes_a_column_store(K):
    # the (N, L) codes are the transpose of a C-contiguous (L, N) store in
    # the smallest unsigned dtype that holds K - 1: uint8, uint16 from 257
    model = make_model(3, K, 6, seed=K)
    data = Dataset(seeded_rng(K + 1).standard_normal((50, 6)), np.arange(50))
    codes = encode_dataset(data, model)
    assert codes.dtype == np.min_scalar_type(K - 1)
    assert codes.dtype == (np.uint8 if K <= 256 else np.uint16)
    assert codes.shape == (50, 3) and codes.T.flags.c_contiguous
    for l in range(3):
        want = [rsh_encode(x, model.projections[l]) for x in data.features]
        assert np.array_equal(codes[:, l], want)


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


# ------------------------------------------------------------- packing


def test_symbol_bits():
    assert symbol_bits(2) == 1
    assert symbol_bits(4) == 2
    assert symbol_bits(5) == 3


def test_code_bit_length():
    assert code_bit_length(6, 4) == 12


def test_pack_code_frozen_example():
    assert pack_code(np.array([1, 0, 1]), 2) == b"\xa0"


def test_pack_rejects_out_of_range_symbol():
    with pytest.raises(ValidationError):
        pack_code(np.array([0, 2]), 2)


def test_unpack_rejects_bad_length_and_padding():
    packed = pack_code(np.array([1, 0, 1]), 2)
    with pytest.raises(FormatError):
        unpack_code(packed + b"\x00", 3, 2)
    with pytest.raises(FormatError):
        unpack_code(b"\xa1", 3, 2)  # stray bit in the zero padding


def test_unpack_rejects_symbol_at_k():
    # 2-bit fields can hold 3, which is outside K=3
    packed = pack_code(np.array([2, 2]), 4)
    with pytest.raises(FormatError):
        unpack_code(b"\xf0", 2, 3)
    assert np.array_equal(unpack_code(packed, 2, 4), [2, 2])


@settings(max_examples=100, deadline=None)
@given(
    K=st.integers(min_value=2, max_value=8),
    L=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_pack_unpack_round_trip(K, L, seed):
    code = seeded_rng(seed).integers(0, K, size=L)
    assert np.array_equal(unpack_code(pack_code(code, K), L, K), code)
