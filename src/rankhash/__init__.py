"""Learned rank-order hashing with baselines and retrieval evaluation.

The package trains hash functions that encode a vector by the index of its
largest learned projection, one symbol per projection matrix. Codes support
Hamming-ball range lookup and Hamming/weighted kNN retrieval, evaluated
against data-agnostic winner-take-all and random-hyperplane baselines at
equal packed-bit budgets.
"""

from .core import (
    MAX_SEED,
    Dataset,
    FormatError,
    HashModel,
    Hyperparams,
    PairSet,
    RankHashError,
    ValidationError,
    child_seed,
    init_projection,
    load_model,
    save_model,
    seeded_rng,
)
from .data import (
    GroundTruth,
    PcaBasis,
    apply_center_and_normalize,
    apply_pca,
    calibrate_groundtruth,
    calibrate_pair_threshold,
    fit_pca,
    groundtruth_from_labels,
    load_csv,
    load_fvec,
    make_pairs,
    make_pairs_from_labels,
    row_normalize,
    save_fvec,
    split_dataset,
    synth_clusters,
)
from .evaluation import (
    HashTable,
    aggregate_runs,
    average_precision,
    build_table,
    knn_hamming,
    knn_weighted,
    lookup,
    pr_curve_by_radius,
    relevant_hits,
)
from .hashers import (
    LshSpec,
    WtaSpec,
    encode_dataset,
    lsh_as_rsh,
    make_lsh_spec,
    make_wta_spec,
    symbol_bits,
    wta_as_rsh,
)
from .learning import (
    BitTrace,
    ObjectiveValues,
    TrainLog,
    boost_step,
    objective,
    train_rsh,
    train_srsh,
)

__version__ = "0.1.0"
