"""Generalized Pauli channels from complete MUB families, their time-local
dynamics, and Markovianity certification."""

from .channel import (
    ChoiMatrix,
    CpCheck,
    GenPauliChannel,
    apply,
    channel_from_eigenvalues,
    channel_from_probabilities,
    choi_matrix,
    eigenvalues_from_probabilities,
    is_cp_fujiwara,
    probabilities_from_eigenvalues,
)
from .dynamics import (
    DivisibilityReport,
    IntermediateMap,
    Trajectory,
    Verdict,
    Witness,
    analyze,
    build_trajectory,
    check_blp,
    check_cp_divisible,
    check_cptp_trajectory,
    check_frobenius_monotone,
    check_p_necessary,
    check_p_sufficient,
    check_weyl_sufficient,
    evolve_operator,
    find_p_divisibility_witness,
    intermediate_map,
    weyl_rates_from_trajectory,
)
from .errors import (
    DimensionError,
    EvaluationError,
    GridResolutionError,
    InternalConsistencyError,
    InvalidInputError,
    NonHermitianError,
    ParseError,
    PaulidynError,
    QuadratureError,
    UnsupportedDimensionError,
)
from .linalg import (
    HermitianCheckResult,
    KrausMap,
    hermitian_check,
    min_eigenvalue_hermitian,
    trace_norm,
)
from .mub import (
    MubFamily,
    WeylBasis,
    commuting_classes,
    decoherence_channel,
    is_prime,
    mub_family,
    unitary_mixing_map,
    weyl_basis,
)
from .ratefn import (
    PRESET_NAMES,
    RateExpr,
    RateSet,
    evaluate,
    parse,
    preset_rates,
    rate_set,
)

__version__ = "0.1.0"
