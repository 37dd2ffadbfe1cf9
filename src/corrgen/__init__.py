"""corrgen: one-shot generation of classical correlations from shared seeds.

Decides and bounds when local operations on a shared seed (pure bipartite
state, classical-classical mixed state, or classical correlation) can
produce a target classical correlation, searches for witness protocols
via diagonal-form PSD factorizations, and builds the associated
SUBSET-SUM hardness instances.
"""

from .correlation import (
    Correlation,
    CorrelationError,
    CorrgenError,
    classical_fidelity,
    marginal_x,
    marginal_y,
    mutual_information,
    shannon_entropy,
)
from .conditions import (
    DEFAULT_ALPHAS,
    NOT_RULED_OUT,
    RULED_OUT,
    ConditionRecord,
    ConditionReport,
    SchmidtSpectrum,
    SpectrumError,
    check_all,
    check_fidelity_sum,
    check_holevo,
    check_min_schmidt,
    check_renyi,
    check_v2,
    v2_classical,
)
from .factorize import (
    DiagonalPsdFactorization,
    FactorizationError,
    SolveOutcome,
    SolveSettings,
    VerifyResult,
    alternate,
    lambda_candidates_from_purifications,
    verify,
)
from .purify import (
    PureStateMatrix,
    PurificationBundle,
    PurificationError,
    canonical_purification,
    cnot_purification,
    factorization_to_purification,
    mixed_seed_check,
    purification_to_factorization,
    sample_protocol,
    schmidt_spectrum,
)
from .classical import (
    ClassicalError,
    ClassicalHardnessInstance,
    ClassicalSearchResult,
    InstanceTooLarge,
    OracleResult,
    QuantumHardnessInstance,
    StochasticTransformPair,
    SubsetSumInstance,
    build_classical_hardness_instance,
    build_quantum_hardness_instance,
    classical_feasible_search,
    decide_classical_hardness_instance,
    decide_diag_to_half_identity,
    is_diag_to_half_identity,
    kraus_to_stochastic,
    schmidt_basis_protocol,
    subset_sum_oracle,
)

__version__ = "0.1.0"
