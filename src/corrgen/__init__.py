"""corrgen: one-shot generation of classical correlations from shared seeds.

Decides and bounds when local operations on a shared seed (pure bipartite
state, classical-classical mixed state, or classical correlation) can
produce a target classical correlation, searches for witness protocols
via diagonal-form PSD factorizations, and builds the associated
SUBSET-SUM hardness instances.

``import corrgen`` loads none of the submodules.  Each public name below
is looked up in its submodule when it is first read (PEP 562), so a
program loads only the modules whose names it uses: the condition
battery (``correlation``, ``conditions``) without the factorization
search (``factorize``), the purification bridge (``purify``) or the
SUBSET-SUM layer (``classical``).  The name is not kept here, so the
package always hands out what its submodule currently binds.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "correlation": (
        "Correlation", "CorrelationError", "CorrgenError", "classical_fidelity",
        "marginal_x", "marginal_y", "mutual_information", "shannon_entropy",
    ),
    "conditions": (
        "DEFAULT_ALPHAS", "NOT_RULED_OUT", "RULED_OUT", "ConditionRecord", "ConditionReport",
        "SchmidtSpectrum", "SpectrumError", "check_all", "check_fidelity_sum", "check_holevo",
        "check_min_schmidt", "check_renyi", "check_v2", "v2_classical",
    ),
    "factorize": (
        "DiagonalPsdFactorization", "FactorizationError", "SolveOutcome", "SolveSettings",
        "VerifyResult", "alternate", "lambda_candidates_from_purifications", "verify",
    ),
    "purify": (
        "PureStateMatrix", "PurificationBundle", "PurificationError", "canonical_purification",
        "cnot_purification", "factorization_to_purification", "mixed_seed_check",
        "purification_to_factorization", "sample_protocol", "schmidt_spectrum",
    ),
    "classical": (
        "ClassicalError", "ClassicalHardnessInstance", "ClassicalSearchResult",
        "InstanceTooLarge", "OracleResult", "QuantumHardnessInstance", "StochasticTransformPair",
        "SubsetSumInstance", "build_classical_hardness_instance",
        "build_quantum_hardness_instance", "classical_feasible_search",
        "decide_classical_hardness_instance", "decide_diag_to_half_identity",
        "is_diag_to_half_identity", "kraus_to_stochastic", "schmidt_basis_protocol",
        "subset_sum_oracle",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule read as an attribute; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
