"""Every public constructor and scalar functional that takes numbers rejects NaN and ±inf
with its module's error."""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from corrgen import (
    ClassicalError,
    Correlation,
    CorrelationError,
    DiagonalPsdFactorization,
    FactorizationError,
    PureStateMatrix,
    PurificationError,
    SchmidtSpectrum,
    SpectrumError,
    StochasticTransformPair,
    classical_fidelity,
    shannon_entropy,
)

HALVES = np.stack([0.5 * np.eye(2)] * 2)
# constructor or functional: (its module's error, valid arguments)
CASES = {
    Correlation: (CorrelationError, [np.full((2, 3), 1 / 6)]),
    SchmidtSpectrum: (SpectrumError, [np.array([0.5, 0.3, 0.2])]),
    DiagonalPsdFactorization: (FactorizationError, [HALVES, HALVES, np.ones(2)]),
    StochasticTransformPair: (ClassicalError, [np.eye(2), np.full((3, 2), 1 / 3)]),
    PureStateMatrix: (PurificationError, [np.eye(2) / np.sqrt(2)]),
    shannon_entropy: (CorrelationError, [np.array([0.5, 0.3, 0.2])]),
    classical_fidelity: (CorrelationError, [np.array([0.2, 0.8]), np.full(2, 0.5)]),
}


@settings(max_examples=200, deadline=None)
@given(cls=st.sampled_from(list(CASES)), arg=st.integers(0, 2), entry=st.integers(0, 99),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_entry_raises_module_error(cls, arg, entry, bad):
    error, valid = CASES[cls]
    cls(*valid)
    args = [a.copy() for a in valid]
    target = args[arg % len(args)]
    target.flat[entry % target.size] = bad
    with pytest.raises(error):
        cls(*args)

