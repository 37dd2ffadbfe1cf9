"""Every public constructor and scalar functional that takes numbers rejects NaN and ±inf,
strings, bytes, booleans, ragged and too deeply nested rows with its module's error, and no
huge or tiny finite entry overflows or underflows inside its checks.  Every value type that
holds arrays answers ``==`` and ``hash()`` without raising."""

import warnings

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
    PurificationBundle,
    PurificationError,
    SchmidtSpectrum,
    SpectrumError,
    StochasticTransformPair,
    SubsetSumInstance,
    build_quantum_hardness_instance,
    classical_fidelity,
    kraus_to_stochastic,
    purification_to_factorization,
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
    PurificationBundle: (PurificationError, [np.full((2, 2, 2), 0.5), np.full((3, 2, 1), 0.5)]),
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


def _innermost_rows(nested):
    """The lists of numbers inside ``nested``, in order."""
    if not isinstance(nested[0], list):
        return [nested]
    return [row for sub in nested for row in _innermost_rows(sub)]


def _nest(depth):
    """0.5 wrapped in ``depth`` levels of lists."""
    value = 0.5
    for _ in range(depth):
        value = [value]
    return value


@settings(max_examples=200, deadline=None)
@given(cls=st.sampled_from(list(CASES)), arg=st.integers(0, 2), entry=st.integers(0, 99),
       spoil=st.sampled_from(["string", "bytes", "bool", "ragged", "deep"]))
def test_non_number_entry_raises_module_error(cls, arg, entry, spoil):
    # numpy reads "0.5" and b"0.5" as 0.5 and True as 1.0, and raises its own ValueError on a
    # ragged list; a walk of a list nested beyond the recursion limit raises RecursionError
    error, valid = CASES[cls]
    args = [a.tolist() for a in valid]
    i = arg % len(args)
    rows = _innermost_rows(args[i])
    flat = [(row, j) for row in rows for j in range(len(row))]
    row, j = flat[entry % len(flat)]
    if spoil == "string":
        row[j] = str(row[j])
    elif spoil == "bytes":
        row[j] = str(row[j]).encode()
    elif spoil == "bool":
        row[j] = bool(row[j])
    elif spoil == "deep":
        row[j] = _nest(2000)
    elif len(rows) > 1:
        del row[-1]  # one row shorter than the others
    else:
        row[j] = [row[j], row[j]]  # a 1-d input made ragged by a nested entry
    with pytest.raises(error):
        cls(*args)


ARRAY_TYPES = [Correlation, SchmidtSpectrum, DiagonalPsdFactorization, StochasticTransformPair,
               PureStateMatrix, PurificationBundle]


@pytest.mark.parametrize("build, equal", [
    *[(lambda cls=cls: cls(*CASES[cls][1]), False) for cls in ARRAY_TYPES],
    (lambda: build_quantum_hardness_instance(SubsetSumInstance([3, 1, 2])), True),
], ids=[cls.__name__ for cls in ARRAY_TYPES] + ["QuantumHardnessInstance"])
def test_equality_and_hash_answer(build, equal):
    # an array field made the generated __eq__ raise numpy's ambiguous-truth error, and a
    # generated __eq__ leaves the type unhashable; a value type holding arrays is equal only
    # to itself, while a hardness instance holds its items alone and compares by them
    x, twin = build(), build()
    assert x == x and hash(x) == hash(x)
    assert (x == twin) is equal and (x != twin) is not equal
    if equal:
        x.spectrum  # a value built on first read takes no part in equality
        assert x == twin and hash(x) == hash(twin)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_complex_array_raises_module_error(cls):
    # the array parser reads complex numbers for Kraus sets only
    error, valid = CASES[cls]
    for i in range(len(valid)):
        args = [a.astype(complex) if j == i else a for j, a in enumerate(valid)]
        with pytest.raises(error, match="must hold real numbers"):
            cls(*args)


def test_kraus_reads_complex_numbers():
    # a complex Kraus operator is read, and a refused one is not asked for real numbers
    S = np.diag([1, 1j])
    for E in (S, S.tolist()):
        np.testing.assert_array_equal(kraus_to_stochastic([E]), np.eye(2))
    with pytest.raises(ClassicalError, match="must hold numbers"):
        kraus_to_stochastic([[[1j, "0"], [0, 1]]])


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, "1", b"1", True, np.bool_(True),
                                   _nest(2000)],
                         ids=["nan", "inf", "-inf", "string", "bytes", "bool", "numpy-bool", "deep"])
def test_kraus_entry_raises_module_error(entry):
    # NaN came back as a "column-stochastic" [[nan]], a string, bytes or bool was read as 1,
    # and inf was refused only after a RuntimeWarning from the products
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ClassicalError):
            kraus_to_stochastic([[[entry]]])


# each squares, multiplies or sums its entries, which overflows (or, for the
# tiny fidelity, underflows to 0) for these; the largest entry is tested
# first, so there is no RuntimeWarning on the way to the error.  The Kraus
# set's and the bundle's Gram matrices overflow to NaN off the diagonal,
# which passed their tests, written as "error > tolerance", and was returned
# as an all-inf "stochastic" matrix or a valid bundle; the way back from the
# bundle builds its Gram factorization, whose stack C is refused as not finite
HUGE = [[[1e200, 1e200], [1e200, -1e200]]]


@pytest.mark.parametrize("func, args, expected", [
    (PureStateMatrix, [[[1e200, 0], [0, 0]]], PurificationError),
    (StochasticTransformPair, [[[1e308], [1e308]], [[1.0]]], ClassicalError),
    (shannon_entropy, [[1e308, 1e308]], CorrelationError),
    (kraus_to_stochastic, [HUGE], ClassicalError),
    (lambda v: purification_to_factorization(PurificationBundle(v, v)), [HUGE],
     FactorizationError),
    (classical_fidelity, [[1e200], [1e200]], 1e200),
    (classical_fidelity, [[1e308, 1e308], [1e308, 1e308]], float("inf")),
    (classical_fidelity, [[1e-200], [1e-200]], 1e-200),
], ids=["pure-state", "stochastic-pair", "entropy", "kraus-gram", "bundle-gram", "fidelity",
        "fidelity-beyond-range", "fidelity-tiny"])
def test_extreme_finite_entries_stay_in_range(func, args, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, float):
            assert func(*args) == expected
        else:
            with pytest.raises(expected):
                func(*args)
