import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgen import (
    Correlation,
    CorrelationError,
    CorrgenError,
    PureStateMatrix,
    SchmidtSpectrum,
    StochasticTransformPair,
    classical_fidelity,
    kraus_to_stochastic,
    marginal_x,
    marginal_y,
    mutual_information,
    shannon_entropy,
)
from corrgen.correlation import UNIT_SUM_TOL

from conftest import random_correlation


class TestConstruction:
    def test_renormalizes_integer_numerators(self):
        P = Correlation([[1, 4], [4, 0]])
        assert P.renormalized
        assert P.matrix.sum() == pytest.approx(1.0, abs=1e-15)

    def test_unit_mass_not_flagged(self):
        assert not Correlation([[0.5, 0.0], [0.0, 0.5]]).renormalized

    @pytest.mark.parametrize("bad", [[[0, 0], [0, 0]], [[-0.5, 1.5]], [[np.nan, 1]],
                                     np.zeros((0, 2)), np.zeros((2, 0)), np.full(2, 0.5)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(CorrelationError):
            Correlation(bad)

    def test_immutable(self):
        P = Correlation([[0.5, 0.5]])
        with pytest.raises(ValueError):
            P.matrix[0, 0] = 0.0

    def test_json_round_trip(self):
        P = Correlation([[0.2, 0.3], [0.1, 0.4]])
        Q = Correlation.from_json_dict(json.loads(json.dumps(P.to_json_dict())))
        np.testing.assert_allclose(Q.matrix, P.matrix)


class TestMarginals:
    def test_example2_rows(self):
        P = Correlation(np.array([[1, 4], [4, 0]]) / 9)
        np.testing.assert_allclose(marginal_x(P), [5 / 9, 4 / 9])

    def test_diag(self):
        P = Correlation([[0.3, 0], [0, 0.7]])
        np.testing.assert_allclose(marginal_x(P), [0.3, 0.7])
        np.testing.assert_allclose(marginal_y(P), [0.3, 0.7])

    def test_uniform(self):
        np.testing.assert_allclose(marginal_x(Correlation(np.full((2, 2), 0.25))), [0.5, 0.5])

    def test_example3_columns(self):
        P = Correlation(np.array([[2, 6], [3, 0]]) / 11)
        np.testing.assert_allclose(marginal_y(P), [5 / 11, 6 / 11])

    def test_hand_columns(self):
        P = Correlation([[0.2, 0.3], [0.1, 0.4]])
        np.testing.assert_allclose(marginal_y(P), [0.3, 0.7])


class TestMutualInformation:
    def test_example2_value(self):
        P = Correlation(np.array([[1, 4], [4, 0]]) / 9)
        assert mutual_information(P) == pytest.approx(0.59, abs=0.005)

    def test_product_is_zero(self):
        P = Correlation(np.outer([0.4, 0.6], [0.3, 0.7]))
        assert mutual_information(P) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_bit(self):
        assert mutual_information(Correlation([[0.5, 0], [0, 0.5]])) == pytest.approx(1.0)


class TestEntropyAndFidelity:
    def test_example2_entropy(self):
        assert shannon_entropy([1 / 9, 8 / 9]) == pytest.approx(0.5033, abs=5e-4)

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_identical_normalized(self):
        assert classical_fidelity([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)

    def test_disjoint_support(self):
        assert classical_fidelity([1, 0], [0, 1]) == 0.0

    def test_example4_row_fidelity_sum(self):
        rows = np.array([[2, 6], [3, 0]]) / 11
        total = sum(classical_fidelity(rows[i], rows[j]) ** 2
                    for i in range(2) for j in range(2))
        assert total == pytest.approx(85 / 121, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(CorrelationError):
            classical_fidelity([1, 0], [1, 0, 0])

    def test_self_fidelity_is_mass(self, rng):
        p = rng.random(5)
        assert classical_fidelity(p, p) == pytest.approx(p.sum())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(2, 4))
def test_marginals_sum_to_one(seed, n, m):
    P = random_correlation(np.random.default_rng(seed), n, m)
    assert marginal_x(P).sum() == pytest.approx(1.0, abs=1e-12)
    assert marginal_y(P).sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(2, 4))
def test_mutual_information_bounded_by_marginal_entropies(seed, n, m):
    P = random_correlation(np.random.default_rng(seed), n, m)
    cap = min(shannon_entropy(marginal_x(P)), shannon_entropy(marginal_y(P)))
    assert mutual_information(P) <= cap + 1e-10


def test_permutation_covariance(rng):
    P = random_correlation(rng, 3, 4)
    perm = Correlation(P.matrix[rng.permutation(3)][:, rng.permutation(4)])
    assert mutual_information(perm) == pytest.approx(mutual_information(P), abs=1e-12)
    assert shannon_entropy(marginal_x(perm)) == pytest.approx(
        shannon_entropy(marginal_x(P)), abs=1e-12)
    f = sorted(classical_fidelity(P.matrix[i], P.matrix[j])
               for i in range(3) for j in range(3))
    g = sorted(classical_fidelity(perm.matrix[i], perm.matrix[j])
               for i in range(3) for j in range(3))
    np.testing.assert_allclose(f, g, atol=1e-12)


# every reader of a total that must be 1, given an input whose total is t
UNIT_SUM_READERS = {
    "spectrum": lambda t: SchmidtSpectrum([0.5, t - 0.5]),
    "entropy": lambda t: shannon_entropy([0.5, t - 0.5]),
    "pure-state": lambda t: PureStateMatrix([[np.sqrt(0.5), np.sqrt(t - 0.5)]]),
    "stochastic-columns": lambda t: StochasticTransformPair([[0.5], [t - 0.5]], [[1.0]]),
    "kraus-columns": lambda t: kraus_to_stochastic([np.diag([np.sqrt(t), 1.0])]),
}


@pytest.mark.parametrize("read", UNIT_SUM_READERS.values(), ids=UNIT_SUM_READERS.keys())
@pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
def test_one_unit_sum_boundary(read, sign):
    # each reader had its own bound (1e-10 for stochastic columns, 1e-8 for a Kraus set)
    read(1 + sign * 0.5 * UNIT_SUM_TOL)
    with pytest.raises(CorrgenError, match="must sum to 1"):
        read(1 + sign * 2 * UNIT_SUM_TOL)
