from fractions import Fraction
from itertools import combinations_with_replacement
import json

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from corrgen import (
    ClassicalError,
    Correlation,
    InstanceTooLarge,
    OracleResult,
    SolveSettings,
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
    verify,
)
from corrgen.classical import HALF_IDENTITY, _normalize_columns, _stochastic_jacobian
from corrgen.cli import main
from corrgen.conditions import SchmidtSpectrum
from corrgen.correlation import MASS_TOL
from corrgen.factorize import _levenberg_marquardt

HALF_ID = Correlation([[0.5, 0.0], [0.0, 0.5]])
# q1, q2 are primes below 2^19 and p1, p2 primes below 2^20 / 3, so every
# denominator below is at most 2^20 while the common one is about 2^39
Q1, Q2, P1, P2 = 524287, 524269, 349519, 349507
EVEN_TOTAL_DIAG = [3 / (2 * Q1), (Q1 - 3) / (2 * Q1), 5 / (2 * Q2), (Q2 - 5) / (2 * Q2)]
ODD_TOTAL_DIAG = [1 / (3 * P1), (P1 - 1) / (3 * P1), 1 / (3 * P2), (2 * P2 - 1) / (3 * P2)]


class TestTransformPair:
    def test_accepts_stochastic(self):
        pair = StochasticTransformPair([[0.2, 1.0], [0.8, 0.0]], np.eye(2))
        np.testing.assert_allclose(pair.A.sum(axis=0), [1.0, 1.0])

    def test_rejects_bad_columns(self):
        with pytest.raises(ClassicalError):
            StochasticTransformPair([[0.2, 0.2], [0.7, 0.7]], np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ClassicalError):
            StochasticTransformPair([[1.5, 0.0], [-0.5, 1.0]], np.eye(2))

    def test_rejects_tiny_negative(self):
        # an entry down to -1e-12 was accepted and clipped to 0
        with pytest.raises(ClassicalError, match="nonnegative"):
            StochasticTransformPair([[1.0 + 1e-13, 0.0], [-1e-13, 1.0]], np.eye(2))

    def test_apply(self):
        pair = StochasticTransformPair(np.eye(2)[::-1], np.eye(2))
        P = Correlation([[0.3, 0.0], [0.0, 0.7]])
        np.testing.assert_allclose(pair.apply(P), [[0.0, 0.7], [0.3, 0.0]])


class TestKraus:
    def test_identity(self):
        np.testing.assert_allclose(kraus_to_stochastic([np.eye(2)]), np.eye(2))

    def test_bit_flip_mixture(self):
        E0 = np.sqrt(0.75) * np.eye(2)
        E1 = np.sqrt(0.25) * np.array([[0, 1], [1, 0]])
        M = kraus_to_stochastic([E0, E1])
        np.testing.assert_allclose(M, [[0.75, 0.25], [0.25, 0.75]])

    def test_hadamard(self):
        H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(kraus_to_stochastic([H]), np.full((2, 2), 0.5))

    def test_depolarizing_columns(self):
        p = 0.3
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        kraus = [np.sqrt(1 - 3 * p / 4) * paulis[0]] + \
                [np.sqrt(p / 4) * s for s in paulis[1:]]
        M = kraus_to_stochastic(kraus)
        np.testing.assert_allclose(M.sum(axis=0), [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(M, [[1 - p / 2, p / 2], [p / 2, 1 - p / 2]])

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ClassicalError):
            kraus_to_stochastic([0.5 * np.eye(2)])

    def test_rejects_empty(self):
        with pytest.raises(ClassicalError):
            kraus_to_stochastic([])

    @pytest.mark.parametrize("kraus", [[[1.0]], [np.eye(2), np.eye(3)], [np.zeros((2, 0))]],
                             ids=["vector", "unequal", "no-columns"])
    def test_rejects_malformed_set(self, kraus):
        # a vector raised IndexError and unequal operators numpy's broadcast error
        with pytest.raises(ClassicalError):
            kraus_to_stochastic(kraus)

    @pytest.mark.parametrize("kraus", [5, None, (np.eye(2) for _ in range(1))],
                             ids=["int", "none", "generator"])
    def test_rejects_non_array(self, kraus):
        # 5 and None raised a bare TypeError from list(); a generator was read as a list
        with pytest.raises(ClassicalError, match="Kraus set"):
            kraus_to_stochastic(kraus)

    def test_random_channel_columns(self, rng):
        # random isometry-completed channel: columns always sum to 1
        g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        q, _ = np.linalg.qr(g)
        kraus = [q[2 * i:2 * i + 2] for i in range(3)]
        M = kraus_to_stochastic(kraus)
        np.testing.assert_allclose(M.sum(axis=0), [1.0, 1.0], atol=1e-10)
        assert M.min() >= 0


class TestOracle:
    def test_balanced_pair(self):
        res = subset_sum_oracle(SubsetSumInstance([1, 1]))
        assert res.satisfiable
        assert sorted(res.witness) in ([0], [1])

    def test_123(self):
        res = subset_sum_oracle(SubsetSumInstance([1, 2, 3]))
        assert res.satisfiable
        assert sum(1 for _ in res.witness) > 0
        assert sum(SubsetSumInstance([1, 2, 3]).items[i] for i in res.witness) == 3

    def test_odd_total(self):
        assert not subset_sum_oracle(SubsetSumInstance([2, 3])).satisfiable

    def test_even_total_unsatisfiable(self):
        assert not subset_sum_oracle(SubsetSumInstance([1, 1, 4])).satisfiable

    def test_large_items(self):
        items = [10 ** 6 + 1, 10 ** 6 - 1, 2]
        res = subset_sum_oracle(SubsetSumInstance(items))
        assert res.satisfiable
        assert sum(items[i] for i in res.witness) == sum(items) // 2

    def test_witness_is_exact(self, rng):
        for _ in range(50):
            items = [int(a) for a in rng.integers(1, 40, size=rng.integers(1, 9))]
            res = subset_sum_oracle(SubsetSumInstance(items))
            if res.satisfiable:
                assert 2 * sum(items[i] for i in res.witness) == sum(items)

    def test_oracle_matches_brute_force(self, rng):
        from itertools import combinations
        for _ in range(30):
            items = [int(a) for a in rng.integers(1, 20, size=6)]
            total = sum(items)
            brute = total % 2 == 0 and any(
                2 * sum(c) == total
                for r in range(7) for c in combinations(items, r))
            assert subset_sum_oracle(SubsetSumInstance(items)).satisfiable == brute

    def test_sixty_items_decided(self):
        # the bit budget alone bounds the table: 60 items summing to 120 are
        # decided, and the witness takes half of them
        res = subset_sum_oracle(SubsetSumInstance([1, 3] * 30))
        assert res.satisfiable
        assert sum([1, 3][i % 2] for i in res.witness) == 60

    def test_bit_budget(self):
        # a table of 2 x (2^30 + 1) bits is just over the budget
        with pytest.raises(InstanceTooLarge, match="budget"):
            subset_sum_oracle(SubsetSumInstance([2 ** 29, 2 ** 29]))
        # an odd total needs no table, so any size is decided at once
        assert not subset_sum_oracle(SubsetSumInstance([2 ** 30 + 1])).satisfiable
        assert not subset_sum_oracle(SubsetSumInstance([2 ** 29, 2 ** 29 + 1])).satisfiable
        # the largest desk-scale instances, 50 items below 2^16, fit
        assert subset_sum_oracle(SubsetSumInstance([2 ** 16 - 1] * 50)).satisfiable

    def test_rejects_nonpositive(self):
        with pytest.raises(ClassicalError):
            SubsetSumInstance([1, 0, 2])

    @pytest.mark.parametrize("items", [[2.7, 2.2], [3.0, 3.0], ["3", "3"], [True, True],
                                       [np.float64(2.0), 2], [np.bool_(True), 1], 5],
                             ids=["fraction", "integral-float", "string", "bool",
                                  "numpy-float", "numpy-bool", "not-a-list"])
    def test_rejects_non_integer_items(self, items):
        # int() would truncate (2.7, 2.2) to (2, 2), which is satisfiable, and
        # a bare 5 ended in a TypeError
        with pytest.raises(ClassicalError, match="integers"):
            SubsetSumInstance(items)

    def test_accepts_numpy_integers(self):
        assert SubsetSumInstance(np.array([3, 1, 2])).items == (3, 1, 2)


class TestBuilders:
    def test_quantum_sorted_spectrum(self):
        q = build_quantum_hardness_instance(SubsetSumInstance([1, 2, 3]))
        np.testing.assert_allclose(q.spectrum.lambdas, [0.5, 1 / 3, 1 / 6], atol=1e-15)
        assert q.exact_lambdas == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        assert q.item_order == (2, 1, 0)
        np.testing.assert_allclose(q.target.matrix, HALF_ID.matrix)

    def test_quantum_balanced_pair(self):
        q = build_quantum_hardness_instance(SubsetSumInstance([1, 1]))
        np.testing.assert_allclose(q.spectrum.lambdas, [0.5, 0.5])

    def test_classical_preserves_order(self):
        c = build_classical_hardness_instance(SubsetSumInstance([2, 3]))
        np.testing.assert_allclose(np.diag(c.seed.matrix), [0.4, 0.6])
        assert c.exact_lambdas == (Fraction(2, 5), Fraction(3, 5))

    def test_classical_uniform(self):
        c = build_classical_hardness_instance(SubsetSumInstance([1, 1, 1]))
        np.testing.assert_allclose(c.seed.matrix, np.eye(3) / 3)

    def test_instances_keep_items_and_share_target(self):
        inst = SubsetSumInstance([2, 3])
        q = build_quantum_hardness_instance(inst)
        c = build_classical_hardness_instance(inst)
        assert q.subset_sum == c.subset_sum == inst
        assert q.target is c.target
        assert not q.target.matrix.flags.writeable

    def test_decision_matches_oracle(self):
        for items in ([1, 1], [1, 2, 3], [2, 3], [1, 1, 1], [3, 5, 8]):
            inst = SubsetSumInstance(items)
            c = build_classical_hardness_instance(inst)
            assert (decide_classical_hardness_instance(c).satisfiable
                    == subset_sum_oracle(inst).satisfiable)


def _bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


class TestReductionBits:
    """The reduction chain of criterion 09 and its built instances."""

    SAMPLE = 400

    @staticmethod
    def _sample():
        sweep = [items for r in range(1, 11)
                 for items in combinations_with_replacement(range(1, 10), r)]
        rng = np.random.default_rng(0)
        return [sweep[i] for i in rng.choice(len(sweep), TestReductionBits.SAMPLE, replace=False)]

    def test_chain_matches_eager_references(self):
        """A pin: the seed, spectrum, witness and verify values of a seeded
        sample of the sweep keep the bits of eager reference constructions
        (an ``np.diag`` seed, two ``np.diag`` witness blocks stacked and
        ``np.max(np.abs(...))`` in verify)."""
        satisfiable = 0
        for items in self._sample():
            inst = SubsetSumInstance(items)
            total = sum(items)
            seed = Correlation(np.diag([a / total for a in items])).matrix
            assert _bits(build_classical_hardness_instance(inst).seed.matrix) == _bits(seed)

            q = build_quantum_hardness_instance(inst)
            lam = np.sort([a / total for a in items])[::-1]
            assert _bits(q.spectrum.lambdas) == _bits(lam)

            oracle = subset_sum_oracle(inst)
            if not oracle.satisfiable:
                continue
            satisfiable += 1
            subset = [p for p, i in enumerate(q.item_order) if i in oracle.witness]
            sel = np.zeros(len(items))
            sel[subset] = 1.0
            sq = np.sqrt(lam)
            C = np.stack([np.diag(sq * sel), np.diag(sq * (1.0 - sel))])
            F = schmidt_basis_protocol(q.spectrum, subset)
            assert _bits(F.C) == _bits(C) and _bits(F.D) == _bits(C)
            assert _bits(F.lam) == _bits(sq)

            residual = float(np.max(np.abs(HALF_ID.matrix - np.einsum("xab,yba->xy", C, C))))
            half = 0.5 * np.concatenate((C, C))
            eig = np.linalg.eigvalsh(half + np.swapaxes(half, 1, 2))
            feasibility = float(max(np.max(np.abs(C.sum(axis=0) - np.diag(sq))),
                                    -float(np.min(eig[:, 0], initial=0.0))))
            res = verify(q.target, F, tol=1e-9)
            assert res.residual == residual and res.feasibility == feasibility
        assert satisfiable > self.SAMPLE // 4

    def test_seed_read_once_and_equality_by_items(self):
        # equality and hash read the items alone, never a float array
        c = build_classical_hardness_instance(SubsetSumInstance([2, 3, 5]))
        assert c.seed is c.seed
        twin = build_classical_hardness_instance(SubsetSumInstance([2, 3, 5]))
        assert twin == c and hash(twin) == hash(c)
        assert twin.target is c.target is build_quantum_hardness_instance(c.subset_sum).target


class TestSchmidtBasisProtocol:
    def test_balanced_pair(self):
        spec = SchmidtSpectrum([0.5, 0.5])
        F = schmidt_basis_protocol(spec, [0])
        res = verify(HALF_ID, F, tol=1e-12)
        assert res.ok

    def test_three_item_witness(self):
        q = build_quantum_hardness_instance(SubsetSumInstance([1, 2, 3]))
        # items {1, 2} sum to half: spectrum positions of original items 0, 1
        subset = [p for p, oi in enumerate(q.item_order) if oi in (0, 1)]
        F = schmidt_basis_protocol(q.spectrum, subset)
        assert verify(q.target, F, tol=1e-10).ok

    def test_factors_are_diagonal(self):
        # spectrum sorts to (0.5, 0.3, 0.2); the first position alone has mass 1/2
        F = schmidt_basis_protocol(SchmidtSpectrum([0.3, 0.2, 0.5]), [0])
        for mat in np.concatenate([F.C, F.D]):
            assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0.0

    def test_rejects_wrong_mass(self):
        with pytest.raises(ClassicalError):
            schmidt_basis_protocol(SchmidtSpectrum([0.7, 0.3]), [0])

    def test_rejects_empty_subset(self):
        with pytest.raises(ClassicalError):
            schmidt_basis_protocol(SchmidtSpectrum([0.5, 0.5]), [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ClassicalError):
            schmidt_basis_protocol(SchmidtSpectrum([0.5, 0.5]), [0, 5])

    @pytest.mark.parametrize("subset", [[0.7, 1.9], ["1", "2"], [True, 2]],
                             ids=["float", "string", "bool"])
    def test_rejects_non_integer_subset(self, subset):
        # int() read (0.7, 1.9) as {0, 1}, a subset of mass 1/2 here
        with pytest.raises(ClassicalError, match="integers"):
            schmidt_basis_protocol(SchmidtSpectrum([0.25, 0.25, 0.25, 0.25]), subset)

    @settings(max_examples=200, deadline=None)
    @given(items=st.lists(st.integers(1, 30), min_size=1, max_size=10),
           complement=st.booleans())
    def test_stacks_match_selection_matrix(self, items, complement):
        # the former construction: a 0/1 selection matrix, its √λ rows times
        # the identity; the two diagonal stacks written directly keep its bits
        inst = SubsetSumInstance(items)
        oracle = subset_sum_oracle(inst)
        if not oracle.satisfiable:
            return
        q = build_quantum_hardness_instance(inst)
        subset = [p for p, i in enumerate(q.item_order) if (i in oracle.witness) != complement]
        r = q.spectrum.rank
        sel = np.zeros((2, r))
        sel[0, subset] = 1.0
        sel[1] = 1.0 - sel[0]
        sq = q.spectrum.sqrt_lambdas()
        C = (sq * sel)[:, :, None] * np.eye(r)
        F = schmidt_basis_protocol(q.spectrum, subset)
        assert F.D is F.C
        assert _bits(F.C) == _bits(C) and _bits(F.lam) == _bits(sq)

    @settings(max_examples=120, deadline=None)
    @given(inside=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
           outside=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
           scale=st.sampled_from([-2.0, -0.5, 0.5, 2.0]))
    def test_mass_judged_by_tau(self, inside, outside, scale):
        # subset mass 1/2 + δ with |δ| = τ/2 or 2τ: the protocol accepts exactly
        # when |δ| ≤ τ, and what it returns passes verify at τ
        tau = SolveSettings.residual_tol
        delta = scale * tau
        lam = np.concatenate((np.array(inside) / sum(inside) * (0.5 + delta),
                              np.array(outside) / sum(outside) * (0.5 - delta)))
        order = np.argsort(lam)[::-1]  # spectrum position -> drawn entry
        spectrum = SchmidtSpectrum(lam)
        np.testing.assert_array_equal(spectrum.lambdas, lam[order])
        subset = [p for p, i in enumerate(order) if i < len(inside)]
        if abs(delta) <= tau:
            assert verify(HALF_IDENTITY, schmidt_basis_protocol(spectrum, subset), tau).ok
        else:
            with pytest.raises(ClassicalError, match="subset mass"):
                schmidt_basis_protocol(spectrum, subset)


    # the subset mass alone was judged, and the complement's cell misses ½ by
    # the same amount only where Σλ = 1 exactly; a total within MASS_TOL of 1
    # is kept to the bit, so (½ + d, ½ − d − 5e-13) with d = τ − 1e-13 gave a
    # witness 1.0000004e-6 off the half identity
    @example(inside=[1.0], outside=[1.0], sign=1.0, shift=-1e-13, offset=-5e-13)
    @settings(max_examples=200, deadline=None)
    @given(inside=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
           outside=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
           sign=st.sampled_from([-1.0, 1.0]), shift=st.floats(-1e-12, 1e-12),
           offset=st.floats(-MASS_TOL, MASS_TOL))
    def test_every_returned_witness_passes_verify(self, inside, outside, sign, shift, offset):
        # subset mass ½ + δ with |δ| within 1e-12 of τ, and a total up to MASS_TOL off 1
        delta = sign * (SolveSettings.residual_tol + shift)
        lam = np.concatenate((np.array(inside) / sum(inside) * (0.5 + delta),
                              np.array(outside) / sum(outside) * (0.5 - delta + offset)))
        order = np.argsort(lam)[::-1]  # spectrum position -> drawn entry
        subset = [p for p, i in enumerate(order) if i < len(inside)]
        try:
            F = schmidt_basis_protocol(SchmidtSpectrum(lam), subset)
        except ClassicalError:
            return
        assert verify(HALF_IDENTITY, F).ok


# (n1, m1, n2, m2); the last shape has more cells than tangent coordinates,
# so its step solves the (n₂n₁ + m₂m₁)-sided system instead of the n₂m₂ one
SHAPES = [(2, 3, 2, 2), (3, 2, 4, 3), (1, 2, 2, 1), (1, 1, 3, 3)]


def _random_point(rng, n1, m1, n2, m2):
    """A random seed and target, and a point (U, V) with unit columns."""
    seed = rng.dirichlet(np.ones(n1 * m1)).reshape(n1, m1)
    target = rng.dirichlet(np.ones(n2 * m2)).reshape(n2, m2)
    return (seed, target, *_normalize_columns(rng.standard_normal((n2, n1)),
                                              rng.standard_normal((m2, m1))))


def _table(seed, U, V):
    return (U * U) @ seed @ (V * V).T


def _tangent(Z, W):
    """W projected onto the tangent space of the oblique manifold at Z."""
    return W - Z * np.sum(Z * W, axis=0)


class TestParametrization:
    @pytest.mark.parametrize("n1, m1, n2, m2", SHAPES)
    def test_jacobian_matches_finite_differences(self, rng, n1, m1, n2, m2):
        seed, _, U, V = _random_point(rng, n1, m1, n2, m2)
        J = _stochastic_jacobian(seed, U, V, (U * U, V * V))
        assert J.shape == (n2 * m2, n2 * n1 + m2 * m1)
        h = 1e-5
        for _ in range(3):
            vU = _tangent(U, rng.standard_normal(U.shape))
            vV = _tangent(V, rng.standard_normal(V.shape))
            T_plus = _table(seed, *_normalize_columns(U + h * vU, V + h * vV))
            T_minus = _table(seed, *_normalize_columns(U - h * vU, V - h * vV))
            np.testing.assert_allclose(J @ np.concatenate([vU.ravel(), vV.ravel()]),
                                       ((T_plus - T_minus) / (2 * h)).ravel(),
                                       rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("n1, m1, n2, m2", SHAPES)
    def test_direction_is_tangent(self, rng, n1, m1, n2, m2):
        seed, target, U, V = _random_point(rng, n1, m1, n2, m2)
        r = (_table(seed, U, V) - target).ravel()
        d = _levenberg_marquardt(_stochastic_jacobian(seed, U, V, (U * U, V * V)), r, r @ r)
        for Z, dZ in ((U, d[:U.size].reshape(U.shape)), (V, d[U.size:].reshape(V.shape))):
            np.testing.assert_allclose(np.sum(Z * dZ, axis=0), 0.0, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), shape=st.tuples(*[st.integers(1, 4)] * 4),
           step=st.floats(0.0, 10.0))
    def test_retraction_is_stochastic(self, seed, shape, step):
        rng = np.random.default_rng(seed)
        _, _, U, V = _random_point(rng, *shape)
        pair = [Z + step * _tangent(Z, rng.standard_normal(Z.shape)) for Z in (U, V)]
        for moved in _normalize_columns(*pair):
            A = moved * moved
            assert A.min() >= 0
            np.testing.assert_allclose(A.sum(axis=0), 1.0, atol=1e-14)
            StochasticTransformPair(A, A)


@st.composite
def stochastic_pairs(draw):
    """A seed P₁ and a target A P₁ Bᵀ for random column-stochastic A, B; sizes 2–3."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n1, m1, n2, m2 = (draw(st.integers(2, 3)) for _ in range(4))
    P1 = rng.dirichlet(np.ones(n1 * m1)).reshape(n1, m1)
    A = rng.dirichlet(np.ones(n2), size=n1).T
    B = rng.dirichlet(np.ones(m2), size=m1).T
    return Correlation(P1), Correlation(A @ P1 @ B.T)


def _assert_same_search(multi, single):
    assert ((multi.residual, multi.converged, multi.residual_history)
            == (single.residual, single.converged, single.residual_history))
    np.testing.assert_array_equal(multi.pair.A, single.pair.A)
    np.testing.assert_array_equal(multi.pair.B, single.pair.B)


class TestSearch:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_restarts_keep_best_single_run(self, seed):
        # a product seed never reaches 1/2 I: restart r is the single run
        # at rng_seed + r, and the lowest residual wins, ties to the lower r
        product = Correlation(np.full((2, 2), 0.25))
        runs = [classical_feasible_search(product, HALF_ID, SolveSettings(
                    restarts=1, rng_seed=seed + r, max_outer_iters=20)) for r in range(3)]
        best = classical_feasible_search(product, HALF_ID, SolveSettings(
            restarts=3, rng_seed=seed, max_outer_iters=20))
        _assert_same_search(best, min(runs, key=lambda res: res.residual))

    def test_restarts_stop_at_first_converged(self):
        # restarts 1 and 3 converge on this budget, 0 and 2 do not
        seed = Correlation(np.diag([1, 1, 1, 3]) / 6)
        runs = [classical_feasible_search(seed, HALF_ID, SolveSettings(
                    restarts=1, rng_seed=1 + r, max_outer_iters=30)) for r in range(4)]
        first = next(r for r, res in enumerate(runs) if res.converged)
        assert first > 0
        best = classical_feasible_search(seed, HALF_ID, SolveSettings(
            restarts=4, rng_seed=1, max_outer_iters=30))
        _assert_same_search(best, runs[first])

    def test_identity_instance(self):
        P = Correlation([[0.2, 0.3], [0.1, 0.4]])
        res = classical_feasible_search(P, P)
        assert res.converged
        assert res.residual <= 1e-9

    # a search converges at f ≤ τ·τ, which bounds every cell by τ; while it
    # stopped at f ≤ 1e-9 the pinned diag-blocks search ended 7.9e-6 off
    @example(pair=(Correlation(np.diag([0.25, 0.25, 0.5])), HALF_ID))
    @settings(max_examples=40, deadline=None)
    @given(pair=stochastic_pairs())
    def test_converged_search_has_every_cell_within_tol(self, pair):
        P1, P2 = pair
        res = classical_feasible_search(P1, P2)
        if res.converged:
            assert abs(res.pair.apply(P1) - P2.matrix).max() <= SolveSettings.residual_tol

    def test_feasible_coarse_graining(self):
        # merging the two middle labels of a 3x3 seed is a stochastic map
        seed = Correlation(np.diag([0.25, 0.25, 0.5]))
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        target = Correlation(A @ seed.matrix @ A.T)
        res = classical_feasible_search(seed, target, SolveSettings(restarts=5))
        assert res.converged

    def test_infeasible_product_seed(self):
        seed = Correlation(np.outer([0.5, 0.5], [0.5, 0.5]))
        res = classical_feasible_search(seed, HALF_ID,
                                        SolveSettings(restarts=3, max_outer_iters=50))
        # products map to products; perfect correlation is unreachable
        assert not res.converged
        assert res.residual > 1e-3

    def test_history_monotone(self):
        seed = Correlation(np.diag([0.25, 0.25, 0.5]))
        res = classical_feasible_search(seed, HALF_ID, SolveSettings(restarts=1))
        h = res.residual_history
        assert len(h) > 1
        assert all(h[i + 1] <= h[i] + 1e-15 for i in range(len(h) - 1))

    def test_singular_step_system_ends_the_restart(self):
        # the 3x3 Gram of this Jacobian has rank 2, and the damping floor
        # eps*trace/size does not make it nonsingular: np.linalg.solve raised
        seed = Correlation([[0, 0, 0, 1], [0, 0, 0, 0.25]])
        target = Correlation([[0], [0.5625], [1]])
        res = classical_feasible_search(seed, target,
                                        SolveSettings(restarts=1, residual_tol=1e-300))
        assert not res.converged
        assert np.isfinite(res.residual_history).all()

    def test_deterministic(self):
        P = Correlation([[0.2, 0.3], [0.1, 0.4]])
        a = classical_feasible_search(P, HALF_ID, SolveSettings(restarts=2, max_outer_iters=20))
        b = classical_feasible_search(P, HALF_ID, SolveSettings(restarts=2, max_outer_iters=20))
        np.testing.assert_array_equal(a.pair.A, b.pair.A)
        assert a.residual == b.residual


class TestExactDecision:
    def test_detects_shape(self):
        assert is_diag_to_half_identity(Correlation(np.diag([0.4, 0.6])), HALF_ID)
        assert not is_diag_to_half_identity(Correlation([[0.2, 0.3], [0.1, 0.4]]), HALF_ID)
        assert not is_diag_to_half_identity(Correlation([[0.5, 0, 0], [0, 0.5, 0]]), HALF_ID)
        assert not is_diag_to_half_identity(Correlation(np.diag([0.4, 0.6])),
                                            Correlation([[0.3, 0], [0, 0.7]]))

    @staticmethod
    def _classical_payload(capsys, tmp_path, seed, target) -> dict:
        """The JSON `corrgen classical` writes for two matrices, written as given."""
        paths = [tmp_path / "seed.json", tmp_path / "target.json"]
        for path, matrix in zip(paths, (seed, target)):
            path.write_text(json.dumps({"matrix": matrix}))
        assert main(["classical", "--seed", str(paths[0]), "--target", str(paths[1]),
                     "--restarts", "1"]) == 0
        return json.loads(capsys.readouterr().out)

    # a zero off-diagonal forces each seed label onto one diagonal cell, so the
    # near-½I₂ target is infeasible; the near-diagonal seed is not diag(½, ½)
    @pytest.mark.parametrize("seed, target", [
        ([[0.5, 0], [0, 0.5]], [[0.5000000000004, 0], [0, 0.4999999999996]]),
        ([[0.5, 1e-13], [0, 0.5]], [[0.5, 0], [0, 0.5]]),
    ], ids=["target-near-half-identity", "seed-near-diagonal"])
    def test_near_instance_gets_no_exact_decision(self, capsys, tmp_path, seed, target):
        # both were read as diag(½, ½) → ½I₂ and decided feasible
        assert not is_diag_to_half_identity(Correlation(seed), Correlation(target))
        assert "exact_decision" not in self._classical_payload(capsys, tmp_path, seed, target)

    def test_unnormalized_half_identity_recognized(self, capsys, tmp_path):
        # [[1, 0], [0, 1]] is renormalized to exactly ½I₂
        seed, target = (np.diag([1.0, 2.0, 3.0]) / 6).tolist(), [[1, 0], [0, 1]]
        assert is_diag_to_half_identity(Correlation(seed), Correlation(target))
        payload = self._classical_payload(capsys, tmp_path, seed, target)
        assert payload["exact_decision"]["feasible"]

    def test_feasible_diag(self):
        res = decide_diag_to_half_identity(Correlation(np.diag([0.25, 0.25, 0.5])))
        assert res.satisfiable
        assert sum([0.25, 0.25, 0.5][i] for i in res.witness) == pytest.approx(0.5)

    def test_infeasible_diag(self):
        assert not decide_diag_to_half_identity(
            Correlation(np.diag([0.4, 0.6]))).satisfiable

    def test_float_diag_exceeds_budget(self):
        # every entry reads as a rational, but over a common denominator
        # about 2^39 the items have an even total and need a table
        with pytest.raises(InstanceTooLarge, match="budget"):
            decide_diag_to_half_identity(Correlation(np.diag(EVEN_TOTAL_DIAG)))

    def test_float_diag_odd_total_decided(self):
        # the same kind of seed with an odd total needs no table
        assert decide_diag_to_half_identity(Correlation(np.diag(ODD_TOTAL_DIAG))) == \
            OracleResult(False, ())

    @pytest.mark.parametrize("diag", [
        np.random.default_rng(5).dirichlet(np.ones(3)),
        np.random.default_rng(8).dirichlet(np.ones(3)),
        [(2 ** 28 + 1) / 2 ** 29, (2 ** 28 - 1) / 2 ** 29],
        [0.3 + 2e-15, 0.7 - 2e-15],
    ], ids=["dirichlet-5", "dirichlet-8", "denominator-2^29", "off-by-ulps"])
    def test_float_diag_not_rational(self, diag):
        # no entry within a few ulps of a rational with denominator <= 2^20
        assert decide_diag_to_half_identity(Correlation(np.diag(diag))) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=12))
    def test_float_path_agrees_with_oracle(self, items):
        # the built seed holds floats a/total, read back as exact rationals
        inst = SubsetSumInstance(items)
        res = decide_diag_to_half_identity(build_classical_hardness_instance(inst).seed)
        assert res is not None
        assert res.satisfiable == subset_sum_oracle(inst).satisfiable
        if res.satisfiable:
            assert 2 * sum(items[i] for i in res.witness) == sum(items)

    def test_search_agrees_with_oracle(self, rng):
        # small-scale cross-check of the heuristic search against the
        # exact decision on diagonal-to-half-identity instances
        for diag in ([0.25, 0.25, 0.5], [0.1, 0.2, 0.3, 0.4], [0.4, 0.6],
                     [0.15, 0.35, 0.5], [0.05, 0.15, 0.35, 0.45]):
            seed = Correlation(np.diag(diag))
            exact = decide_diag_to_half_identity(seed).satisfiable
            res = classical_feasible_search(
                seed, HALF_ID, SolveSettings(restarts=8, max_outer_iters=80))
            if exact:
                assert res.residual <= 1e-6, diag
            else:
                assert res.residual > 1e-6, diag
