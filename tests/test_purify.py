import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from corrgen import (
    Correlation,
    DiagonalPsdFactorization,
    FactorizationError,
    NOT_RULED_OUT,
    PureStateMatrix,
    PurificationBundle,
    PurificationError,
    RULED_OUT,
    SolveSettings,
    canonical_purification,
    cnot_purification,
    factorization_to_purification,
    mixed_seed_check,
    purification_to_factorization,
    sample_protocol,
    schmidt_spectrum,
    verify,
)

from conftest import ALG, random_verified_factorization


class TestPureStateMatrix:
    def test_rejects_unnormalized(self):
        with pytest.raises(PurificationError):
            PureStateMatrix([[1.0, 1.0]])

    def test_renormalizes_tiny_drift(self):
        s = PureStateMatrix([[np.sqrt(0.5) * (1 + 1e-10), np.sqrt(0.5)]])
        assert np.sum(s.amplitudes ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(PurificationError):
            PureStateMatrix([[0.0, 0.0]])


class TestSchmidtSpectrum:
    def test_bell(self):
        s = PureStateMatrix(np.diag([np.sqrt(0.5), np.sqrt(0.5)]))
        np.testing.assert_allclose(schmidt_spectrum(s).lambdas, [0.5, 0.5])

    def test_diag_state(self):
        s = PureStateMatrix(np.diag([np.sqrt(0.1), np.sqrt(0.9)]))
        np.testing.assert_allclose(schmidt_spectrum(s).lambdas, [0.9, 0.1])

    def test_permuted_diagonal_reads_its_entries(self):
        # one nonzero per row and column: the singular values are the entries
        # in absolute value, exactly, and none is cut however small
        amp = np.zeros((3, 4))
        amp[0, 2], amp[2, 0] = -1.0, 1e-20
        assert schmidt_spectrum(PureStateMatrix(amp)).lambdas.tolist() == [1.0, 1e-20 ** 2]

    def test_product_state_rank_one(self):
        s = PureStateMatrix(np.outer([0.6, 0.8], [0.6, 0.8]))
        np.testing.assert_allclose(schmidt_spectrum(s).lambdas, [1.0])

    def test_rotation_invariance(self, rng):
        amp = rng.standard_normal((3, 3))
        amp /= np.linalg.norm(amp)
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th), 0],
                      [np.sin(th), np.cos(th), 0], [0, 0, 1]])
        a = schmidt_spectrum(PureStateMatrix(amp)).lambdas
        b = schmidt_spectrum(PureStateMatrix(R @ amp)).lambdas
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestNamedPurifications:
    def test_canonical_amplitudes(self):
        amp = canonical_purification(ALG).amplitudes
        np.testing.assert_allclose(amp, np.sqrt(ALG.matrix))

    def test_canonical_spectrum_alg(self):
        lam = schmidt_spectrum(canonical_purification(ALG)).lambdas
        np.testing.assert_allclose(lam, [0.87267799, 0.12732201], atol=1e-6)

    def test_canonical_diag(self):
        P = Correlation([[0.3, 0.0], [0.0, 0.7]])
        lam = schmidt_spectrum(canonical_purification(P)).lambdas
        np.testing.assert_allclose(lam, [0.7, 0.3], atol=1e-12)

    def test_cnot_spectrum_alg(self):
        lam = schmidt_spectrum(cnot_purification(ALG)).lambdas
        np.testing.assert_allclose(lam, [2 / 3, 1 / 3], atol=1e-10)

    def test_cnot_preserves_cells(self):
        amp = cnot_purification(ALG).amplitudes
        cells = (amp ** 2).reshape(2, 2, 2, 2).sum(axis=(1, 3))
        np.testing.assert_allclose(cells, ALG.matrix, atol=1e-12)

    def test_cnot_rejects_non_2x2(self):
        with pytest.raises(PurificationError):
            cnot_purification(Correlation(np.full((2, 3), 1 / 6)))


class TestBridge:
    def test_round_trip_random(self, rng):
        for _ in range(5):
            F, P = random_verified_factorization(rng, 2, 3, 2)
            G = purification_to_factorization(factorization_to_purification(F))
            np.testing.assert_allclose(G.trace_table(), P.matrix, atol=1e-9)
            np.testing.assert_allclose(G.lam, F.lam, atol=1e-9)

    def test_batched_roots_match_per_matrix_loop(self, rng):
        def root(mat):
            vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
            return vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.T

        for n, m, k in ((1, 1, 1), (2, 3, 2), (4, 1, 3), (3, 5, 4), (5, 2, 1)):
            F, _ = random_verified_factorization(rng, n, m, k)
            bundle = factorization_to_purification(F)
            for x in range(n):
                for i in range(k):  # v_x^i is the i-th column of the root of C_xᵀ
                    np.testing.assert_allclose(bundle.v[x, i], root(F.C[x].T)[:, i],
                                               rtol=0, atol=1e-14)
            for y in range(m):
                for i in range(k):
                    np.testing.assert_allclose(bundle.w[y, i], root(F.D[y])[:, i],
                                               rtol=0, atol=1e-14)
        # eigenvalue -0.1: `validate` refuses it by the τ rule before any root is taken
        C = np.array([[[0.5, 0.6], [0.6, 0.5]]])
        with pytest.raises(FactorizationError, match="not PSD"):
            factorization_to_purification(DiagonalPsdFactorization(C, C, [1.0, 1.0]))

    def test_bridges_a_witness_verify_accepts(self):
        # ½I₂'s Schmidt-basis witness with one entry moved to −5e-7 passes `verify`, and
        # the roots refused it for its eigenvalue below −1e-10
        s = np.sqrt(0.5)
        D = s * np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        C = D.copy()
        C[0, 1, 1] = -5e-7
        F = DiagonalPsdFactorization(C, D, [s, s])
        assert verify(Correlation(np.eye(2) / 2), F).ok
        G = purification_to_factorization(factorization_to_purification(F))
        np.testing.assert_allclose(G.C, D, rtol=0, atol=1e-15)

    def test_round_trip_beyond_half_the_float_range(self):
        # C + Cᵀ overflowed in the roots, so this witness, which `validate` accepts, was
        # refused as "vector family v entries must be finite"; halved first, it comes back
        C = np.array([np.diag([1e308, 1e308])])
        F = DiagonalPsdFactorization(C, C, [1e308, 1e308])
        G = purification_to_factorization(factorization_to_purification(F))
        np.testing.assert_array_equal(G.C, C)
        np.testing.assert_array_equal(G.D, C)

    # C₀ is PSD (det ≈ 2.9e-7), so no eigenvalue is clipped: the roots and their Gram
    # products round, and the Gram factor sum lands 1.0000000000000002e-6 off Λ
    @pytest.mark.xfail(strict=True, raises=FactorizationError,
                       reason="ROADMAP item 13: the bridge is not closed under τ at its boundary")
    def test_round_trip_keeps_a_witness_verify_accepts(self):
        s = np.sqrt(0.5)
        C = np.array([[[0.7071072758779563, 1e-06], [1e-06, 4.127343949177052e-07]],
                      np.diag([0.0, s])])
        D = s * np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        F = DiagonalPsdFactorization(C, D, [s, s])
        res = verify(Correlation(np.eye(2) / 2), F)
        assert res.ok and res.feasibility == 1e-6
        purification_to_factorization(factorization_to_purification(F))

    def test_induced_state_spectrum(self, rng):
        # the purification built from a factorization with factor sum
        # diag(sqrt(lambda)) has squared Schmidt coefficients lambda
        F, _ = random_verified_factorization(rng, 2, 2, 2)
        state = factorization_to_purification(F).induced_state()
        lam = schmidt_spectrum(state).lambdas
        np.testing.assert_allclose(lam, np.sort(F.squared_lambdas())[::-1], atol=1e-9)

    def test_traced_correlation(self, rng):
        # tracing out both ancillas recovers the source correlation: the traces of
        # the Gram factorization the way back builds
        F, P = random_verified_factorization(rng, 3, 2, 2)
        G = purification_to_factorization(factorization_to_purification(F))
        np.testing.assert_allclose(G.trace_table(), P.matrix, atol=1e-9)

    def test_validate_rejects_cross_terms(self, rng):
        # the way back judges the factorization it builds by `validate`: cross terms
        # of the vector families are factor sums off the diagonal of Λ
        v = rng.standard_normal((2, 2, 2))
        with pytest.raises(FactorizationError, match="sums equal to Lambda"):
            purification_to_factorization(PurificationBundle(v, v))

    def test_gram_structure(self, rng):
        # Σ_x ⟨v_x^j|v_x^i⟩ = δ_ij √λ_i, and likewise for w: the factor sums of the
        # Gram factorization
        F, _ = random_verified_factorization(rng, 2, 2, 3)
        G = purification_to_factorization(factorization_to_purification(F))
        np.testing.assert_allclose(G.C.sum(0), np.diag(F.lam), atol=1e-9)
        np.testing.assert_allclose(G.D.sum(0), np.diag(F.lam), atol=1e-9)


class TestSampling:
    @pytest.fixture
    def fact(self, rng):
        F, P = random_verified_factorization(rng, 2, 2, 2)
        return F, P

    def test_deterministic(self, fact):
        F, _ = fact
        a = sample_protocol(F, 1000, 7)
        b = sample_protocol(F, 1000, 7)
        np.testing.assert_array_equal(a, b)

    def test_counts_sum(self, fact):
        F, _ = fact
        assert sample_protocol(F, 12345, 3).sum() == 12345

    def test_zero_samples(self, fact):
        F, _ = fact
        assert sample_protocol(F, 0, 3).sum() == 0

    @pytest.mark.parametrize("n_samples, rng_seed", [
        (-1, 0), (2 ** 63, 0), (10.5, 0), (True, 0), (5, -1), (5, 2.0), (5, True)],
        ids=["negative-count", "count-2^63", "float-count", "bool-count", "negative-seed",
             "float-seed", "bool-seed"])
    def test_rejects_bad_count_or_seed(self, fact, n_samples, rng_seed):
        # numpy raised its own ValueError for -1 samples or seed -1 and
        # OverflowError for 2^63 samples, and drew 10.5 samples as 10
        F, _ = fact
        with pytest.raises(FactorizationError, match="sample count|sampling seed"):
            sample_protocol(F, n_samples, rng_seed)

    def test_rejects_negative_cells(self):
        C = np.array([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]])
        D = np.array([[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.0], [0.0, 1.0]]])
        F = DiagonalPsdFactorization(C, D, [0.5, 0.5])
        with pytest.raises(FactorizationError):
            sample_protocol(F, 10, 0)

    # `simulate` and the bridge judge a witness by `verify`'s τ rule; C summing
    # 5e-7 off Λ passed `verify` at τ = 1e-6 and was refused by `simulate`
    # "within 1e-8", and by the bridge's Gram test at 1e-8
    @example(seed=0, schmidt=True, shift=5e-7)
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), schmidt=st.booleans(),
           shift=st.floats(-3e-6, 3e-6))
    def test_samples_what_verify_accepts(self, seed, schmidt, shift):
        rng = np.random.default_rng(seed)
        if schmidt:  # ½I₂ by the Schmidt basis: its zero cells go negative when moved
            C = np.sqrt(0.5) * np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
            F, P = DiagonalPsdFactorization(C, C, np.full(2, np.sqrt(0.5))), Correlation(np.eye(2) / 2)
        else:
            F, P = random_verified_factorization(rng, 2, 3, 2)
        E = rng.standard_normal((2, 2))
        C = F.C.copy()
        C[0] += shift * (E + E.T) / abs(E + E.T).max()  # the C sum moves |shift| off Λ
        moved = DiagonalPsdFactorization(C, F.D, F.lam)
        res = verify(P, moved)
        if res.ok:
            assert sample_protocol(moved, 100, 0).sum() == 100
            bundle = factorization_to_purification(moved)
            # the roots and their Gram products round, which can carry a factor sum within
            # τ of Λ past τ (test_round_trip_keeps_a_witness_verify_accepts, PSD factors),
            # so the round trip is asserted where the feasibility is within τ/2
            if res.feasibility <= SolveSettings.residual_tol / 2:
                purification_to_factorization(bundle)

    def test_tvd_shrinks(self, fact):
        F, P = fact
        tvds = []
        for n in (10 ** 3, 10 ** 4, 10 ** 6):
            counts = sample_protocol(F, n, 42)
            tvds.append(0.5 * np.sum(np.abs(counts / n - P.matrix)))
        assert tvds[2] < tvds[0]
        assert tvds[2] < 5e-3

    def test_chi_square_goodness(self, fact):
        F, P = fact
        n = 200_000
        counts = sample_protocol(F, n, 11).ravel()
        _, pvalue = stats.chisquare(counts, P.matrix.ravel() * n)
        assert pvalue > 1e-4


@st.composite
def classical_seeds(draw):
    """An n×n diagonal seed with entries 10^U(−150, 0), or an n×m dense one with 10^U(−25, 0).

    n, m ≤ 6.  A diagonal seed's spectrum is read from its entries, with no
    SVD cut, so its entries may lie far below the SVD's rounding level.
    """
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return np.diag(10.0 ** np.array(draw(st.lists(st.floats(-150, 0), min_size=n,
                                                      max_size=n))))
    m = draw(st.integers(1, 6))
    exps = draw(st.lists(st.floats(-25, 0), min_size=n * m, max_size=n * m))
    return (10.0 ** np.array(exps)).reshape(n, m)


class TestMixedSeedCheck:
    def test_seed_equals_target(self):
        assert mixed_seed_check(ALG, ALG).verdict == NOT_RULED_OUT

    # a seed generates itself; the small singular values of √P must count, and
    # an absolute 1e-12 cut on λ dropped this seed's 1e-13 entry
    @example(seed=np.diag([1 - 1e-13, 1e-13]))
    @settings(max_examples=200, deadline=None)
    @given(seed=classical_seeds())
    def test_classical_seed_generates_itself(self, seed):
        P = Correlation(seed)
        report = mixed_seed_check(P, P)
        failed = [(r.name, r.alpha, r.lhs, r.rhs) for r in report.records if not r.satisfied]
        assert report.verdict == NOT_RULED_OUT, failed

    # √e = √1e-29 lies below the SVD's rounding level 8·max(n, m)·ε·σ₁, and
    # the cut dropped it, so the seed's spectrum lost the entry its own target
    # keeps (min_schmidt, α = 2, 3 and ∞ failed); a diagonal √P's spectrum is
    # now read from its entries
    def test_classical_seed_below_the_svd_cut_generates_itself(self):
        P = Correlation(np.diag([1 - 1e-29, 1e-29]))
        assert mixed_seed_check(P, P).verdict == NOT_RULED_OUT

    # √P is no permuted diagonal, and its σ₂ ≈ 2.2e-15 lies below the SVD's
    # rounding level 8·max(n, m)·ε·σ₁, so the cut drops it: min_schmidt and
    # α = ∞ fail for the first seed, and α = 2 and 3 as well for the second
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 15: a σ below the SVD cut is dropped,"
                                           " not judged over its error band")
    @pytest.mark.parametrize("seed", [[[0.5, 0.5], [0.0, 1e-29]], [[1.0, 1e-300], [0.0, 1e-29]]],
                             ids=["half-row", "tiny-corner"])
    def test_dense_seed_below_the_svd_cut_generates_itself(self, seed):
        P = Correlation(seed)
        assert mixed_seed_check(P, P).verdict == NOT_RULED_OUT

    def test_product_seed_vs_correlated_target(self):
        seed = Correlation(np.outer([0.5, 0.5], [0.5, 0.5]))
        target = Correlation([[0.5, 0.0], [0.0, 0.5]])
        assert mixed_seed_check(target, seed).verdict == RULED_OUT

    def test_diag_seed_supplies_bell_spectrum(self):
        seed = Correlation([[0.5, 0.0], [0.0, 0.5]])
        target = Correlation([[0.3, 0.0], [0.0, 0.7]])
        report = mixed_seed_check(target, seed)
        # canonical purification of the fair diagonal seed is a Bell pair,
        # which min-Schmidt rules out against the biased diagonal
        assert report.verdict == RULED_OUT
        assert not report.record("min_schmidt").satisfied
