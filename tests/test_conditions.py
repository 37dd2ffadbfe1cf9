from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from corrgen import (
    Correlation,
    DiagonalPsdFactorization,
    NOT_RULED_OUT,
    RULED_OUT,
    SchmidtSpectrum,
    check_all,
    check_fidelity_sum,
    check_holevo,
    check_min_schmidt,
    check_renyi,
    check_v2,
    classical_fidelity,
    v2_classical,
    verify,
)
from corrgen.conditions import LOG_ROUNDING, SLACK, SpectrumError, mutual_information_baseline
from corrgen.correlation import MASS_TOL, UNIT_SUM_TOL, CorrelationError

from conftest import random_correlation

BELL = SchmidtSpectrum([0.5, 0.5])
DIAG37 = Correlation([[0.3, 0.0], [0.0, 0.7]])
EX2 = Correlation(np.array([[1, 4], [4, 0]]) / 9)
EX3 = Correlation(np.array([[2, 6], [3, 0]]) / 11)
EX5 = Correlation(np.array([[4, 1, 1], [1, 1, 0], [1, 0, 1]]) / 10)
ALG = Correlation(np.array([[1, 1], [1, 0]]) / 3)
PRODUCT = Correlation(np.outer([0.4, 0.6], [0.3, 0.7]))

#: relative departures e of a total, 0 < |e| ≤ 0.9·UNIT_SUM_TOL, each read as 1
READ_AS_ONE = st.floats(-0.9 * UNIT_SUM_TOL, 0.9 * UNIT_SUM_TOL).filter(bool)


class TestSpectrum:
    def test_sorts_descending(self):
        s = SchmidtSpectrum([0.1, 0.9])
        np.testing.assert_allclose(s.lambdas, [0.9, 0.1])

    @pytest.mark.parametrize("bad", [[0.5, 0.6], [1.0, 0.0], [-0.5, 1.5], [],
                                     [float("nan"), 0.5], [float("nan")], [float("inf"), 0.5],
                                     [1e308, 1e308]])
    def test_rejects_invalid(self, bad):
        with pytest.raises(SpectrumError):
            SchmidtSpectrum(bad)

    def test_sqrt_accessor(self):
        np.testing.assert_allclose(SchmidtSpectrum([0.64, 0.36]).sqrt_lambdas(), [0.8, 0.6])

    @example(seed=0, k=2, e=9e-10)
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6), e=READ_AS_ONE)
    def test_total_read_as_one_sums_to_one(self, seed, k, e):
        # a total within UNIT_SUM_TOL of 1 is read as 1, so the λ kept sum to 1
        lam = np.random.default_rng(seed).dirichlet(np.ones(k)) * (1 + e)
        total = SchmidtSpectrum(lam).lambdas.sum()
        assert abs(total - 1.0) <= MASS_TOL + 4 * k * np.finfo(float).eps

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6),
           e=st.floats(-MASS_TOL / 2, MASS_TOL / 2))
    def test_total_within_mass_tol_keeps_its_bits(self, seed, k, e):
        lam = np.random.default_rng(seed).dirichlet(np.ones(k)) * (1 + e)
        np.testing.assert_array_equal(SchmidtSpectrum(lam).lambdas, np.sort(lam)[::-1])


# finite Rényi orders: [1/2, 1) ∪ (1, 50]
ORDERS = st.one_of(st.floats(0.5, 1.0, exclude_max=True), st.floats(1.0, 50.0, exclude_min=True))


def _direct_renyi(lam, P, alpha):
    """Reference for the log-space pass: one finite order in the direct form,
    (Σλ^{2/α−1})^α against Σ P^α (PₓP_y)^{1−α}, compared on the linear scale
    with the battery's slack, SLACK·max(1, lhs, rhs), and its log sides'
    rounding, a factor 2^(α·LOG_ROUNDING)."""
    M = P.matrix
    mask = M > 0
    cells, prod = M[mask], np.outer(M.sum(axis=1), M.sum(axis=0))[mask]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lhs = float(np.sum(lam ** (2.0 / alpha - 1.0)) ** alpha)
        rhs = float(np.sum(cells ** alpha / prod ** (alpha - 1.0)))
    slack = SLACK * max(1.0, lhs, rhs)
    rounding = 2.0 ** (alpha * LOG_ROUNDING)
    satisfied = (lhs <= (rhs + slack) * rounding if alpha < 1.0
                 else rhs <= (lhs + slack) * rounding)
    return lhs, rhs, satisfied


class TestRenyi:
    def test_example1_alpha_inf(self):
        (rec,) = check_renyi(BELL, DIAG37, alphas=[float("inf")])
        assert rec.lhs == pytest.approx(4.0)
        assert rec.rhs == pytest.approx(1 / 0.3)
        assert rec.satisfied

    def test_product_target_always_passes(self):
        for alpha in (0.5, 0.75, 2.0, 3.0, float("inf")):
            for spec in (BELL, SchmidtSpectrum([0.9, 0.1]), SchmidtSpectrum([1.0])):
                (rec,) = check_renyi(spec, PRODUCT, alphas=[alpha])
                assert rec.satisfied, (alpha, spec)

    def test_rank_one_seed_vs_correlated_target(self):
        (rec,) = check_renyi(SchmidtSpectrum([1.0]), Correlation([[0.5, 0], [0, 0.5]]),
                             alphas=[2.0])
        assert rec.lhs == pytest.approx(1.0)
        assert rec.rhs == pytest.approx(2.0)
        assert not rec.satisfied

    # at alpha = 1e308 even the log of each side overflows, and a NaN side
    # would read as a violation; a string, bytes, bool or list order is refused
    # as float_array refuses one, also inside a numpy array, though float() would
    # read "2", b"2" and True (the bools pin this: read as orders 1 and 0 they
    # fall outside the family too)
    @pytest.mark.parametrize("alpha", [1.0, 0.3, 0.0, -2.0, float("nan"), float("-inf"), 1e308,
                                       "2", "0.5", "inf", True, np.True_, np.str_("0.75"), [2.0],
                                       pytest.param(b"2", id="bytes"),
                                       pytest.param(np.bytes_(b"2"), id="numpy-bytes"),
                                       pytest.param(np.array("2"), id="array-str"),
                                       pytest.param(np.array(b"2"), id="array-bytes"),
                                       pytest.param(np.array(True), id="array-bool")])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(SpectrumError):
            check_renyi(BELL, DIAG37, alphas=[alpha])

    def test_side_beyond_float_range_compared_by_its_log(self):
        # ½I₂ at alpha = 1000: lhs = 2^1998 and rhs = 2^999
        (rec,) = check_renyi(BELL, Correlation([[0.5, 0], [0, 0.5]]), alphas=[1000.0])
        assert rec.lhs == float("inf")
        assert rec.rhs == pytest.approx(2.0 ** 999, rel=1e-12)
        assert rec.satisfied

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), m=st.integers(1, 6),
           k=st.integers(1, 5), zero_cells=st.booleans(), alphas=st.lists(ORDERS, min_size=1,
                                                                         max_size=6))
    def test_log_form_matches_direct_form(self, seed, n, m, k, zero_cells, alphas):
        rng = np.random.default_rng(seed)
        M = rng.dirichlet(np.ones(n * m)).reshape(n, m)
        if zero_cells:
            M[rng.random((n, m)) < 0.3] = 0.0
        lam = rng.dirichlet(np.ones(k))
        assume(M.sum() > 0 and lam.min() > 0)
        P = Correlation(M)
        spec = SchmidtSpectrum(lam)
        for rec, alpha in zip(check_renyi(spec, P, alphas), alphas):
            lhs, rhs, satisfied = _direct_renyi(spec.lambdas, P, alpha)
            if np.isfinite(lhs) and np.isfinite(rhs):
                assert rec.satisfied == satisfied, (alpha, rec, lhs, rhs)
                assert rec.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
                assert rec.rhs == pytest.approx(rhs, rel=1e-12, abs=0)


class TestMinSchmidt:
    def test_example1(self):
        rec = check_min_schmidt(BELL, DIAG37)
        assert rec.rhs == pytest.approx(0.3, abs=1e-12)
        assert not rec.satisfied

    def test_example5(self):
        rec = check_min_schmidt(BELL, EX5)
        assert rec.rhs == pytest.approx(0.4, abs=1e-12)
        assert not rec.satisfied

    def test_example2_passes(self):
        assert check_min_schmidt(SchmidtSpectrum([8 / 9, 1 / 9]), EX2).satisfied


class TestHolevo:
    def test_example2_violated(self):
        rec = check_holevo(SchmidtSpectrum([8 / 9, 1 / 9]), EX2)
        assert rec.lhs == pytest.approx(0.59, abs=0.005)
        assert rec.rhs == pytest.approx(0.5033, abs=5e-4)
        assert not rec.satisfied

    def test_bell_perfect_bit_boundary(self):
        rec = check_holevo(BELL, Correlation([[0.5, 0], [0, 0.5]]))
        assert rec.lhs == pytest.approx(1.0)
        assert rec.rhs == pytest.approx(1.0)
        assert rec.satisfied

    def test_rank_one_seed(self):
        rec = check_holevo(SchmidtSpectrum([1.0]), EX2)
        assert rec.rhs == 0.0
        assert not rec.satisfied


class TestV2:
    def test_example3_value(self):
        assert 1 - v2_classical(EX3) ** 2 / 2 == pytest.approx(0.7769, abs=5e-4)

    def test_product_zero(self):
        assert v2_classical(PRODUCT) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_bit(self):
        assert v2_classical(Correlation([[0.5, 0], [0, 0.5]])) == pytest.approx(1.0)

    def test_example3_violated(self):
        rec = check_v2(SchmidtSpectrum([0.9, 0.1]), EX3)
        assert rec.lhs == pytest.approx(0.82, abs=1e-12)
        assert not rec.satisfied

    def test_example4_passes(self):
        rec = check_v2(SchmidtSpectrum([21 / 25, 4 / 25]), EX3)
        assert rec.lhs == pytest.approx(457 / 625, abs=1e-12)
        assert rec.satisfied

    def test_rank_one_product_boundary(self):
        assert check_v2(SchmidtSpectrum([1.0]), PRODUCT).satisfied


class TestFidelitySum:
    def test_example4_violated(self):
        rec = check_fidelity_sum(SchmidtSpectrum([21 / 25, 4 / 25]), EX3)
        assert rec.lhs == pytest.approx(85 / 121, abs=1e-9)
        assert rec.rhs == pytest.approx(457 / 625, abs=1e-12)
        assert not rec.satisfied

    def test_example5_passes(self):
        rec = check_fidelity_sum(BELL, EX5)
        assert rec.lhs == pytest.approx(0.82, abs=1e-9)
        assert rec.satisfied

    def test_perfect_bit_boundary(self):
        rec = check_fidelity_sum(BELL, Correlation([[0.5, 0], [0, 0.5]]))
        assert rec.lhs == pytest.approx(0.5)
        assert rec.rhs == pytest.approx(0.5)
        assert rec.satisfied

    @pytest.mark.parametrize("n, m", [(40, 3), (3, 40)], ids=["tall", "wide"])
    def test_gram_matches_pairwise_loop(self, rng, n, m):
        # a tall target takes the Gram of its columns, a wide one that of its rows
        P = random_correlation(rng, n, m)
        expected = 0.0
        for a in P.matrix:
            for b in P.matrix:
                expected += classical_fidelity(a, b) ** 2
        assert check_fidelity_sum(BELL, P).lhs == pytest.approx(expected, rel=1e-14, abs=0)


class TestCheckAll:
    def test_example1_ruled_out_by_min_schmidt(self):
        report = check_all(BELL, DIAG37)
        assert report.verdict == RULED_OUT
        assert not report.record("min_schmidt").satisfied
        assert report.record("holevo").satisfied
        for rec in report.records:
            if rec.name == "renyi":
                assert rec.satisfied

    def test_algorithm_example_not_ruled_out(self):
        assert check_all(SchmidtSpectrum([0.8, 0.2]), ALG).verdict == NOT_RULED_OUT

    def test_product_not_ruled_out(self):
        assert check_all(SchmidtSpectrum([1.0]), PRODUCT).verdict == NOT_RULED_OUT

    def test_report_json_shape(self):
        data = check_all(BELL, DIAG37).to_json_dict()
        assert data["verdict"] == RULED_OUT
        assert {"name", "lhs", "rhs", "satisfied"} <= set(data["conditions"][0])
        inf_records = [c for c in data["conditions"] if c.get("alpha") == "inf"]
        assert len(inf_records) == 1

    @pytest.mark.parametrize("tiny", [1e-200, 2e-311])
    def test_cells_below_normal_range_rejected(self, tiny):
        # P(x)P(y) = 1e-400 rounds to 0, and a subnormal cell overflows P(x)P(y)/P(x,y):
        # the checks' ratios would turn inf or NaN
        with pytest.raises(CorrelationError, match="normal float range"):
            check_all(BELL, Correlation([[1.0, 0.0], [0.0, tiny]]))


class TestImplications:
    def test_alpha_inf_weaker_than_min_schmidt(self, rng):
        for _ in range(200):
            n, m, r = rng.integers(2, 5), rng.integers(2, 5), rng.integers(1, 5)
            P = random_correlation(rng, n, m)
            lam = rng.dirichlet(np.ones(r))
            if lam.min() <= 1e-9:
                continue
            spec = SchmidtSpectrum(lam)
            if check_min_schmidt(spec, P).satisfied:
                (rec,) = check_renyi(spec, P, alphas=[float("inf")])
                assert rec.satisfied

    def test_holevo_implies_doubled_baseline(self, rng):
        for _ in range(200):
            P = random_correlation(rng, 3, 3)
            lam = rng.dirichlet(np.ones(3))
            if lam.min() <= 1e-9:
                continue
            spec = SchmidtSpectrum(lam)
            if check_holevo(spec, P).satisfied:
                assert mutual_information_baseline(spec, P).satisfied

    def test_product_targets_pass_everything(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            P = Correlation(np.outer(p, q))
            lam = rng.dirichlet(np.ones(rng.integers(1, 4)))
            if lam.min() <= 1e-9:
                continue
            assert check_all(SchmidtSpectrum(lam), P).verdict == NOT_RULED_OUT

    def test_min_schmidt_permutation_invariant(self, rng):
        P = random_correlation(rng, 3, 4)
        perm = Correlation(P.matrix[rng.permutation(3)][:, rng.permutation(4)])
        a = check_min_schmidt(BELL, P)
        b = check_min_schmidt(BELL, perm)
        assert a.rhs == pytest.approx(b.rhs, abs=1e-14)


class TestCheckAllAgreesWithStandaloneChecks:
    """check_all's checks share the tables that cell_tables caches for the
    last target; each standalone check below gets a fresh Correlation, so it
    derives its own."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), m=st.integers(1, 6),
           k=st.integers(1, 5), zero_cells=st.booleans(), zero_row=st.booleans(),
           zero_column=st.booleans())
    def test_records_equal(self, seed, n, m, k, zero_cells, zero_row, zero_column):
        rng = np.random.default_rng(seed)
        M = rng.dirichlet(np.ones(n * m)).reshape(n, m)
        if zero_cells:
            M[rng.random((n, m)) < 0.3] = 0.0
        if zero_row:
            M[rng.integers(n)] = 0.0
        if zero_column:
            M[:, rng.integers(m)] = 0.0
        lam = rng.dirichlet(np.ones(k))
        assume(M.sum() > 0 and lam.min() > 0)
        P = Correlation(M)
        spec = SchmidtSpectrum(lam)

        def fresh():
            return Correlation(P.matrix)

        expected = [check_min_schmidt(spec, fresh()), check_holevo(spec, fresh()),
                    mutual_information_baseline(spec, fresh()), check_v2(spec, fresh()),
                    check_fidelity_sum(spec, fresh()), *check_renyi(spec, fresh())]
        check_all(spec, EX5)   # the cached tables belong to another target
        records = check_all(spec, P).records
        # dataclass equality: == on every float, bool and name
        assert list(records) == expected

        # ‖G‖²_F in exact arithmetic on the float entries of √P.  In floats,
        # each Gram entry is a dot product of l = max(n, m) nonnegative terms
        # (relative error γ_l), squared (γ_2l, then one more rounding) and
        # summed with the other s = min(n, m)² squares (s − 1 more), so the
        # lhs is within γ_j·‖G‖²_F of this, j = 2l + s, γ_j = j·u/(1 − j·u)
        # with u = 2⁻⁵³ (Higham, Accuracy and Stability of Numerical
        # Algorithms, ch. 3); 5.3e-15 for 6×6
        R = [[Fraction(v) for v in row] for row in np.sqrt(P.matrix).tolist()]
        exact = sum(sum(x * y for x, y in zip(a, b)) ** 2 for a in R for b in R)
        j = 2 * max(n, m) + min(n, m) ** 2
        gamma = Fraction(j, 2 ** 53 - j)
        assert abs(Fraction(records[4].lhs) - exact) <= gamma * exact


def _povm(rng, count, k, partition):
    """PSD blocks A_x with ΣA_x = I: a random Stiefel split or, with
    ``partition``, coordinate projectors that leave zero cells and rows."""
    if partition:
        owner = rng.integers(count, size=k)
        return np.stack([np.diag((owner == x).astype(float)) for x in range(count)])
    q, _ = np.linalg.qr(rng.standard_normal((count * k, k)))
    Z = q.reshape(count, k, k)
    return Z.transpose(0, 2, 1) @ Z


def _verified_pair(seed, n, m, k, zero, split_x, split_y):
    """(spectrum, target) of a diagonal-form factorization built from POVMs, verified."""
    rng = np.random.default_rng(seed)
    lam_sq = rng.dirichlet(np.ones(k))
    if zero and k > 1:
        lam_sq[rng.integers(k)] = 0.0
        lam_sq /= lam_sq.sum()
    # C_x = S A_x S with S = Λ^{1/2} sums to Λ = diag(√λ); likewise D_y
    s = lam_sq ** 0.25
    C = s[:, None] * _povm(rng, n, k, split_x) * s
    D = s[:, None] * _povm(rng, m, k, split_y) * s
    F = DiagonalPsdFactorization(C, D, np.sqrt(lam_sq))
    # PSD factors give nonnegative cells; clip rounding below zero
    P = Correlation(np.maximum(F.trace_table(), 0.0))
    assert verify(P, F, tol=1e-12).ok
    return SchmidtSpectrum(lam_sq[lam_sq > 0]), P


@st.composite
def relabelled_schmidt_outcomes(draw):
    """(λ, f, g): r = 2–6 squared Schmidt coefficients with entries 10^U(−150, 0),
    normalized, and local relabellings f: [r] → [n], g: [r] → [m], n, m ≤ r."""
    r = draw(st.integers(2, 6))
    lam = 10.0 ** np.array(draw(st.lists(st.floats(-150, 0), min_size=r, max_size=r)))
    n, m = draw(st.integers(1, r)), draw(st.integers(1, r))
    f = draw(st.lists(st.integers(0, n - 1), min_size=r, max_size=r))
    g = draw(st.lists(st.integers(0, m - 1), min_size=r, max_size=r))
    return (lam / lam.sum()).tolist(), f, g


#: finite Rényi orders 10^U(log₁₀ ½, 15), the order 1 left out
LARGE_ORDERS = st.floats(-0.3, 15.0).map(lambda e: 10.0 ** e).filter(lambda a: a != 1.0)


@st.composite
def product_targets(draw):
    """P(x)P(y) for random marginals of 1–4 labels each, as nested lists."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return np.outer(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))).tolist()


def _complex_witness_pair(seed, n, m, k):
    """(spectrum, target) of complex Hermitian factors C_x = V_xᴴV_x, D_y = W_yᴴW_y.

    The blocks V_x stack to the Q of a complex QR with its columns scaled
    by λ^¼, so ΣC_x = diag(√λ), likewise for D_y, and P(x, y) = Re tr(C_x D_y).
    """
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(k))

    def family(count):
        q, _ = np.linalg.qr(rng.standard_normal((count * k, k))
                            + 1j * rng.standard_normal((count * k, k)))
        V = (q * lam ** 0.25).reshape(count, k, k)
        return np.conj(np.swapaxes(V, 1, 2)) @ V

    T = np.einsum("xab,yba->xy", family(n), family(m)).real
    # PSD factors give nonnegative cells; clip rounding below zero
    return SchmidtSpectrum(lam), Correlation(np.maximum(T, 0.0))


class TestSoundnessProperty:
    def test_schmidt_basis_outcome_with_a_tiny_coefficient_is_not_ruled_out(self):
        # measuring both halves in the Schmidt basis generates diag(λ) from λ;
        # the α = ∞ record compares Σ1/λ = 9.999999999999999e17 with
        # max P/PₓP_y = 1e18, one ulp (128) apart
        lam = [1.0, 1e-18]
        assert check_all(SchmidtSpectrum(lam), Correlation(np.diag(lam))).verdict == NOT_RULED_OUT

    # measuring both halves in the Schmidt basis, then relabelling each outcome
    # by a local map, generates P(x, y) = Σ λᵢ over f(i) = x, g(i) = y; an
    # absolute slack ruled out 103 of 20,000 such pairs, by rounding alone, on
    # the α = ∞ and α = 3 records; the test above pins diag(1, 1e-18), and the
    # two pairs here failed on α = 3 and on both
    @example(case=([1.61515324452453e-128, 5.4709713583130036e-76, 9.878161854356784e-13,
                    9.986176910510147e-10, 0.9999999990003945], [0, 3, 2, 1, 2], [2, 1, 1, 0, 0]))
    @example(case=([4.165457148666411e-115, 1.0], [1, 0], [1, 0]))
    @settings(max_examples=200, deadline=None)
    @given(case=relabelled_schmidt_outcomes())
    def test_relabelled_schmidt_basis_outcome_is_not_ruled_out(self, case):
        lam, f, g = case
        P = np.zeros((max(f) + 1, max(g) + 1))
        np.add.at(P, (f, g), lam)
        report = check_all(SchmidtSpectrum(lam), Correlation(P))
        failed = [(r.name, r.alpha, r.lhs, r.rhs) for r in report.records if not r.satisfied]
        assert report.verdict == NOT_RULED_OUT, failed

    # measuring in the Schmidt basis generates diag(λ) from any λ the reader
    # accepts; a spectrum whose total was read as 1 but kept as given was
    # judged at its own total, which the battery's slack cannot absorb near
    # UNIT_SUM_TOL: 959 of 2,000 Dirichlet draws with |e| ≤ 9e-10 were ruled out
    @example(seed=0, k=2, e=9e-10)
    @example(seed=0, k=1, e=9e-10)
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4), e=READ_AS_ONE)
    def test_spectrum_read_as_unit_sum_is_not_ruled_out(self, seed, k, e):
        lam = np.random.default_rng(seed).dirichlet(np.ones(k))
        report = check_all(SchmidtSpectrum(lam * (1 + e)), Correlation(np.diag(lam)))
        failed = [(r.name, r.alpha, r.lhs, r.rhs) for r in report.records if not r.satisfied]
        assert report.verdict == NOT_RULED_OUT, failed

    # a rank-1 seed generates every product target with no entanglement; the
    # log sides' rounding at α = 10⁶ once outgrew the slack and ruled out over
    # a quarter of random products, this row among them
    @example(target=[[0.2881424159868753, 0.2209983841731505, 0.373111610922007,
                      0.11774758891796701]], alpha=1e6)
    @settings(max_examples=200, deadline=None)
    @given(target=product_targets(), alpha=LARGE_ORDERS)
    def test_rank_one_seed_never_rules_out_a_product_target(self, target, alpha):
        report = check_all(SchmidtSpectrum([1.0]), Correlation(target), [alpha])
        failed = [(r.name, r.alpha, r.lhs, r.rhs) for r in report.records if not r.satisfied]
        assert report.verdict == NOT_RULED_OUT, failed

    # the paper's model has complex Hermitian factors, which reach targets of
    # rank above k(k+1)/2, beyond every real one; the pinned k = 2 target on
    # 4×4 labels has rank 4 (its smallest singular value is 5.3e-3)
    @example(seed=0, n=4, m=4, k=2)
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), m=st.integers(1, 6),
           k=st.integers(1, 6))
    def test_never_rules_out_a_complex_witness(self, seed, n, m, k):
        report = check_all(*_complex_witness_pair(seed, n, m, k))
        failed = [(r.name, r.alpha, r.lhs, r.rhs) for r in report.records if not r.satisfied]
        assert report.verdict == NOT_RULED_OUT, failed

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), m=st.integers(1, 4),
           k=st.integers(1, 4), zero=st.booleans(), split_x=st.booleans(),
           split_y=st.booleans())
    def test_never_rules_out_a_verified_factorization(self, seed, n, m, k, zero,
                                                      split_x, split_y):
        report = check_all(*_verified_pair(seed, n, m, k, zero, split_x, split_y))
        failed = [(r.name, r.alpha, r.lhs, r.rhs) for r in report.records if not r.satisfied]
        assert report.verdict == NOT_RULED_OUT, failed

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), m=st.integers(1, 6),
           k=st.integers(1, 5), zero=st.booleans(), split_x=st.booleans(),
           split_y=st.booleans(), alphas=st.lists(ORDERS, min_size=1, max_size=6))
    def test_no_renyi_order_rules_out_a_verified_factorization(self, seed, n, m, k, zero,
                                                               split_x, split_y, alphas):
        records = check_renyi(*_verified_pair(seed, n, m, k, zero, split_x, split_y), alphas)
        assert all(r.satisfied for r in records), [r for r in records if not r.satisfied]
