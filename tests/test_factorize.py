import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from corrgen import (
    Correlation,
    CorrelationError,
    DiagonalPsdFactorization,
    FactorizationError,
    SolveSettings,
    alternate,
    lambda_candidates_from_purifications,
    verify,
)
from corrgen import factorize
from corrgen.factorize import (
    MAX_JACOBIAN_ENTRIES,
    _evaluate,
    _jacobian,
    _levenberg_marquardt,
    _random_stiefel,
    _residual_rows,
    _retract,
    _simple_roots,
    _step_retract,
)

from conftest import (
    ALG,
    ALG_LAM,
    GIVEUP_LAM,
    GIVEUP_P,
    random_verified_factorization,
    zero_cell_family,
)

# Reference hand-checked solution for ALG with factor sum diag(1/sqrt5, 2/sqrt5).
REF_C = np.array([
    [[0.26801401, 0.22523125], [0.22523125, 0.61132503]],
    [[0.17919958, -0.22523125], [-0.22523125, 0.28310216]],
])
REF_D = np.array([
    [[0.12072403, -0.26145645], [-0.26145645, 0.68499394]],
    [[0.32648956, 0.26145646], [0.26145646, 0.20943325]],
])
REF_F = DiagonalPsdFactorization(REF_C, REF_D, ALG_LAM)


class TestDataclass:
    def test_squared_lambdas(self):
        np.testing.assert_allclose(REF_F.squared_lambdas(), [0.2, 0.8], atol=1e-12)

    def test_trace_table_close_to_target(self):
        assert np.max(np.abs(REF_F.trace_table() - ALG.matrix)) < 5e-5

    def test_validate_reference(self):
        REF_F.validate()

    def test_rejects_nondiagonal_lambda(self):
        # Lambda is the vector of sqrt-lambda entries: a matrix is refused,
        # diagonal or not
        for lam in ([[0.5, 0.1], [0.1, 0.5]], np.diag(ALG_LAM)):
            with pytest.raises(FactorizationError, match="vector"):
                DiagonalPsdFactorization(REF_C, REF_D, lam)
            with pytest.raises(FactorizationError, match="vector"):
                alternate(ALG, lam, 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(FactorizationError):
            DiagonalPsdFactorization(REF_C, REF_D, [0.5])
        # a stack of no factors has the shape (0, k, k) but sums to no Λ
        with pytest.raises(FactorizationError, match="non-empty"):
            DiagonalPsdFactorization(np.empty((0, 2, 2)), REF_D, ALG_LAM)

    @pytest.mark.parametrize("lam", [[np.nan, 0.5], [np.inf, 0.5],
                                     [[0.5, np.nan], [0.0, 0.5]]])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(FactorizationError, match="finite"):
            DiagonalPsdFactorization(REF_C, REF_D, lam)
        with pytest.raises(FactorizationError, match="finite"):
            alternate(ALG, lam, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_factors(self, bad):
        # a NaN on the diagonal of D = diag(1, NaN) used to pass validate()
        D = np.array([[[1.0, 0.0], [0.0, bad]]])
        with pytest.raises(FactorizationError, match="finite"):
            DiagonalPsdFactorization(D, np.eye(2)[None], [1.0, 1.0])
        with pytest.raises(FactorizationError, match="finite"):
            DiagonalPsdFactorization(np.eye(2)[None], D, [1.0, 1.0])

    def test_json_round_trip(self):
        F = DiagonalPsdFactorization.from_json_dict(REF_F.to_json_dict())
        np.testing.assert_allclose(F.C, REF_F.C)
        np.testing.assert_allclose(F.D, REF_F.D)
        np.testing.assert_allclose(F.lam, REF_F.lam)

    def test_json_missing_key(self):
        with pytest.raises(FactorizationError):
            DiagonalPsdFactorization.from_json_dict({"C": [], "D": []})

    def test_feasibility_error_reference(self):
        assert REF_F.feasibility_error() < 1e-7

    def test_max_negative_eigenvalue(self):
        bad = DiagonalPsdFactorization(
            np.array([[[0.5, 0.6], [0.6, 0.5]]]), REF_D[:1], ALG_LAM)
        assert bad.max_negative_eigenvalue() == pytest.approx(0.1, abs=1e-12)
        with pytest.raises(FactorizationError):
            bad.validate()


# a diagonal entry: 0 or ±10^e, e in [−100, 2]
_ENTRIES = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                             st.sampled_from([-1.0, 1.0]), st.floats(-100, 2)))


@st.composite
def factor_stacks(draw):
    """Stacks (C, D, Λ), each stack diagonal or dense; D is often C itself (``D is C``)."""
    k = draw(st.integers(1, 4))

    def stack():
        count = draw(st.integers(1, 4))
        if draw(st.booleans()):
            diag = draw(st.lists(_ENTRIES, min_size=count * k, max_size=count * k))
            return np.eye(k) * np.reshape(diag, (count, 1, k))
        return np.reshape(draw(st.lists(_ENTRIES, min_size=count * k * k, max_size=count * k * k)),
                          (count, k, k))

    C = stack()
    D = C if draw(st.booleans()) else stack()
    if draw(st.booleans()):  # sums met on the diagonal, so the eigenvalues can decide
        lam = np.abs(np.diagonal(C.sum(axis=0)))
    else:
        lam = np.array(draw(st.lists(st.floats(0, 10), min_size=k, max_size=k)))
    return C, D, lam


def _feasibility_reference(C, D, lam):
    """(max_negative_eigenvalue, feasibility_error) by eigvalsh of every factor of C and D."""
    neg = -float(np.linalg.eigvalsh(factorize._sym(np.concatenate((C, D))))[:, 0].min(initial=0.0))
    lam_diag = np.diag(lam)
    dev_c = abs(C.sum(axis=0) - lam_diag).max()
    dev_d = abs(D.sum(axis=0) - lam_diag).max()
    return neg, float(max(dev_c, dev_d, neg))


def _bits(values):
    return [np.float64(v).tobytes() for v in values]


class TestOneRead:
    # a shared stack is read once and a diagonal one has its entries for
    # eigenvalues; both must give the reference formula's bits
    @settings(max_examples=300, deadline=None)
    @given(stacks=factor_stacks())
    def test_feasibility_matches_reference(self, stacks):
        F = DiagonalPsdFactorization(*stacks)
        got = F.max_negative_eigenvalue(), F.feasibility_error()
        assert _bits(got) == _bits(_feasibility_reference(*stacks)), got

    def test_shared_stack_is_kept_once(self):
        C = np.array([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])
        F = DiagonalPsdFactorization(C, C, [0.5, 0.5])
        assert F.D is F.C

    def test_diagonal_stack_takes_no_eigendecomposition(self, monkeypatch):
        def refuse(_):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        C = np.array([np.diag([1.25, 0.0]), np.diag([-0.25, 1.0])])
        F = DiagonalPsdFactorization(C, np.full((2, 2, 2), 0.5) * np.eye(2), [1.0, 1.0])
        assert F.max_negative_eigenvalue() == 0.25
        with pytest.raises(AssertionError, match="eigvalsh"):
            DiagonalPsdFactorization(REF_C, REF_D, ALG_LAM).max_negative_eigenvalue()

    @pytest.mark.parametrize("lam, subset", [([0.4, 0.3, 0.2, 0.1], [0, 3]),
                                             ([0.5, 0.25, 0.25], [1, 2])])
    def test_shared_stack_verifies_as_two(self, lam, subset):
        from corrgen.classical import schmidt_basis_protocol
        from corrgen.conditions import SchmidtSpectrum

        C = schmidt_basis_protocol(SchmidtSpectrum(lam), subset).C
        sq = np.sqrt(lam)
        for P in (Correlation(np.eye(2) / 2), Correlation([[0.3, 0.2], [0.2, 0.3]])):
            shared = verify(P, DiagonalPsdFactorization(C, C, sq)).to_json_dict()
            apart = verify(P, DiagonalPsdFactorization(C, C.copy(), sq)).to_json_dict()
            assert _bits(shared.values()) == _bits(apart.values()), (shared, apart)


class TestDerivedOnce:
    # the factorization's arrays are read-only, so its cell table is computed
    # on the first read and every later reader gets that same array
    def test_cell_table_is_kept_and_read_only(self, rng):
        F, _ = random_verified_factorization(rng, 3, 4, 2)
        T = F.trace_table()
        assert F.trace_table() is T
        assert not T.flags.writeable
        with pytest.raises(ValueError):
            T[0, 0] = 1.0
        assert _bits(T.ravel()) == _bits(np.einsum("xab,yba->xy", F.C, F.D).ravel())

    def test_verify_reads_the_kept_table(self, rng, monkeypatch):
        F, P = random_verified_factorization(rng, 3, 3, 2)
        first = verify(P, F).to_json_dict()

        def refuse(*_):
            raise AssertionError("the cell table was computed again")

        monkeypatch.setattr(np, "einsum", refuse)
        assert verify(P, F).to_json_dict() == first
        F.validate()


def _tangent(Z, V):
    """V projected onto the tangent space of the Stiefel manifold at Z."""
    ZtV = np.einsum("xab,xac->bc", Z, V)
    return V - Z @ (0.5 * (ZtV + ZtV.T))


def _factors(s, X, Y):
    """The factor stacks (C, D) of the point (X, Y)."""
    return tuple(np.swapaxes(Z * s, 1, 2) @ (Z * s) for Z in (X, Y))


class TestInitAndProjection:
    """Restart starting points and the QR retraction, which maps any pair
    of block stacks back to one whose factors are PSD and sum to Lambda."""

    def test_init_deterministic(self):
        a = _random_stiefel(np.random.default_rng(7), 4, 2, 3)
        b = _random_stiefel(np.random.default_rng(7), 4, 2, 3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert (a[0].shape, a[1].shape) == ((4, 3, 3), (2, 3, 3))
        c = _random_stiefel(np.random.default_rng(8), 4, 2, 3)
        assert not np.array_equal(a[0], c[0]) and not np.array_equal(a[1], c[1])

    def test_init_psd(self, rng):
        s = np.sqrt(np.array([0.5, 0.3, 0.2]))
        for stack in _factors(s, *_random_stiefel(rng, 5, 2, 3)):
            for mat in stack:
                assert np.linalg.eigvalsh(mat)[0] >= -1e-12

    def test_project_feasible_sum_exact(self, rng):
        s = np.sqrt(np.array([0.7, 0.0, 0.3]))
        X, Y = _retract(rng.standard_normal((4, 3, 3)), rng.standard_normal((2, 3, 3)))
        C, D = _factors(s, X, Y)
        F = DiagonalPsdFactorization(C, D, s ** 2)
        assert F.feasibility_error() <= 1e-15
        # the zero Lambda entry leaves a zero row and column in every factor
        assert np.all(C[:, 1, :] == 0) and np.all(D[:, :, 1] == 0)

    def test_project_feasible_fixed_point(self, rng):
        X, Y = _retract(rng.standard_normal((3, 2, 2)), rng.standard_normal((5, 2, 2)))
        for Z, again in zip((X, Y), _retract(X, Y)):
            np.testing.assert_allclose(again, Z, atol=1e-14)

    def test_project_feasible_scalar_blocks(self, rng):
        for count in (1, 3):
            pair = _retract(rng.standard_normal((count, 1, 1)), rng.standard_normal((2, 1, 1)))
            for Z, C in zip(pair, _factors(np.array([1.0]), *pair)):
                assert np.sum(Z ** 2) == pytest.approx(1.0, abs=1e-14)
                assert C.sum() == pytest.approx(1.0, abs=1e-14) and C.min() >= 0

    def test_project_feasible_large_blocks(self, rng):
        for count, k in ((1, 5), (3, 5)):
            pair = _retract(rng.standard_normal((count, k, k)), rng.standard_normal((2, k, k)))
            for Z in pair:
                np.testing.assert_allclose(np.einsum("xab,xac->bc", Z, Z), np.eye(k),
                                           atol=1e-14)
        lam = np.abs(rng.random(5)) + 0.1
        for C in _factors(np.sqrt(lam), *pair):
            np.testing.assert_allclose(C.sum(axis=0), np.diag(lam), atol=1e-14)
            for mat in C:
                assert np.linalg.eigvalsh(mat)[0] >= -1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), m=st.integers(1, 6),
           k=st.integers(1, 4))
    def test_pair_retraction_matches_per_block_qr(self, seed, n, m, k):
        rng = np.random.default_rng(seed)
        X, Y = rng.standard_normal((n, k, k)), rng.standard_normal((m, k, k))
        for Z, got in zip((X, Y), _retract(X, Y)):
            q, r = np.linalg.qr(Z.reshape(-1, k))
            reference = (q * np.copysign(1.0, np.diag(r))).reshape(Z.shape)
            np.testing.assert_allclose(got, reference, rtol=0, atol=1e-15)
            np.testing.assert_allclose(np.einsum("xab,xac->bc", got, got), np.eye(k),
                                       rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), m=st.integers(1, 8),
           k=st.integers(1, 4), length=st.floats(0.0, 0.5))
    def test_step_retraction_matches_qr_retraction(self, seed, n, m, k, length):
        # a tangent step of norm at most 1/2 from a point of the manifolds, as
        # the Levenberg-Marquardt direction is: CholeskyQR is the QR map there
        rng = np.random.default_rng(seed)
        X, Y = _retract(rng.standard_normal((n, k, k)), rng.standard_normal((m, k, k)))
        dX, dY = _tangent(X, rng.standard_normal(X.shape)), _tangent(Y, rng.standard_normal(Y.shape))
        norm = np.sqrt(np.sum(dX ** 2) + np.sum(dY ** 2))
        assume(norm > 1e-8)  # both tangent spaces are {0} at n = m = k = 1
        trial = (X + length / norm * dX, Y + length / norm * dY)
        for got, reference in zip(_step_retract(*trial), _retract(*trial)):
            np.testing.assert_allclose(got, reference, rtol=0, atol=1e-14)
            gram = np.einsum("xab,xac->bc", got, got)
            assert np.linalg.norm(gram - np.eye(k), 2) <= 1e-14


# the last shape has more residual rows than tangent coordinates, so its
# step solves the (n+m)·k² system instead of the rows one; each shape runs
# without zero cells and with two, which have k² rows each or, "-plain",
# one row T_xy each
SHAPES = [pytest.param(n, m, k, zeros, simple,
                       id=f"{n}-{m}-{k}" + ("-zeros" if zeros else "") + ("" if simple else "-plain"))
          for n, m, k in [(2, 3, 2), (3, 2, 3), (2, 2, 1), (3, 4, 1)]
          for zeros, simple in [(0, True), (2, True), (2, False)]]


def _random_point(rng, n, m, k, zeros, simple):
    """A random target with ``zeros`` zero cells, its residual rows, sqrt-Lambda
    entries and a point (X, Y) of the manifolds."""
    P = rng.dirichlet(np.ones(n * m))
    P[rng.choice(n * m, zeros, replace=False)] = 0.0
    P = P.reshape(n, m) / P.sum()
    s = np.sqrt(rng.dirichlet(np.ones(k)))
    X, Y = _retract(rng.standard_normal((n, k, k)), rng.standard_normal((m, k, k)))
    return _residual_rows(P, k, simple), s, X, Y


def _split(v, X, Y):
    """A flat (X, Y) tangent vector as its two block stacks."""
    return v[:X.size].reshape(X.shape), v[X.size:].reshape(Y.shape)


class TestParametrization:
    def test_single_label_is_forced(self):
        # one label forces C_0 = Λ for every X, which fixes the cell value
        out = alternate(Correlation([[1.0]]), [0.6, 0.8], 2)
        assert out.converged
        np.testing.assert_allclose(out.factorization.C, [np.diag([0.6, 0.8])], atol=1e-15)

    @pytest.mark.parametrize("n, m, k, zeros, simple", SHAPES)
    def test_gradient_matches_finite_differences(self, rng, n, m, k, zeros, simple):
        rows, s, X, Y = _random_point(rng, n, m, k, zeros, simple)
        _, r, result = _evaluate(rows, s, X, Y)
        gX, gY = _split(2.0 * (r @ _jacobian(s, rows, X, Y, result)), X, Y)
        # the Riemannian gradient is a tangent vector: sym(ZᵀG) = 0
        for Z, g in ((X, gX), (Y, gY)):
            np.testing.assert_allclose(_tangent(Z, g), g, atol=1e-15)
        vX = _tangent(X, rng.standard_normal(X.shape))
        vY = _tangent(Y, rng.standard_normal(Y.shape))
        h = 1e-5
        f_plus = _evaluate(rows, s, *_retract(X + h * vX, Y + h * vY))[0]
        f_minus = _evaluate(rows, s, *_retract(X - h * vX, Y - h * vY))[0]
        directional = float(np.sum(gX * vX) + np.sum(gY * vY))
        assert (f_plus - f_minus) / (2 * h) == pytest.approx(directional, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("n, m, k, zeros, simple", SHAPES)
    def test_jacobian_matches_finite_differences(self, rng, n, m, k, zeros, simple):
        rows, s, X, Y = _random_point(rng, n, m, k, zeros, simple)
        J = _jacobian(s, rows, X, Y, _evaluate(rows, s, X, Y)[2])
        assert J.shape == (n * m + simple * zeros * (k * k - 1), (n + m) * k * k)
        h = 1e-5
        for _ in range(3):
            vX = _tangent(X, rng.standard_normal(X.shape))
            vY = _tangent(Y, rng.standard_normal(Y.shape))
            r_plus = _evaluate(rows, s, *_retract(X + h * vX, Y + h * vY))[1]
            r_minus = _evaluate(rows, s, *_retract(X - h * vX, Y - h * vY))[1]
            np.testing.assert_allclose(J @ np.concatenate([vX.ravel(), vY.ravel()]),
                                       (r_plus - r_minus) / (2 * h),
                                       rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("n, m, k, zeros, simple", SHAPES)
    def test_direction_is_tangent(self, rng, n, m, k, zeros, simple):
        rows, s, X, Y = _random_point(rng, n, m, k, zeros, simple)
        _, r, result = _evaluate(rows, s, X, Y)
        d = _levenberg_marquardt(_jacobian(s, rows, X, Y, result), r, r @ r)
        # the bound that keeps the Gram of a CholeskyQR trial point in [1, 1.25]
        assert np.linalg.norm(d) <= 0.5
        dX, dY = _split(d, X, Y)
        for Z, dZ in ((X, dX), (Y, dY)):
            ZtdZ = np.einsum("xab,xac->bc", Z, dZ)
            np.testing.assert_allclose(ZtdZ + ZtdZ.T, 0.0, atol=1e-14)

    @pytest.mark.parametrize("n, m, k, zeros, simple", SHAPES)
    def test_direction_solves_either_system(self, rng, n, m, k, zeros, simple):
        rows, s, X, Y = _random_point(rng, n, m, k, zeros, simple)
        _, r, result = _evaluate(rows, s, X, Y)
        J = _jacobian(s, rows, X, Y, result)
        mu = r @ r
        np.testing.assert_allclose(
            _levenberg_marquardt(J, r, mu),
            -np.linalg.solve(J @ J.T + mu * np.eye(J.shape[0]), r) @ J, rtol=1e-9, atol=1e-13)
        np.testing.assert_allclose(
            _levenberg_marquardt(J, r, mu),
            -np.linalg.solve(J.T @ J + mu * np.eye(J.shape[1]), r @ J), rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize("n, m, k, zeros, simple", SHAPES)
    def test_direction_descends(self, rng, n, m, k, zeros, simple):
        rows, s, X, Y = _random_point(rng, n, m, k, zeros, simple)
        f, r, result = _evaluate(rows, s, X, Y)
        J = _jacobian(s, rows, X, Y, result)
        grad = 2.0 * (r @ J)
        assert grad @ grad > 1e-12   # not a stationary point
        d = _levenberg_marquardt(J, r, f)
        assert grad @ d < 0
        dX, dY = _split(d, X, Y)
        t = 1e-6
        assert _evaluate(rows, s, *_retract(X + t * dX, Y + t * dY))[0] < f

    @pytest.mark.parametrize("J", [np.ones((2, 3)), np.ones((3, 2))], ids=["JJt", "JtJ"])
    def test_damping_floor(self, J):
        # the solved system is 3·ones(2, 2), singular, and 1e-300 is lost to
        # rounding next to 3: μ is raised to ε times its mean diagonal
        r = np.arange(1.0, J.shape[0] + 1)
        d = _levenberg_marquardt(J, r, 1e-300)
        assert np.all(np.isfinite(d))
        np.testing.assert_array_equal(d, _levenberg_marquardt(J, r, 3 * np.finfo(float).eps))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), m=st.integers(1, 4),
           k=st.integers(1, 3), zero=st.booleans())
    def test_feasible_by_construction(self, seed, n, m, k, zero):
        rng = np.random.default_rng(seed)
        P = rng.dirichlet(np.ones(n * m)).reshape(n, m)
        lam = np.sqrt(rng.dirichlet(np.ones(k)))
        if zero:
            lam[rng.integers(k)] = 0.0
        out = alternate(Correlation(P), lam, k, SolveSettings(
            restarts=1, max_outer_iters=120, rng_seed=seed))
        F = out.factorization
        assert F.feasibility_error() <= 1e-12
        # the history is the merit at the start point, then after each step;
        # P has no zero cell, so the merit is ‖T − P‖² up to rounding
        h = out.objective_history
        assert len(h) == out.iterations + 1
        X, Y = _random_stiefel(np.random.default_rng(seed), n, m, k)
        assert h[0] == _evaluate(_residual_rows(Correlation(P).matrix, k, True), np.sqrt(lam),
                                X, Y)[0]
        assert all(b <= a for a, b in zip(h, h[1:]))
        assert out.objective == np.sum((P - F.trace_table()) ** 2)
        # the two norms of T − P differ by the rounding of T, cell by cell
        assert np.sqrt(h[-1]) == pytest.approx(np.sqrt(out.objective), rel=0, abs=1e-15)


@st.composite
def witness_targets(draw):
    """A feasible target and its √λ: a verified one with n, m, k in 2–4, or a zero-cell one."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        return zero_cell_family(1, seed)[0]
    n, m, k = (draw(st.integers(2, 4)) for _ in range(3))
    F, P = random_verified_factorization(np.random.default_rng(seed), n, m, k)
    return P, F.lam


def _assert_same_search(multi, single, restart):
    """``multi`` is bit for bit the single-restart run ``single``, found at ``restart``."""
    assert multi.restart_index == restart
    assert ((multi.objective, multi.iterations, multi.converged, multi.objective_history)
            == (single.objective, single.iterations, single.converged,
                single.objective_history))
    np.testing.assert_array_equal(multi.factorization.C, single.factorization.C)
    np.testing.assert_array_equal(multi.factorization.D, single.factorization.D)


class TestAlternate:
    @pytest.mark.parametrize("seed", [0, 2])
    def test_restarts_keep_best_single_run(self, seed):
        # Bell -> diag(0.3, 0.7) never converges, so all three restarts run:
        # restart r is the single run at rng_seed + r, and the lowest final
        # merit wins, ties going to the lower r
        P, lam = Correlation(np.diag([0.3, 0.7])), [np.sqrt(0.5)] * 2
        runs = [alternate(P, lam, 2, SolveSettings(restarts=1, rng_seed=seed + r,
                                                   max_outer_iters=20))
                for r in range(3)]
        best = alternate(P, lam, 2, SolveSettings(restarts=3, rng_seed=seed,
                                                  max_outer_iters=20))
        r = min(range(3), key=lambda i: runs[i].objective_history[-1])
        _assert_same_search(best, runs[r], r)

    def test_restarts_stop_at_first_converged(self, monkeypatch):
        # on this budget restart 0 misses the worked 2x2 and later ones hit it
        monkeypatch.setattr("corrgen.factorize.BLOCK_STEPS", 3)
        budget = dict(max_outer_iters=2)
        runs = [alternate(ALG, ALG_LAM, 2, SolveSettings(restarts=1, rng_seed=3 + r, **budget))
                for r in range(4)]
        first = next(r for r, out in enumerate(runs) if out.converged)
        assert first > 0
        best = alternate(ALG, ALG_LAM, 2, SolveSettings(restarts=4, rng_seed=3, **budget))
        _assert_same_search(best, runs[first], first)

    def test_worked_example_converges(self):
        out = alternate(ALG, ALG_LAM, 2)
        assert out.converged
        assert out.objective <= 1e-8
        assert verify(ALG, out.factorization).ok  # every cell within 1e-6
        assert out.factorization.feasibility_error() <= 1e-8
        # the boundary solution (zero cell) is reached without a restart, in 5 steps
        assert out.restart_index == 0
        assert out.iterations == 5

    def test_product_rank_one(self):
        P = Correlation(np.outer([0.4, 0.6], [0.3, 0.7]))
        out = alternate(P, [1.0], 1)
        assert out.converged
        assert out.objective <= 1e-10

    def test_infeasible_diag_stays_high(self):
        # Bell seed cannot make diag(0.3, 0.7): ruled out by min-Schmidt,
        # so the search must plateau well above the convergence tolerance
        P = Correlation([[0.3, 0.0], [0.0, 0.7]])
        out = alternate(P, [np.sqrt(0.5), np.sqrt(0.5)], 2,
                        settings=SolveSettings(restarts=3, max_outer_iters=60))
        assert not out.converged
        assert out.objective > 1e-4

    def test_history_monotone(self):
        out = alternate(ALG, ALG_LAM, 2, settings=SolveSettings(restarts=1))
        h = out.objective_history
        assert len(h) >= 2
        assert all(h[i + 1] <= h[i] + 1e-15 for i in range(len(h) - 1))

    def test_deterministic(self):
        a = alternate(ALG, ALG_LAM, 2, settings=SolveSettings(restarts=2))
        b = alternate(ALG, ALG_LAM, 2, settings=SolveSettings(restarts=2))
        np.testing.assert_array_equal(a.factorization.C, b.factorization.C)
        assert a.objective == b.objective
        assert a.restart_index == b.restart_index

    def test_transpose_symmetry(self):
        out = alternate(Correlation(ALG.matrix.T), ALG_LAM, 2)
        assert out.converged

    def test_one_factorization_per_evaluated_point(self, monkeypatch):
        # a restart's start is retracted by one QR call and each trial point
        # by one Cholesky call, and each is evaluated once, on a target
        # where every restart gives up
        counts = {"qr": 0, "cholesky": 0, "evaluate": 0}
        qr, cholesky, evaluate = np.linalg.qr, np.linalg.cholesky, factorize._evaluate

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", counting("qr", qr))
        monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", cholesky))
        monkeypatch.setattr(factorize, "_evaluate", counting("evaluate", evaluate))
        P = Correlation(GIVEUP_P)
        out = alternate(P, GIVEUP_LAM, 2, SolveSettings(restarts=2, max_outer_iters=30))
        assert not out.converged
        assert counts["qr"] == 2
        assert counts["qr"] + counts["cholesky"] == counts["evaluate"] > 2

    @pytest.mark.parametrize("table", [[[np.nan, 0.5]], [[-0.5, 1.5]]], ids=["nan", "negative"])
    def test_bare_table_rejected(self, table):
        # only a Correlation, checked when it is built, reaches the search
        P = np.array(table)
        with pytest.raises(AttributeError):
            alternate(P, [1.0], 1)
        with pytest.raises(AttributeError):
            verify(P, DiagonalPsdFactorization([[[1.0]]], [[[0.5]], [[0.5]]], [1.0]))
        with pytest.raises(CorrelationError):
            Correlation(P)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, True])
    def test_bad_residual_tol_rejected(self, tol):
        # an infinite tolerance would call any start point converged, and
        # True would read as 1
        with pytest.raises(FactorizationError, match="residual_tol"):
            SolveSettings(residual_tol=tol)

    @pytest.mark.parametrize("setting", [{"rng_seed": 1.5}, {"restarts": 2.5},
                                         {"restarts": True}, {"rng_seed": True}],
                             ids=["float-seed", "float-restarts", "bool-restarts", "bool-seed"])
    def test_bad_counts_rejected(self, setting):
        # a float seed was taken and ended in numpy's TypeError at the first
        # restart, and True ran as 1
        with pytest.raises(FactorizationError, match="integers"):
            SolveSettings(**setting)

    def test_k_mismatch_rejected(self):
        with pytest.raises(FactorizationError):
            alternate(ALG, ALG_LAM, 3)

    def test_overflowing_lambda_rejected(self):
        # cells near 1e308 square to inf in the objective
        with pytest.raises(FactorizationError, match="overflows"):
            alternate(ALG, [1e308, 1e308], 2, SolveSettings(restarts=1))

    def test_jacobian_budget(self):
        # 256 x 256 cells with k = 2 need a J of 65,536 x 2,048 entries
        P = Correlation(np.full((256, 256), 1 / 256 ** 2))
        assert 256 * 256 * 512 * 4 > MAX_JACOBIAN_ENTRIES
        with pytest.raises(FactorizationError, match="budget"):
            alternate(P, [0.6, 0.8], 2)
        # 32 x 32 cells with k = 2 fit
        out = alternate(Correlation(np.full((32, 32), 1 / 32 ** 2)), [0.6, 0.8], 2,
                        settings=SolveSettings(restarts=1))
        assert out.converged

    @pytest.mark.parametrize("target", ["worked-2x2", "giveup", "bell-diag"])
    def test_objective_is_table_error(self, target):
        # the merit the search minimizes counts a zero cell's T, not T²; the
        # reported objective is ‖T − P‖² of the factors returned all the same
        P, lam = {"worked-2x2": (ALG, ALG_LAM),
                  "giveup": (Correlation(GIVEUP_P), GIVEUP_LAM),
                  "bell-diag": (Correlation([[0.3, 0.0], [0.0, 0.7]]), [np.sqrt(0.5)] * 2)}[target]
        out = alternate(P, lam, 2, SolveSettings(restarts=2, max_outer_iters=30))
        T = out.factorization.trace_table()
        assert out.objective == np.sum((P.matrix - T) ** 2)
        zero = P.matrix == 0
        merit = np.sum((P.matrix - T)[~zero] ** 2) + np.sum(T[zero])
        # a zero cell's trace, read from the factors, carries the rounding of
        # products of order 1, about 1e-17, where the search sums squares of M
        assert out.objective_history[-1] == pytest.approx(merit, rel=1e-12, abs=1e-15)

    def test_zero_cell_family_converges_superlinearly(self):
        # where zero cells get k² residual rows, each is a simple root of
        # them, so each converged search is superlinear on its way down;
        # e = √merit over the three entries ending at the first merit
        # ≤ 1e-9, since nearer τ·τ = 1e-12 rounding sets the order.  Target
        # 16 (4×3, k = 4, eight zero cells) would need a J of 132 × 112 and
        # keeps one row per cell.
        simple = []
        for index, (P, lam) in enumerate(zero_cell_family()):
            out = alternate(P, lam, lam.size, SolveSettings(restarts=30))
            assert out.converged, index
            h = out.objective_history
            assert all(b <= a for a, b in zip(h, h[1:])), index
            n, m = P.matrix.shape
            if not _simple_roots(n, m, lam.size, int(np.sum(P.matrix == 0))):
                continue
            simple.append(index)
            T = out.factorization.trace_table()
            tol = SolveSettings.residual_tol
            assert T[P.matrix == 0].max() <= tol * tol, index  # T ≤ f on k² rows
            end = next(i for i, f in enumerate(h) if f <= 1e-9) + 1
            e = np.sqrt(h[end - 3:end])
            assert np.log(e[2] / e[1]) / np.log(e[1] / e[0]) >= 1.25, index
        assert simple == [i for i in range(18) if i != 16]

    @pytest.mark.xfail(strict=True, reason="the exact-partition zero-cell target converges at "
                       "PR 18 defaults but not with k² rows per zero cell; see FOUND in CHANGES.md")
    def test_exact_partition_target_converges_at_default_settings(self):
        # P = [[0, 0.5004], [0.4996, 0]] with λ = (0.4996, 0.3907, 0.0814,
        # 0.0283): its 10 default restarts stop at merit 1.43e-6 or about
        # 1.5e-3; restart 2 converged with one row per cell
        P, lam = zero_cell_family()[17]
        assert alternate(P, lam, lam.size).converged

    @pytest.mark.parametrize("n, m, k, zeros, simple, J", [
        (2, 2, 2, 2, True, (10, 16)), (3, 3, 3, 6, False, (57, 54)),
        (2, 2, 4, 2, True, (34, 64)), (4, 3, 4, 8, False, (132, 112)),
        (2, 8, 4, 4, True, (76, 160)), (2, 8, 4, 8, False, (136, 160)),
        (10, 10, 10, 90, False, (9010, 2000))])
    def test_zero_cell_rows_where_small(self, n, m, k, zeros, simple, J):
        # k² rows per zero cell where their J stays no taller than wide and
        # within 2^14 entries: the 2×8 target at k = 4 gets them with four
        # zero cells, not with eight
        assert (n * m + zeros * (k * k - 1), (n + m) * k * k) == J
        assert _simple_roots(n, m, k, zeros) is simple
        # their unit matrices E_ij, z·k⁴ floats, stay within 2^13, and a
        # target with one row per cell has none
        P = np.ones(n * m)
        P[:zeros] = 0.0
        units = _residual_rows(P.reshape(n, m), k, simple).units
        assert units.size == simple * zeros * k ** 4 <= 2 ** 13

    def test_zero_heavy_target_keeps_its_search(self, monkeypatch):
        # the 10×10 diagonal at k = 10 has one row per cell, J 100 × 2,000,
        # as with one row per cell throughout; k² rows per zero cell would
        # give 9,010 × 2,000, over the budget
        monkeypatch.setattr(factorize, "BLOCK_STEPS", 2)
        lam = np.arange(1.0, 11.0) / 55
        out = alternate(Correlation(np.diag(lam)), np.sqrt(lam), 10,
                        SolveSettings(restarts=1, max_outer_iters=1))
        assert out.iterations == 2
        assert out.objective_history[-1] < out.objective_history[0]
        assert 9010 * 2000 > MAX_JACOBIAN_ENTRIES

    def test_zero_heavy_target_over_budget_allocates_little(self):
        # the 30×30 diagonal at k = 30 needs a J of 900 × 54,000 entries,
        # 389 MB; it is refused after one evaluation of the start point,
        # whose largest array is M, 900 k×k blocks (6.5 MB)
        lam = np.arange(1.0, 31.0) / 465
        tracemalloc.start()
        try:
            with pytest.raises(FactorizationError, match="budget"):
                alternate(Correlation(np.diag(lam)), np.sqrt(lam), 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_random_verified_targets(self, rng):
        for _ in range(3):
            F, P = random_verified_factorization(rng, 2, 2, 2)
            out = alternate(P, F.lam, 2, settings=SolveSettings(restarts=4))
            assert out.converged, out.objective

    # a search converges at f ≤ τ·τ, which bounds every cell by τ; while it
    # stopped at f ≤ 1e-9 this 2×2 converged in 5 steps 2.0e-5 off a cell
    @example(target=(Correlation([[0.021953385025098457, 0.38403833683125466],
                                  [0.4380920260870527, 0.15591625205659454]]),
                     np.array([0.6325114903092675, 0.7745509761318162])), tol=1e-6)
    @settings(max_examples=40, deadline=None)
    @given(target=witness_targets(), tol=st.sampled_from([1e-6, 1e-4, 1e-8]))
    def test_converged_search_passes_verify(self, target, tol):
        P, lam = target
        out = alternate(P, lam, lam.size, SolveSettings(residual_tol=tol))
        if out.converged:
            res = verify(P, out.factorization, tol)
            assert res.ok, (res.residual, res.feasibility)


class TestVerify:
    def test_reference_at_loose_tol(self):
        res = verify(ALG, REF_F, tol=5e-5)
        assert res.ok
        assert res.residual < 5e-5

    def test_reference_fails_tight_tol(self):
        # the reference matrices are printed to 8 decimals; their cell
        # error is a few 1e-5, so they cannot pass a 1e-6 gate
        res = verify(ALG, REF_F, tol=1e-6)
        assert not res.ok
        assert 1e-6 < res.residual < 1e-4

    def test_solver_output_verifies(self):
        out = alternate(ALG, ALG_LAM, 2)
        res = verify(ALG, out.factorization, tol=1e-4)
        assert res.ok
        assert res.feasibility <= 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(FactorizationError):
            verify(Correlation(np.full((3, 2), 1 / 6)), REF_F)

    def test_detects_wrong_target(self):
        res = verify(Correlation([[0.25, 0.25], [0.25, 0.25]]), REF_F, tol=1e-6)
        assert not res.ok
        assert res.residual > 0.05

    @pytest.mark.parametrize("tol", [-1e-6, np.nan, np.inf, "1", None, True,
                                     pytest.param(np.array([1e-6, 1e-6]), id="array"),
                                     pytest.param(np.array([1e-6]), id="one-element-array")])
    def test_bad_tol_rejected(self, tol):
        # an infinite tolerance would pass any cell error; "1" and None ended
        # in a TypeError, an array in a ValueError, and True ran as 1; numpy
        # 1.24 read a one-element array as its entry
        with pytest.raises(FactorizationError, match="finite"):
            verify(ALG, REF_F, tol=tol)

    def test_factor_sum_beyond_float_range(self):
        # two finite factors of 1e308 sum to inf: an infinite deviation, with no
        # RuntimeWarning on the way (the CLI fuzz found this through `verify`)
        F = DiagonalPsdFactorization([[[1e308]], [[1e308]], [[0.0]]], [[[0.0]]] * 4, [0.0])
        res = verify(Correlation([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1.0]]), F)
        assert res.feasibility == np.inf and not res.ok


class TestLambdaCandidates:
    def test_alg_canonical(self):
        cands = lambda_candidates_from_purifications(ALG)
        assert len(cands) == 2
        np.testing.assert_allclose(cands[0], [0.93417236, 0.35682209], atol=1e-6)

    def test_alg_cnot(self):
        cands = lambda_candidates_from_purifications(ALG)
        np.testing.assert_allclose(cands[1], [np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-9)

    def test_diag_target(self):
        P = Correlation([[0.3, 0.0], [0.0, 0.7]])
        cands = lambda_candidates_from_purifications(P)
        np.testing.assert_allclose(cands[0], [np.sqrt(0.7), np.sqrt(0.3)], atol=1e-12)

    def test_non_square_has_single_candidate(self):
        P = Correlation(np.full((2, 3), 1 / 6))
        assert len(lambda_candidates_from_purifications(P)) == 1

    def test_candidates_are_unit_vectors(self):
        for c in lambda_candidates_from_purifications(ALG):
            assert np.sum(c ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_canonical_candidate_admits_factorization(self):
        lam = lambda_candidates_from_purifications(ALG)[0]
        out = alternate(ALG, lam, 2, settings=SolveSettings(restarts=4))
        assert out.converged
