"""Riemannian search for diagonal-form PSD factorizations.

A diagonal-form factorization of a correlation P is a family of PSD
matrices {C_x}, {D_y} with P(x,y) = tr(C_x D_y) and ΣC_x = ΣD_y = Λ for
a diagonal nonnegative Λ.  Finding one for a prescribed Λ is a
non-convex (NP-hard) problem.

The constraints are built into the variables.  With S = Λ^{1/2}, stack
the blocks Uₓᵀ into an nk×k matrix X with XᵀX = I and set
C_x = S Uₓ Uₓᵀ S: every C_x is PSD and ΣC_x = S XᵀX S = Λ exactly.
Every feasible family arises this way (write C_x = BₓBₓᵀ; then
Λ^{-1/2}[B₁ … Bₙ] has orthonormal rows), and a zero entry of Λ simply
gives a zero row of S.  {D_y} is built the same way from Y (mk×k).
The cell table is T_xy = tr(C_x D_y) = ‖M_xy‖²_F with the k×k block
M_xy = (X·S)ₓ(Y·S)_yᵀ.  The residual r has one row T_xy − P_xy per
cell, except that on a small target (below) each zero cell has the k²
entries of M_xy in place of its row; they vanish exactly where T_xy
does.  The solver minimizes the merit f = ‖r‖², which is ‖T − P‖² with
T_xy in place of T_xy² on the zero cells that have k² rows, jointly
over the two Stiefel manifolds (Wen & Yin, Math. Prog. 2013; Vandaele,
Glineur & Gillis, Comput. Optim. Appl. 2018), with multiple
deterministic restarts.  On a zero cell T_xy − P_xy is a sum of
squares, so its every root is double and its Jacobian row vanishes
there, and the search converges only linearly in those cells; the
entries of M_xy are bilinear in the blocks and have simple roots.  Each
zero cell adds k² − 1 rows, though, and the merit they make, which
charges T_xy rather than T_xy², traps more restarts at points where
every zero cell is met and some other cell is not.  Measured on
zero-cell targets up to 16×16, the k² rows save time where J stays no
taller than wide and within ``SIMPLE_ROOT_ENTRIES`` entries
(:func:`_simple_roots`), and cost several times the time beyond, so only
there are they used.  The zeros of r form a manifold, not isolated
points, so each step is a Levenberg–Marquardt step
d = −Jᵀ(JJᵀ + μI)⁻¹r, which converges quadratically under a local error
bound rather than a nonsingular J.  J, the Jacobian of r on the product
of the two tangent spaces (Absil, Mahony & Sepulchre 2008, §8.4), is
dense, with one column per tangent coordinate ((n+m)·k²) and a row per
row of r.  Every row has one formula: the Euclidean gradient
L·(Y·S)_y·S in block x of X and Lᵀ·(X·S)ₓ·S in block y of Y, with
L = 2M_xy on the row T_xy − P_xy and the unit matrix E_ij on the row of
entry (i, j) of M_xy, then projected onto the tangent spaces.  The
damping is μ = θ·‖r‖² (Yamashita & Fukushima, Computing Suppl. 15,
2001) with θ ≥ 1: θ grows by 1/t after a step the line search shortened
to length t < 1 and halves, down to 1, after a full step (Marquardt's
rule, J. SIAM 11, 1963).  Its scale is ‖r‖², not ‖r‖: the cells of a
normalized table shrink like 1/(n·m), and μ = ‖r‖ swamps JᵀJ on all but
the smallest targets.  The factor θ matters where the residual does not
vanish: there the undamped step overshoots, and without θ every step
backtracks several times.  The step solves the smaller of the two
square systems, with sides the number of rows and (n+m)·k², so it is
meant for desk-scale targets; a J of more than
``MAX_JACOBIAN_ENTRIES`` entries, n·m × (n+m)·k² wherever zero cells
have one row each (for instance 100×100 with k = 4), is refused before
it is built.  Where θ·‖r‖² falls below ε times the mean diagonal of the
system solved, μ is raised to that floor, so a residual lost to
rounding does not leave the system singular; a rank-deficient system
can stay singular all the same, and then ends the restart as a failed
line search does.
Armijo backtracking from length 1 and a CholeskyQR retraction complete
the step: each stack Z + t·dZ is multiplied by L⁻ᵀ, where LLᵀ is the
Cholesky factorization of its Gram matrix, which is the Q of a QR with
a positive R diagonal.  The direction is short, ‖d‖ ≤ ‖r‖/(2√μ) ≤
1/(2√θ) ≤ ½, because each singular value σ of J enters it as
σ/(σ² + μ) ≤ 1/(2√μ); d is tangent, so the Gram is I + t²·dZᵀdZ with
its eigenvalues in [1, 1.25], and the Cholesky factor exists and is as
accurate as a Householder QR.  Only the Gaussian start of a restart
takes a Householder QR.  One rule tells a stuck restart: it gives up
once −⟨grad f, d⟩ ≤ ``PROGRESS_TOL``·f.  The slope is one to two times
the decrease the model ‖r + Jd‖² predicts (Nocedal & Wright,
*Numerical Optimization*, ch. 4, §10.3), a ratio of order 1 on any path
to a zero residual.  The rule stops a restart at a stationary point as
well: there the slope is 0, and since −⟨grad f, d⟩ ≤ ‖grad f‖²/(2θf),
a gradient norm below 1e-10 at f > 7e-9 already meets it.  One
function, :func:`levenberg_marquardt_search`, runs the restarts and the
steps; it takes its start, merit, Jacobian and retraction as arguments,
and the classical search runs on it too.
It records f at the start point and after every step, and a restart
takes at most ``max_outer_iters`` × ``BLOCK_STEPS`` steps.  A restart
converges at f ≤ τ² for the per-cell tolerance τ = ``residual_tol``,
which is also :func:`verify`'s: f is a sum of squared rows, so for τ ≤ 1
a supported cell, and a zero cell with one row, is off by at most τ, and
a zero cell with k² rows has T_xy ≤ f ≤ τ² ≤ τ.
Every iterate is feasible to rounding error, so the search only ever
trades objective, never feasibility.  A failed search means "no
factorization found", never "infeasible".

Real symmetric matrices only.  Complex Hermitian factors could in
principle exist where real ones do not; this is a documented limitation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .correlation import CorrgenError, float_array, integers, nonnegative, real

#: Sufficient-decrease constant of the Armijo line search.
ARMIJO = 1e-4
#: Halvings of the step before a line search gives up.
MAX_BACKTRACKS = 40
#: Predicted relative decrease, −⟨grad f, d⟩/f, at or below which a search stops.
PROGRESS_TOL = 1e-4
#: Unit of the step budget: a restart takes at most ``max_outer_iters`` × this many steps.
BLOCK_STEPS = 250

#: Largest Jacobian, in entries, that the search builds (128 MB of floats).
MAX_JACOBIAN_ENTRIES = 2 ** 24
#: Largest Jacobian, in entries, with k² rows per zero cell (see :func:`_simple_roots`).
SIMPLE_ROOT_ENTRIES = 2 ** 14


class FactorizationError(CorrgenError):
    """Raised for structurally invalid factorizations or solver inputs."""


@dataclass(frozen=True, eq=False)
class DiagonalPsdFactorization:
    """PSD factor families {C_x}, {D_y} with common diagonal factor sum Λ.

    ``lam`` is the diagonal of Λ as a 1-D vector, i.e. the √λ entries; it
    is the only form the constructor takes.  Squared values are only
    exposed through :meth:`squared_lambdas` to keep the λ-vs-√λ
    convention in one place.  One stack passed as both C and D (``D is
    C``, as the Schmidt-basis protocol builds it) is read and checked
    once and kept as one object, so each check of it runs once too.  The
    arrays are read-only, so the cell table is computed once, on its
    first read, and every later reader gets that same read-only array.
    """

    C: np.ndarray          # (n, k, k)
    D: np.ndarray          # (m, k, k)
    lam: np.ndarray        # (k,), entries √λ_i

    def __init__(self, C, D, lam) -> None:
        shared = D is C
        C = float_array(C, FactorizationError, "factor stack C", ndim=3)
        D = C if shared else float_array(D, FactorizationError, "factor stack D", ndim=3)
        lam = nonnegative(lam, FactorizationError, "Lambda", ndim=1)
        k = lam.size
        if C.shape[1:] != (k, k) or D.shape[1:] != (k, k):
            raise FactorizationError("factor stacks must have shape (count, k, k)")
        for name, a in (("C", C), ("D", D), ("lam", lam)):
            object.__setattr__(self, name, a)

    @property
    def k(self) -> int:
        return self.lam.size

    def squared_lambdas(self) -> np.ndarray:
        """The squared Schmidt coefficients λ_i = (Λ entries)²."""
        return self.lam ** 2

    @cached_property
    def _cells(self) -> np.ndarray:
        cells = np.einsum("xab,yba->xy", self.C, self.D)
        cells.setflags(write=False)
        return cells

    def trace_table(self) -> np.ndarray:
        """The induced cell table tr(C_x D_y), read-only: computed on the first read, then kept."""
        return self._cells

    def _stacks(self) -> tuple[np.ndarray, ...]:
        return (self.C,) if self.D is self.C else (self.C, self.D)

    def max_negative_eigenvalue(self) -> float:
        """How far the least eigenvalue of any factor falls below 0 (0 for PSD factors).

        A diagonal stack's eigenvalues are its entries: a stack with no
        nonzero off-diagonal entry is read, with no eigendecomposition.
        """
        S = np.concatenate(self._stacks())
        flat = S.reshape(len(S), -1)
        ev = flat[:, ::self.k + 1]  # row-major, every (k + 1)-th entry of a k×k matrix is diagonal
        if np.count_nonzero(flat) > np.count_nonzero(ev):  # a nonzero entry off the diagonal
            ev = np.linalg.eigvalsh(_sym(S))[:, 0]
        return -float(ev.min(initial=0.0))

    def feasibility_error(self) -> float:
        """Max deviation of the factor sums from Λ plus PSD violation.

        A stack shared by C and D (``D is C``) is read once, and a diagonal
        stack's eigenvalues are its entries, read with no eigendecomposition
        (:meth:`max_negative_eigenvalue`).
        """
        lam_diag = np.diag(self.lam)
        with np.errstate(over="ignore"):  # a factor sum beyond the float range deviates by inf
            devs = [abs(S.sum(axis=0) - lam_diag).max() for S in self._stacks()]
        return float(max(*devs, self.max_negative_eigenvalue()))

    def validate(self) -> None:
        """Raise unless :func:`verify`'s τ rule holds: feasibility ≤ τ and every cell trace ≥ −τ.

        τ is ``SolveSettings.residual_tol``; a factorization that
        :func:`verify` accepts at its default passes, since a cell within τ
        of P ≥ 0 has a trace ≥ −τ.
        """
        tol = SolveSettings.residual_tol
        if self.feasibility_error() > tol:
            raise FactorizationError(f"factors are not PSD with sums equal to Lambda within {tol:g}")
        if np.min(self.trace_table()) < -tol:
            raise FactorizationError("negative cell trace beyond tolerance")

    def to_json_dict(self) -> dict:
        return {"lambda": self.lam.tolist(), "C": self.C.tolist(), "D": self.D.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiagonalPsdFactorization":
        if not isinstance(data, dict) or not {"C", "D", "lambda"} <= data.keys():
            raise FactorizationError('factorization JSON must hold "C", "D" and "lambda"')
        return cls(data["C"], data["D"], data["lambda"])


@dataclass(frozen=True)
class SolveSettings:
    max_outer_iters: int = 500   # step budget of a restart, in units of BLOCK_STEPS
    residual_tol: float = 1e-6   # τ, the per-cell error: a search converges at f ≤ τ·τ
    restarts: int = 10
    rng_seed: int = 12345

    def __post_init__(self):
        outer, restarts, seed = integers((self.max_outer_iters, self.restarts, self.rng_seed),
                                         FactorizationError, "iteration counts and rng_seed")
        if min(outer, restarts) < 1:
            raise FactorizationError("iteration counts must be >= 1")
        if not 0 < real(self.residual_tol, FactorizationError, "residual_tol") < np.inf:
            raise FactorizationError("residual_tol must be positive and finite")
        if seed < 0:  # numpy seeds with nonnegative integers only
            raise FactorizationError("rng_seed must be nonnegative")


@dataclass(frozen=True)
class SolveOutcome:
    factorization: DiagonalPsdFactorization
    restart_index: int
    converged: bool                        # merit ≤ τ·τ, so every cell is within τ = residual_tol
    objective_history: tuple[float, ...]   # the merit f at the start and after each step of the winner
    objective: float                       # ‖T − P‖² of the returned factors

    @property
    def iterations(self) -> int:
        """Steps the winning restart took."""
        return len(self.objective_history) - 1


@dataclass(frozen=True)
class VerifyResult:
    residual: float
    feasibility: float
    ok: bool

    def to_json_dict(self) -> dict:
        return {"residual": self.residual, "feasibility": self.feasibility, "ok": self.ok}


def _retract(X: np.ndarray, Y: np.ndarray):
    """QR retraction of any two full-rank stacks of blocks onto {ΣZₓᵀZₓ = I}, by one batched QR.

    The two stacks, flattened, are zero-padded to the same height; the
    zero rows leave the Householder reflections of the other rows as they
    are.  The sign of each column is fixed so that R has a nonnegative
    diagonal, which makes the retraction a function of (X, Y) alone.
    """
    rows = (X.shape[0] * X.shape[-1], Y.shape[0] * Y.shape[-1])
    Z = np.zeros((2, max(rows), X.shape[-1]))
    Z[0, :rows[0]], Z[1, :rows[1]] = X.reshape(rows[0], -1), Y.reshape(rows[1], -1)
    q, r = np.linalg.qr(Z)
    q *= np.copysign(1.0, np.diagonal(r, axis1=1, axis2=2))[:, None]
    return q[0, :rows[0]].reshape(X.shape), q[1, :rows[1]].reshape(Y.shape)


def _step_retract(X: np.ndarray, Y: np.ndarray):
    """The map of :func:`_retract` by CholeskyQR, for the trial points of a step.

    Each stack, flattened and transposed to k rows, is zero-padded to the
    same width; its Gram ZᵀZ = LLᵀ gives Q = Z·L⁻ᵀ, the Q of the QR whose
    R = Lᵀ has a positive diagonal.  It is accurate where the Gram is well
    conditioned: on a trial point Z + t·dZ of a step it is I + t²·dZᵀdZ,
    with eigenvalues in [1, 1.25] (module docstring).
    """
    k, rows = X.shape[-1], (X.shape[0] * X.shape[-1], Y.shape[0] * Y.shape[-1])
    Z = np.zeros((2, k, max(rows)))
    Z[0, :, :rows[0]], Z[1, :, :rows[1]] = X.reshape(rows[0], k).T, Y.reshape(rows[1], k).T
    Qt = np.linalg.solve(np.linalg.cholesky(Z @ np.swapaxes(Z, 1, 2)), Z)
    return Qt[0, :, :rows[0]].T.reshape(X.shape), Qt[1, :, :rows[1]].T.reshape(Y.shape)


def _random_stiefel(rng: np.random.Generator, n: int, m: int, k: int):
    """A random point (X, Y) of {ΣZₓᵀZₓ = I}: n and m blocks of size k×k."""
    return _retract(rng.standard_normal((n, k, k)), rng.standard_normal((m, k, k)))


def _simple_roots(n: int, m: int, k: int, zeros: int) -> bool:
    """Whether the ``zeros`` zero cells of an n×m target get k² rows each.

    They do where J stays no taller than wide and within
    ``SIMPLE_ROOT_ENTRIES`` entries: there a step costs little more and
    the search takes fewer steps.  On larger targets the extra rows cost
    more per step than they save, and the merit they make traps more
    restarts (module docstring).  The bounds are measured at default
    settings: on 165 zero-cell targets up to 8×8 with k ≤ 4 the searches
    took 3.3 s with this choice, 7.3 s with one row per cell throughout
    and 7.7 s with k² rows throughout, and the diagonal targets at k = n
    from 4×4 up, where k² rows took 7 to 53 times as long up to 6×6, keep
    one row per cell.
    """
    rows, cols = n * m + zeros * (k * k - 1), (n + m) * k * k
    return rows <= cols and rows * cols <= SIMPLE_ROOT_ENTRIES


class _Rows(NamedTuple):
    """The rows of the residual: one per cell of ``cells``, then k² per cell of ``zeros``.

    A row's gradient lives in one block of X and one of Y.  The blocks of
    both stacks are numbered together, X's n first, and the gradients of
    all rows are computed as one stack of 2·rows parts: the X parts, then
    the Y parts.  A zero cell's row of entry (i, j) has L = E_ij from ``units``,
    whose z·k⁴ floats stay within 2¹³: :func:`_simple_roots` gives z zero
    cells rows only where J, at least z·k² × 2k², has at most 2¹⁴ entries.
    """

    cells: np.ndarray     # flat indices of the cells with a row T_xy − P_xy, in row-major order
    target: np.ndarray    # P at those cells
    zeros: np.ndarray     # flat indices of the zero cells with k² rows vec M_xy
    own: np.ndarray       # per gradient part, the block it lives in: x, then n + y
    row: np.ndarray       # per gradient part, its row
    units: np.ndarray     # the L of each zero-cell row: E_ij, (i, j) row-major per zero cell


def _residual_rows(P: np.ndarray, k: int, simple_roots: bool) -> _Rows:
    """The rows of the residual for target P and k; zero cells get k² rows if ``simple_roots``."""
    n, m = P.shape
    flat = P.ravel()
    zero = (flat == 0) & simple_roots
    cells, zeros = np.flatnonzero(~zero), np.flatnonzero(zero)
    blocks = np.concatenate((cells, np.repeat(zeros, k * k)))
    return _Rows(cells, flat[cells], zeros, np.concatenate((blocks // m, n + blocks % m)),
                 np.tile(np.arange(blocks.size), 2),
                 np.tile(np.eye(k * k).reshape(-1, k, k), (zeros.size, 1, 1)))


def _evaluate(rows: _Rows, s: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """Merit f = ‖r‖², the residual r and the blocks (M, X·S, Y·S).

    M stacks M_xy = (X·S)ₓ(Y·S)_yᵀ over the cells in row-major order; a
    cell of ``rows.cells`` has the row ‖M_xy‖²_F − P_xy and a cell of
    ``rows.zeros`` the k² rows vec M_xy.
    """
    XS, YS = X * s, Y * s
    M = (XS[:, None] @ np.swapaxes(YS, 1, 2)).reshape(-1, *XS.shape[1:])
    vecM = M.reshape(len(M), -1)
    r = np.concatenate((np.sum(vecM * vecM, axis=1)[rows.cells] - rows.target,
                        vecM[rows.zeros].ravel()))
    return float(r @ r), r, (M, XS, YS)


def _sym(A: np.ndarray) -> np.ndarray:
    A = 0.5 * A  # halved before the sum, so A + Aᵀ cannot overflow
    return A + np.swapaxes(A, -1, -2)


def _jacobian(s: np.ndarray, rows: _Rows, X: np.ndarray, Y: np.ndarray, result) -> np.ndarray:
    """Jacobian J of the residual on the product of the tangent spaces.

    Every row is built from its L: the Euclidean gradient of a row of cell
    (x, y) is GX = L·(Y·S)_y·S in block x of X and GY = Lᵀ·(X·S)ₓ·S in
    block y of Y, with L = 2M_xy on the row T_xy − P_xy and the unit
    matrix E_ij of ``rows.units`` on the row of entry (i, j) of M_xy.  Its
    tangent projection G − Z·sym(ZᵀG) is −Z·sym(ZₓᵀG) in every block of Z
    plus G in its own one.  The GX and GY of all rows are one stack, each
    built from the block of [X·S; Y·S]·S of the other side.  J has a row
    per residual row and its columns flattened as (X, Y); it is written in
    place, and no other array of its size is made.  ``result`` is the
    ``(M, X·S, Y·S)`` of :func:`_evaluate`.
    """
    M, XS, YS = result
    W = np.concatenate((XS, YS)) * s
    count = len(rows.row) // 2
    L = np.concatenate((2.0 * M[rows.cells], rows.units))
    G = np.concatenate((L, np.swapaxes(L, 1, 2))) @ W[rows.own.reshape(2, -1)[::-1].ravel()]
    Z = np.concatenate((X, Y))
    A = _sym(np.swapaxes(Z[rows.own], 1, 2) @ G)
    J = np.empty((count,) + Z.shape)
    np.matmul(-X, A[:count, None], out=J[:, :len(X)])
    np.matmul(-Y, A[count:, None], out=J[:, len(X):])
    J[rows.row, rows.own] += G
    return J.reshape(count, -1)


def _levenberg_marquardt(J: np.ndarray, r: np.ndarray, mu: float) -> np.ndarray:
    """The direction −Jᵀ(JJᵀ + μI)⁻¹r = −(JᵀJ + μI)⁻¹Jᵀr for damping μ > 0.

    The two forms are equal (push-through identity); the smaller of the
    JJᵀ and JᵀJ systems is solved, with μ added in place on its diagonal.
    μ is raised to ε·trace/size of that system if it is below, since a
    smaller μ is lost to rounding and can leave the system singular.  A
    rank-deficient system can stay singular, and ``LinAlgError`` is raised.
    """
    wide = J.shape[0] <= J.shape[1]
    A = J @ J.T if wide else J.T @ J
    A.reshape(-1)[::len(A) + 1] += max(mu, np.finfo(float).eps * A.trace() / len(A))
    if wide:
        return -(np.linalg.solve(A, r) @ J)
    return -np.linalg.solve(A, r @ J)


def levenberg_marquardt_search(start, evaluate, jacobian, retract, settings: SolveSettings):
    """Multi-restart search by the Levenberg–Marquardt steps described above.

    Restart r starts from the pair ``(X, Y) = start(default_rng(rng_seed +
    r))``.  ``evaluate(X, Y)`` returns ``(f, r, result)`` with f = ‖r‖²,
    ``jacobian(X, Y, result)`` the dense Jacobian of r on the tangent
    spaces, columns flattened as (X, Y), and ``retract(X, Y)`` maps the
    moved pair back onto the product of the two manifolds in one call.  f
    is recorded at the start point and after every step.  A restart ends
    converged at f ≤ τ·τ, τ = ``residual_tol``; stuck on the
    ``PROGRESS_TOL`` rule, with a step system singular to working
    precision or with no acceptable step; or after ``max_outer_iters`` ×
    ``BLOCK_STEPS`` steps; the ``PROGRESS_TOL`` rule also stops one at a
    stationary point, where the slope ⟨grad f, d⟩ is 0.  The lowest final
    f wins, ties going to the lower restart, and the first converged
    restart ends the search.  Returns the winner's ``(result,
    history, restart, converged)``.
    """
    best, budget = None, settings.max_outer_iters * BLOCK_STEPS
    tol = settings.residual_tol * settings.residual_tol  # τ ** 2 overflows a float τ of 1e200
    for restart in range(settings.restarts):
        X, Y = start(np.random.default_rng(settings.rng_seed + restart))
        f, r, result = evaluate(X, Y)
        if r.size * (X.size + Y.size) > MAX_JACOBIAN_ENTRIES:
            raise FactorizationError(
                f"a Jacobian of {r.size} x {X.size + Y.size} entries is over the budget"
                f" of 2^{MAX_JACOBIAN_ENTRIES.bit_length() - 1}")
        theta, history = 1.0, [f]
        while not f <= tol and len(history) <= budget:  # NaN f: not converged
            J = jacobian(X, Y, result)
            grad = 2.0 * (r @ J)
            try:
                d = _levenberg_marquardt(J, r, theta * f)
            except np.linalg.LinAlgError:  # singular despite the damping floor: no step
                break
            slope = float(grad @ d)
            if -slope <= PROGRESS_TOL * f:
                break
            dX, dY = d[:X.size].reshape(X.shape), d[X.size:].reshape(Y.shape)
            step = 1.0
            for _ in range(MAX_BACKTRACKS):
                Xt, Yt = retract(X + step * dX, Y + step * dY)
                trial = evaluate(Xt, Yt)
                if trial[0] <= f + ARMIJO * step * slope:
                    break
                step *= 0.5
            else:
                break
            theta = max(1.0, 0.5 * theta) if step == 1.0 else theta / step
            X, Y, (f, r, result) = Xt, Yt, trial
            history.append(f)
        if best is None or f < best[1][-1]:
            best = (result, tuple(history), restart, f <= tol)
        if best[3]:
            break
    return best


def alternate(P, lam, k: int, settings: SolveSettings | None = None) -> SolveOutcome:
    """Multi-restart Riemannian Levenberg–Marquardt search for a factorization.

    ``P`` is a :class:`~corrgen.correlation.Correlation`, so the target was
    checked when it was built, and ``lam`` is the 1-D vector of √λ entries,
    the diagonal of Λ.  Runs :func:`levenberg_marquardt_search`, with its
    restarts and its give-up rule, on the merit f described in the module
    docstring, from random points of the Stiefel manifolds, with the
    CholeskyQR retraction of the steps.  ``converged`` means f ≤ τ·τ with
    τ = ``residual_tol``, so every cell of T is within τ of P (module
    docstring), and ``objective`` is ‖T − P‖² of the returned factors.
    An infeasible Λ is not an error — it simply yields a high residual and
    ``converged=False`` — but a Λ so large that the search overflows
    floating point, and a target whose J would exceed
    ``MAX_JACOBIAN_ENTRIES`` entries (for instance 100×100 with k = 4),
    raise :class:`FactorizationError`.  The budget check comes after one
    evaluation of the start point, whose largest array is the n·m×k×k
    stack M.
    """
    settings = settings or SolveSettings()
    P = P.matrix
    lam = nonnegative(lam, FactorizationError, "Lambda", ndim=1)
    if k != lam.size:
        raise FactorizationError("k must equal the number of Lambda entries")
    n, m = P.shape
    s = np.sqrt(lam)
    rows = _residual_rows(P, k, _simple_roots(n, m, k, int(np.sum(P == 0))))

    try:
        with np.errstate(over="raise", invalid="raise"):
            (_, XS, YS), history, restart, converged = levenberg_marquardt_search(
                partial(_random_stiefel, n=n, m=m, k=k), partial(_evaluate, rows, s),
                partial(_jacobian, s, rows), _step_retract, settings)
    except FloatingPointError as exc:
        raise FactorizationError(f"the search with this Lambda overflows: {exc}") from exc
    F = DiagonalPsdFactorization(np.swapaxes(XS, 1, 2) @ XS, np.swapaxes(YS, 1, 2) @ YS, lam)
    return SolveOutcome(F, restart, converged, history, float(np.sum((P - F.trace_table()) ** 2)))


def verify(P, F: DiagonalPsdFactorization, tol: float = SolveSettings.residual_tol) -> VerifyResult:
    """Check a candidate factorization cell by cell against the Correlation P.

    ``residual`` is the max cell error |P(x,y) − tr(C_x D_y)|;
    ``feasibility`` covers the factor-sum deviation from Λ and any
    negative eigenvalues.  ``tol`` must be a real number, finite and ≥ 0;
    its default is the τ of a search, so a converged witness passes.
    """
    if not 0 <= real(tol, FactorizationError, "the verify tolerance (finite, >= 0)") < np.inf:
        raise FactorizationError("the verify tolerance must be finite and >= 0")
    P = P.matrix
    if P.shape != (F.C.shape[0], F.D.shape[0]):
        raise FactorizationError("factorization shape does not match the correlation")
    residual = float(abs(P - F.trace_table()).max())
    feasibility = F.feasibility_error()
    return VerifyResult(residual, feasibility, residual <= tol and feasibility <= tol)


def lambda_candidates_from_purifications(P) -> list[np.ndarray]:
    """Λ candidates (√λ entry vectors, sorted descending) from named purifications.

    (a) the canonical purification, whose Schmidt coefficients are the
    singular values of the entrywise square root of P; (b) for 2×2
    supports, the CNOT-twisted purification.  Each candidate is the √λ of
    :func:`~corrgen.purify.schmidt_spectrum`, whose rounding-level cut
    decides which singular values count.
    """
    from .purify import canonical_purification, cnot_purification, schmidt_spectrum

    states = [canonical_purification(P)]
    if P.matrix.shape == (2, 2):
        states.append(cnot_purification(P))
    return [schmidt_spectrum(state).sqrt_lambdas() for state in states]
