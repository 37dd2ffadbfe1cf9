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
The solver minimizes f = ‖r‖², r = vec(tr(C_x D_y) − P), jointly over
the two Stiefel manifolds (Wen & Yin, Math. Prog. 2013; Vandaele,
Glineur & Gillis, Comput. Optim. Appl. 2018), with multiple
deterministic restarts.  The zeros of r are not isolated, so each step
is a Levenberg–Marquardt step d = −Jᵀ(JJᵀ + μI)⁻¹r, where J, the
Jacobian of the cell table on the product of the two tangent spaces
(Absil, Mahony & Sepulchre 2008, §8.4), is a dense n·m × (n+m)·k²
array.  The damping is μ = θ·‖r‖² (Yamashita & Fukushima, Computing
Suppl. 15, 2001) with θ ≥ 1: θ grows by 1/t after a step the line
search shortened to length t < 1 and halves, down to 1, after a full
step (Marquardt's rule, J. SIAM 11, 1963).  Its scale is
‖r‖², not ‖r‖: the cells of a normalized table shrink like 1/(n·m),
and μ = ‖r‖ swamps JᵀJ on all but the smallest targets.  The factor θ
matters where the residual does not vanish: there the undamped step
overshoots, and without θ every step backtracks several times.  The
step solves the smaller of the n·m and (n+m)·k² square systems, so it
costs O(n·m·(n+m)·k²·min(n·m, (n+m)·k²)) and is meant for desk-scale
targets; a J of more than ``MAX_JACOBIAN_ENTRIES`` entries is refused
before it is built.  A QR retraction and Armijo backtracking from length
1 complete the step.  The one slow-progress rule gives a restart up once
−⟨grad f, d⟩ ≤ ``PROGRESS_TOL``·f: the slope is one to two times the
decrease the model ‖r + Jd‖² predicts (Nocedal & Wright, *Numerical
Optimization*, ch. 4, §10.3), a ratio of order 1 on any path to a zero
residual.  The step loop,
:func:`levenberg_marquardt_blocks`, takes its objective, Jacobian and
retraction as arguments, and the classical search runs on it too.
Every iterate is feasible to rounding error, so the search only ever
trades objective, never feasibility.  A failed search means "no
factorization found", never "infeasible".

Real symmetric matrices only.  Complex Hermitian factors could in
principle exist where real ones do not; this is a documented limitation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
import itertools

import numpy as np

#: Sufficient-decrease constant of the Armijo line search.
ARMIJO = 1e-4
#: Halvings of the step before a line search gives up.
MAX_BACKTRACKS = 40
#: Predicted relative decrease, −⟨grad f, d⟩/f, at or below which a search stops.
PROGRESS_TOL = 1e-4
#: Gradient norm at which a search stops.
STATIONARITY_TOL = 1e-10

#: Largest Jacobian, in entries, that the search builds (128 MB of floats).
MAX_JACOBIAN_ENTRIES = 2 ** 24


class FactorizationError(ValueError):
    """Raised for structurally invalid factorizations or solver inputs."""


def _as_sqrt_lambda(lam, squared: bool = False) -> np.ndarray:
    try:
        lam = np.asarray(lam, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FactorizationError(f"Lambda must be an array of numbers: {exc}") from exc
    if not np.all(np.isfinite(lam)):
        raise FactorizationError("Lambda entries must be finite")
    if lam.ndim == 2:
        if np.max(np.abs(lam - np.diag(np.diag(lam)))) > 0:
            raise FactorizationError("Lambda must be diagonal")
        lam = np.diag(lam)
    if lam.ndim != 1 or lam.size == 0:
        raise FactorizationError("Lambda must be a non-empty diagonal")
    if np.any(lam < 0):
        raise FactorizationError("Lambda entries must be nonnegative")
    return np.sqrt(lam) if squared else lam.copy()


@dataclass(frozen=True)
class DiagonalPsdFactorization:
    """PSD factor families {C_x}, {D_y} with common diagonal factor sum Λ.

    ``lam`` holds the diagonal of Λ, i.e. the √λ entries — squared
    values are only exposed through :meth:`squared_lambdas` to keep the
    λ-vs-√λ convention in one place.
    """

    C: np.ndarray          # (n, k, k)
    D: np.ndarray          # (m, k, k)
    lam: np.ndarray        # (k,), entries √λ_i

    def __init__(self, C, D, lam, lam_squared: bool = False) -> None:
        try:
            C = np.array(C, dtype=float)
            D = np.array(D, dtype=float)
        except (TypeError, ValueError) as exc:
            raise FactorizationError(f"factor stacks must be arrays of numbers: {exc}") from exc
        lam = _as_sqrt_lambda(lam, squared=lam_squared)
        k = lam.size
        if C.ndim != 3 or D.ndim != 3 or C.shape[1:] != (k, k) or D.shape[1:] != (k, k):
            raise FactorizationError("factor stacks must have shape (count, k, k)")
        if not (np.all(np.isfinite(C)) and np.all(np.isfinite(D))):
            raise FactorizationError("factor entries must be finite")
        for name, a in (("C", C), ("D", D), ("lam", lam)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def k(self) -> int:
        return self.lam.size

    def squared_lambdas(self) -> np.ndarray:
        """The squared Schmidt coefficients λ_i = (Λ entries)²."""
        return self.lam ** 2

    def trace_table(self) -> np.ndarray:
        """The induced cell table tr(C_x D_y)."""
        return np.einsum("xab,yba->xy", self.C, self.D)

    def max_negative_eigenvalue(self) -> float:
        ev = np.linalg.eigvalsh(_sym(np.concatenate((self.C, self.D))))
        return -float(np.min(ev[:, 0], initial=0.0))

    def feasibility_error(self) -> float:
        """Max deviation of the factor sums from Λ plus PSD violation."""
        lam_diag = np.diag(self.lam)
        dev_c = np.max(np.abs(self.C.sum(axis=0) - lam_diag))
        dev_d = np.max(np.abs(self.D.sum(axis=0) - lam_diag))
        return float(max(dev_c, dev_d, self.max_negative_eigenvalue()))

    def validate(self, psd_tol: float = 1e-8, sum_tol: float = 1e-8,
                 cell_tol: float = 1e-10) -> None:
        if self.max_negative_eigenvalue() > psd_tol:
            raise FactorizationError("factor matrices are not PSD within tolerance")
        lam_diag = np.diag(self.lam)
        if np.max(np.abs(self.C.sum(axis=0) - lam_diag)) > sum_tol:
            raise FactorizationError("sum of C factors differs from Lambda")
        if np.max(np.abs(self.D.sum(axis=0) - lam_diag)) > sum_tol:
            raise FactorizationError("sum of D factors differs from Lambda")
        if np.min(self.trace_table()) < -cell_tol:
            raise FactorizationError("negative cell trace beyond tolerance")

    def to_json_dict(self, objective: float | None = None) -> dict:
        d = {"lambda": self.lam.tolist(), "C": self.C.tolist(), "D": self.D.tolist()}
        if objective is not None:
            d["objective"] = objective
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiagonalPsdFactorization":
        if not isinstance(data, dict):
            raise FactorizationError("factorization JSON must be an object")
        try:
            return cls(data["C"], data["D"], data["lambda"])
        except KeyError as exc:
            raise FactorizationError(f"factorization JSON missing key {exc}") from exc


@dataclass(frozen=True)
class SolveSettings:
    max_outer_iters: int = 500
    residual_tol: float = 1e-9
    restarts: int = 10
    rng_seed: int = 12345
    max_inner_iters: int = 250

    def __post_init__(self):
        if min(self.max_outer_iters, self.restarts, self.max_inner_iters) < 1:
            raise FactorizationError("iteration counts must be >= 1")
        if not self.residual_tol > 0:
            raise FactorizationError("residual_tol must be positive")


def best_of_restarts(search, settings: SolveSettings):
    """Run a block-wise search from seeded starts and keep the best restart.

    ``search(rng)`` starts from a point drawn with ``rng`` and yields
    ``(objective, stuck, result)`` after each block of steps.  Restart r
    gets ``default_rng(rng_seed + r)`` and ends after
    ``max_outer_iters`` blocks, at objective ≤ ``residual_tol``
    (converged), or on a stuck block, which is where slow progress ends
    it; no window of past objectives is kept.  The restart with the
    lowest final objective wins, ties going to the lower index, and the
    first converged restart ends the search.
    Returns the winner's ``(result, history, restart, converged)``.
    """
    best = None
    for restart in range(settings.restarts):
        blocks = search(np.random.default_rng(settings.rng_seed + restart))
        history = []
        for objective, stuck, result in itertools.islice(blocks, settings.max_outer_iters):
            history.append(objective)
            if objective <= settings.residual_tol or stuck:
                break
        if best is None or history[-1] < best[1][-1]:
            best = (result, tuple(history), restart, history[-1] <= settings.residual_tol)
        if best[3]:
            break
    return best


@dataclass(frozen=True)
class SolveOutcome:
    factorization: DiagonalPsdFactorization
    objective: float
    iterations: int
    restart_index: int
    converged: bool
    objective_history: tuple[float, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class VerifyResult:
    residual: float
    feasibility: float
    ok: bool

    def to_json_dict(self) -> dict:
        return {"residual": self.residual, "feasibility": self.feasibility, "ok": self.ok}


def _factor_stack(s: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The stack S·UₓUₓᵀ·S from blocks Z[x] = Uₓᵀ, with S = diag(s)."""
    ZS = Z * s
    return ZS.transpose(0, 2, 1) @ ZS


def _retract(Z: np.ndarray) -> np.ndarray:
    """QR retraction of a stack of blocks onto {ΣZₓᵀZₓ = I}.

    The sign of each column is fixed so that R has a nonnegative
    diagonal, which makes the retraction a function of Z alone.
    """
    q, r = np.linalg.qr(Z.reshape(-1, Z.shape[-1]))
    return (q * np.copysign(1.0, np.diag(r))).reshape(Z.shape)


def _random_stiefel(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    """A random point of {ΣZₓᵀZₓ = I}: ``count`` blocks of size k×k."""
    if count < 1 or k < 1:
        raise FactorizationError("need at least one label and one Lambda entry")
    return _retract(rng.standard_normal((count, k, k)))


def _evaluate(P: np.ndarray, s: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """Objective ‖T − P‖², the flat residual vec(T − P) and the factor stacks (C, D)."""
    C, D = _factor_stack(s, X), _factor_stack(s, Y)
    R = np.einsum("xab,yba->xy", C, D) - P
    return float(np.sum(R ** 2)), R.ravel(), (C, D)


def _sym(A: np.ndarray) -> np.ndarray:
    A = 0.5 * A  # halved before the sum, so A + Aᵀ cannot overflow
    return A + np.swapaxes(A, -1, -2)


def _jacobian(s: np.ndarray, X: np.ndarray, Y: np.ndarray, factors) -> np.ndarray:
    """Jacobian J of the cell table on the product of the tangent spaces.

    Row x·m + y is the tangent projection G − Z·sym(ZᵀG) of ∇T_xy,
    flattened as (X, Y).  ∇T_xy is 2·Xₓ·S D_y S in block x of X and
    2·Y_y·S Cₓ S in block y of Y, so its projection is −Z·sym(ZₓᵀG) in
    every block of Z plus G in its own one.  J is dense, n·m × (n+m)·k²,
    and is written in place: no other array of its size is made.
    """
    n, m = X.shape[0], Y.shape[0]
    C, D = factors
    GX = 2.0 * np.einsum("xab,ybc->xyac", X * s, D * s)
    GY = 2.0 * np.einsum("yab,xbc->xyac", Y * s, C * s)
    J = np.empty((n, m, X.size + Y.size))
    JX = J[..., :X.size].reshape((n, m) + X.shape)
    JY = J[..., X.size:].reshape((n, m) + Y.shape)
    np.matmul(-X, _sym(np.einsum("xab,xyac->xybc", X, GX))[:, :, None], out=JX)
    np.matmul(-Y, _sym(np.einsum("yab,xyac->xybc", Y, GY))[:, :, None], out=JY)
    JX[np.arange(n), :, np.arange(n)] += GX
    JY[:, np.arange(m), np.arange(m)] += GY
    return J.reshape(n * m, -1)


def _levenberg_marquardt(J: np.ndarray, r: np.ndarray, mu: float) -> np.ndarray:
    """The direction −Jᵀ(JJᵀ + μI)⁻¹r = −(JᵀJ + μI)⁻¹Jᵀr for damping μ > 0.

    The two forms are equal (push-through identity); the smaller of the
    JJᵀ and JᵀJ systems is solved.
    """
    rows, cols = J.shape
    if rows <= cols:
        return -(np.linalg.solve(J @ J.T + mu * np.eye(rows), r) @ J)
    return -np.linalg.solve(J.T @ J + mu * np.eye(cols), r @ J)


def levenberg_marquardt_blocks(X, Y, evaluate, jacobian, retract, settings: SolveSettings):
    """Blocks of the Levenberg–Marquardt steps described above, from (X, Y).

    ``evaluate(X, Y)`` returns ``(f, r, result)`` with f = ‖r‖²;
    ``jacobian(X, Y, result)`` returns the dense Jacobian of the flat
    residual r on the tangent spaces, columns flattened as (X, Y); and
    ``retract`` maps a moved block back onto its manifold.  A block is up
    to ``max_inner_iters`` steps and ends early at f ≤ ``residual_tol``,
    or stuck at gradient norm < ``STATIONARITY_TOL``, −slope ≤
    ``PROGRESS_TOL``·f or no acceptable step; then ``(f, stuck, result)``
    is yielded for :func:`best_of_restarts`.  A J of more than
    ``MAX_JACOBIAN_ENTRIES`` entries raises :class:`FactorizationError`.
    """
    f, r, result = evaluate(X, Y)
    if r.size * (X.size + Y.size) > MAX_JACOBIAN_ENTRIES:
        raise FactorizationError(
            f"a Jacobian of {r.size} x {X.size + Y.size} entries is over the budget"
            f" of 2^{MAX_JACOBIAN_ENTRIES.bit_length() - 1}")
    theta = 1.0
    while True:
        stuck = False
        for _ in range(settings.max_inner_iters):
            if f <= settings.residual_tol:
                break
            J = jacobian(X, Y, result)
            grad = 2.0 * (r @ J)
            d = _levenberg_marquardt(J, r, theta * f)
            slope = float(grad @ d)
            if grad @ grad < STATIONARITY_TOL ** 2 or -slope <= PROGRESS_TOL * f:
                stuck = True
                break
            dX, dY = d[:X.size].reshape(X.shape), d[X.size:].reshape(Y.shape)
            step = 1.0
            for _ in range(MAX_BACKTRACKS):
                Xt, Yt = retract(X + step * dX), retract(Y + step * dY)
                trial = evaluate(Xt, Yt)
                if trial[0] <= f + ARMIJO * step * slope:
                    break
                step *= 0.5
            else:
                stuck = True
                break
            theta = max(1.0, 0.5 * theta) if step == 1.0 else theta / step
            X, Y, (f, r, result) = Xt, Yt, trial
        yield f, stuck, result


def alternate(P, lam, k: int, settings: SolveSettings | None = None,
              lam_squared: bool = False) -> SolveOutcome:
    """Multi-restart Riemannian Levenberg–Marquardt search for a factorization.

    Each restart draws (X, Y) at random from the Stiefel manifolds and
    runs :func:`levenberg_marquardt_blocks`, and its give-up rule, on
    f = ‖vec(T − P)‖² with the QR retraction; restarts and the choice of
    the best restart are those of :func:`best_of_restarts`.  An
    infeasible Λ is not an error — it simply yields a high residual and
    ``converged=False``.  A target whose J would exceed
    ``MAX_JACOBIAN_ENTRIES`` entries (for instance 100×100 with k = 4)
    raises :class:`FactorizationError`.
    """
    settings = settings or SolveSettings()
    P = np.asarray(getattr(P, "matrix", P), dtype=float)  # a Correlation or a table
    if P.ndim != 2:
        raise FactorizationError("P must be a 2-D table")
    lam = _as_sqrt_lambda(lam, squared=lam_squared)
    if k != lam.size:
        raise FactorizationError("k must equal the number of Lambda entries")
    n, m = P.shape
    s = np.sqrt(lam)

    def search(rng):
        X, Y = _random_stiefel(rng, n, k), _random_stiefel(rng, m, k)
        return levenberg_marquardt_blocks(X, Y, partial(_evaluate, P, s),
                                          partial(_jacobian, s), _retract, settings)

    (C, D), history, restart, converged = best_of_restarts(search, settings)
    return SolveOutcome(
        factorization=DiagonalPsdFactorization(C, D, lam),
        objective=history[-1],
        iterations=len(history),
        restart_index=restart,
        converged=converged,
        objective_history=history,
    )


def verify(P, F: DiagonalPsdFactorization, tol: float = 1e-6) -> VerifyResult:
    """Check a candidate factorization against P cell by cell.

    ``residual`` is the max cell error |P(x,y) − tr(C_x D_y)|;
    ``feasibility`` covers the factor-sum deviation from Λ and any
    negative eigenvalues.
    """
    P = np.asarray(getattr(P, "matrix", P), dtype=float)  # a Correlation or a table
    if P.shape != (F.C.shape[0], F.D.shape[0]):
        raise FactorizationError("factorization shape does not match the correlation")
    residual = float(np.max(np.abs(P - F.trace_table())))
    feasibility = F.feasibility_error()
    return VerifyResult(residual, feasibility, residual <= tol and feasibility <= tol)


def lambda_candidates_from_purifications(P) -> list[np.ndarray]:
    """Λ candidates (√λ entry vectors, sorted descending) from named purifications.

    (a) the canonical purification, whose Schmidt coefficients are the
    singular values of the entrywise square root of P; (b) for 2×2
    supports, the CNOT-twisted purification.
    """
    from .purify import canonical_purification, cnot_purification

    candidates = []
    state = canonical_purification(P)
    sv = np.linalg.svd(state.amplitudes, compute_uv=False)
    candidates.append(np.sort(sv[sv > 1e-12])[::-1])
    if P.matrix.shape == (2, 2):
        sv = np.linalg.svd(cnot_purification(P).amplitudes, compute_uv=False)
        candidates.append(np.sort(sv[sv > 1e-12])[::-1])
    return candidates
