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
The solver minimizes ‖P − tr(C_x D_y)‖² jointly over the two Stiefel
manifolds (Wen & Yin, Math. Prog. 2013; Vandaele, Glineur & Gillis,
Comput. Optim. Appl. 2018), with multiple deterministic restarts.
Every iterate is feasible to rounding error, so the search only ever
trades objective, never feasibility.  A failed search means "no
factorization found", never "infeasible".

Real symmetric matrices only.  Complex Hermitian factors could in
principle exist where real ones do not; this is a documented limitation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Sufficient-decrease constant of the Armijo line search.
ARMIJO = 1e-4


class FactorizationError(ValueError):
    """Raised for structurally invalid factorizations or solver inputs."""


def _as_sqrt_lambda(lam, squared: bool = False) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
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
        C = np.array(C, dtype=float)
        D = np.array(D, dtype=float)
        lam = _as_sqrt_lambda(lam, squared=lam_squared)
        k = lam.size
        if C.ndim != 3 or D.ndim != 3 or C.shape[1:] != (k, k) or D.shape[1:] != (k, k):
            raise FactorizationError("factor stacks must have shape (count, k, k)")
        for a in (C, D, lam):
            a.setflags(write=False)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "lam", lam)

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
        worst = 0.0
        for stack in (self.C, self.D):
            for mat in stack:
                ev = np.linalg.eigvalsh(0.5 * (mat + mat.T))
                worst = min(worst, float(ev[0]))
        return -worst

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
        try:
            return cls(data["C"], data["D"], data["lambda"])
        except KeyError as exc:
            raise FactorizationError(f"factorization JSON missing key {exc}") from exc


@dataclass(frozen=True)
class SolveSettings:
    max_outer_iters: int = 500
    residual_tol: float = 1e-9
    stall_tol: float = 1e-12
    stall_window: int = 10
    restarts: int = 10
    rng_seed: int = 12345
    max_inner_iters: int = 250
    feasibility_tol: float = 1e-8
    stationarity_tol: float = 1e-10
    max_backtracks: int = 40

    def __post_init__(self):
        if min(self.max_outer_iters, self.restarts, self.max_inner_iters,
               self.stall_window) < 1:
            raise FactorizationError("iteration counts must be >= 1")
        if min(self.residual_tol, self.stall_tol, self.feasibility_tol,
               self.stationarity_tol) <= 0:
            raise FactorizationError("tolerances must be positive")


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
    """Objective ‖T − P‖², the two factor stacks and the residual R = T − P."""
    C, D = _factor_stack(s, X), _factor_stack(s, Y)
    R = np.einsum("xab,yba->xy", C, D) - P
    return float(np.sum(R ** 2)), C, D, R


def _riemannian_gradient(s: np.ndarray, Z: np.ndarray, other: np.ndarray,
                         R: np.ndarray) -> np.ndarray:
    """Gradient of ‖T − P‖² on the Stiefel manifold of Z, the other side fixed.

    ``other`` is the opposite factor stack and ``R`` the residual with
    Z's labels on its first axis.  The Euclidean gradient of block Zₓ is
    4·Zₓ·S(Σ_y R_xy D_y)S; projecting it onto the tangent space gives
    G − Z·sym(ZᵀG).
    """
    E = np.einsum("xy,yab->xab", R, other)
    G = 4.0 * (Z * s) @ (E * s)
    ZtG = np.einsum("xab,xac->bc", Z, G)
    return G - Z @ (0.5 * (ZtG + ZtG.T))


def alternate(P, lam, k: int, settings: SolveSettings | None = None,
              lam_squared: bool = False) -> SolveOutcome:
    """Multi-restart Riemannian descent for a diagonal-form factorization.

    Each restart draws (X, Y) at random from the Stiefel manifolds and
    minimizes ‖T − P‖² jointly over both, by Barzilai–Borwein steps
    accepted under Armijo backtracking.  One outer iteration is a block
    of up to ``max_inner_iters`` steps, ending early at a point with
    objective ≤ ``residual_tol``, gradient norm < ``stationarity_tol``,
    or no acceptable step.  A restart ends when it converges, when its
    block ends stuck, when the objective stalls over ``stall_window``
    blocks, or at the iteration cap; the best restart wins (ties broken
    by lower restart index).  An infeasible Λ is not an error — it
    simply yields a high residual and ``converged=False``.
    """
    from .correlation import Correlation

    settings = settings or SolveSettings()
    if isinstance(P, Correlation):
        P = P.matrix
    P = np.asarray(P, dtype=float)
    if P.ndim != 2:
        raise FactorizationError("P must be a 2-D table")
    lam = _as_sqrt_lambda(lam, squared=lam_squared)
    if k != lam.size:
        raise FactorizationError("k must equal the number of Lambda entries")
    n, m = P.shape
    s = np.sqrt(lam)

    best = None
    for restart in range(settings.restarts):
        rng = np.random.default_rng(settings.rng_seed + restart)
        X, Y = _random_stiefel(rng, n, k), _random_stiefel(rng, m, k)
        f, C, D, R = _evaluate(P, s, X, Y)
        gX = _riemannian_gradient(s, X, D, R)
        gY = _riemannian_gradient(s, Y, C, R.T)
        step = 1.0
        history = []
        converged = stuck = False
        for _ in range(settings.max_outer_iters):
            for _ in range(settings.max_inner_iters):
                gnorm2 = float(np.sum(gX ** 2) + np.sum(gY ** 2))
                if f <= settings.residual_tol:
                    break
                if gnorm2 < settings.stationarity_tol ** 2:
                    stuck = True
                    break
                for _ in range(settings.max_backtracks):
                    Xt, Yt = _retract(X - step * gX), _retract(Y - step * gY)
                    ft, Ct, Dt, Rt = _evaluate(P, s, Xt, Yt)
                    if ft <= f - ARMIJO * step * gnorm2:
                        break
                    step *= 0.5
                else:
                    stuck = True
                    break
                gXt = _riemannian_gradient(s, Xt, Dt, Rt)
                gYt = _riemannian_gradient(s, Yt, Ct, Rt.T)
                # Barzilai–Borwein step from the last move and gradient change
                dX, dY = Xt - X, Yt - Y
                sy = abs(float(np.sum(dX * (gXt - gX)) + np.sum(dY * (gYt - gY))))
                if sy > 0:
                    step = float(np.sum(dX ** 2) + np.sum(dY ** 2)) / sy
                X, Y, f, C, D, gX, gY = Xt, Yt, ft, Ct, Dt, gXt, gYt
            history.append(f)
            if f <= settings.residual_tol:
                converged = True
                break
            if stuck:
                break
            w = settings.stall_window
            if len(history) > w:
                drop = history[-w - 1] - history[-1]
                if drop < settings.stall_tol * max(history[-w - 1], 1e-30):
                    break
        outcome = SolveOutcome(
            factorization=DiagonalPsdFactorization(C, D, lam),
            objective=history[-1],
            iterations=len(history),
            restart_index=restart,
            converged=converged,
            objective_history=tuple(history),
        )
        if best is None or outcome.objective < best.objective:
            best = outcome
        if best.converged:
            break
    return best


def verify(P, F: DiagonalPsdFactorization, tol: float = 1e-6) -> VerifyResult:
    """Check a candidate factorization against P cell by cell.

    ``residual`` is the max cell error |P(x,y) − tr(C_x D_y)|;
    ``feasibility`` covers the factor-sum deviation from Λ and any
    negative eigenvalues.
    """
    from .correlation import Correlation

    if isinstance(P, Correlation):
        P = P.matrix
    P = np.asarray(P, dtype=float)
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
