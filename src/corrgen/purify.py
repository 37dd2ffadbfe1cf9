"""Schmidt decompositions and the factorization ↔ purification bridge.

A diagonal-form PSD factorization of P with factor sum Λ = diag(√λ)
corresponds exactly to a purification of the classical-classical state
of P whose Schmidt coefficients are √λ.  Both directions of that
correspondence are constructive: factor matrix square roots give the
purification vector families, and Gram matrices of those families give
back the factors.

Real arithmetic throughout, matching the factorization module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import DEFAULT_ALPHAS, ConditionReport, SchmidtSpectrum, check_all
from .correlation import Correlation, CorrelationError
from .factorize import DiagonalPsdFactorization


class PurificationError(ValueError):
    pass


@dataclass(frozen=True)
class PureStateMatrix:
    """Bipartite pure state as its amplitude matrix M, |ψ⟩ = Σ M(a,b)|a⟩|b⟩."""

    amplitudes: np.ndarray

    def __init__(self, amplitudes) -> None:
        m = np.array(amplitudes, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise PurificationError("amplitudes must form a non-empty matrix")
        if not np.all(np.isfinite(m)):
            raise PurificationError("amplitudes must be finite")
        norm = float(np.sum(m ** 2))
        if norm <= 0:
            raise PurificationError("state must have positive norm")
        if abs(norm - 1.0) > 1e-12:
            if abs(norm - 1.0) > 1e-9:
                raise PurificationError("amplitude matrix is not normalized")
            m = m / np.sqrt(norm)
        m.setflags(write=False)
        object.__setattr__(self, "amplitudes", m)


def schmidt_spectrum(state: PureStateMatrix) -> SchmidtSpectrum:
    """Squared singular values of the amplitude matrix, descending.

    Values below 1e-12 are truncated; the surviving mass must still be 1
    within 1e-10.
    """
    sv = np.linalg.svd(state.amplitudes, compute_uv=False)
    lam = sv ** 2
    lam = lam[lam > 1e-12]
    if abs(lam.sum() - 1.0) > 1e-10:
        raise PurificationError("truncated Schmidt spectrum lost probability mass")
    return SchmidtSpectrum(lam)


@dataclass(frozen=True)
class PurificationBundle:
    """Per-label vector families {v_x^i}, {w_y^i} of a purification.

    ``v`` has shape (n, k, d): ``v[x, i]`` is the ancilla vector paired
    with label x in the i-th Schmidt term.  The families satisfy
    Σ_x ⟨v_x^j|v_x^i⟩ = δ_ij √λ_i, and likewise for ``w``.
    """

    v: np.ndarray
    w: np.ndarray

    def __init__(self, v, w) -> None:
        v = np.array(v, dtype=float)
        w = np.array(w, dtype=float)
        if v.ndim != 3 or w.ndim != 3 or v.shape[1] != w.shape[1]:
            raise PurificationError("vector families must share the Schmidt index range")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    @property
    def k(self) -> int:
        return self.v.shape[1]

    def gram_v(self) -> np.ndarray:
        # (k, k) matrix Σ_x ⟨v_x^j|v_x^i⟩
        return np.einsum("xia,xja->ij", self.v, self.v)

    def gram_w(self) -> np.ndarray:
        return np.einsum("yia,yja->ij", self.w, self.w)

    def sqrt_lambdas(self) -> np.ndarray:
        """The √λ_i values carried by the bundle's diagonal Gram pattern."""
        return np.diag(self.gram_v()).copy()

    def validate(self, tol: float = 1e-8) -> None:
        gv, gw = self.gram_v(), self.gram_w()
        off = max(np.max(np.abs(gv - np.diag(np.diag(gv)))),
                  np.max(np.abs(gw - np.diag(np.diag(gw)))))
        if off > tol:
            raise PurificationError("cross terms of the vector families do not vanish")
        if np.max(np.abs(np.diag(gv) - np.diag(gw))) > tol:
            raise PurificationError("v and w families disagree on the Schmidt weights")

    def induced_state(self) -> PureStateMatrix:
        """Amplitude matrix of Σᵢ(Σₓ|x⟩|v_x^i⟩)⊗(Σ_y|y⟩|w_y^i⟩) across the cut."""
        n, k, dv = self.v.shape
        m, _, dw = self.w.shape
        amp = np.einsum("xia,yib->xayb", self.v, self.w).reshape(n * dv, m * dw)
        return PureStateMatrix(amp)

    def traced_correlation(self) -> Correlation:
        """Partial trace over both ancillas, recovering the source correlation."""
        gx = np.einsum("xia,xja->xij", self.v, self.v)
        hy = np.einsum("yia,yja->yij", self.w, self.w)
        return Correlation(np.einsum("xij,yij->xy", gx, hy))


def _psd_sqrt(mat: np.ndarray, clamp: float = 1e-10) -> np.ndarray:
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] < -clamp:
        raise PurificationError("matrix square root of a non-PSD input")
    vals = np.sqrt(np.maximum(vals, 0.0))
    return (vecs * vals) @ vecs.T


def factorization_to_purification(F: DiagonalPsdFactorization) -> PurificationBundle:
    """Vector families from factor square roots: v_x^i = i-th column of √(C_xᵀ)."""
    n, m, k = F.C.shape[0], F.D.shape[0], F.k
    v = np.empty((n, k, k))
    w = np.empty((m, k, k))
    for x in range(n):
        root = _psd_sqrt(F.C[x].T)
        for i in range(k):
            v[x, i] = root[:, i]
    for y in range(m):
        root = _psd_sqrt(F.D[y])
        for i in range(k):
            w[y, i] = root[:, i]
    return PurificationBundle(v, w)


def purification_to_factorization(bundle: PurificationBundle) -> DiagonalPsdFactorization:
    """Gram-matrix construction: C_x(j,i) = ⟨v_x^j|v_x^i⟩, D_y from w."""
    bundle.validate()
    C = np.einsum("xja,xia->xji", bundle.v, bundle.v)
    D = np.einsum("yja,yia->yij", bundle.w, bundle.w)
    lam = np.diag(np.einsum("xji->ji", C))
    return DiagonalPsdFactorization(C, D, lam)


def canonical_purification(P: Correlation) -> PureStateMatrix:
    """Amplitude matrix of the purification Σ√P(x,y)|x⟩|y⟩|x⟩|y⟩ across AA₁|BB₁.

    Only rows (x,x) and columns (y,y) of the full amplitude matrix are
    nonzero, so the entrywise √P matrix carries the same singular
    values and is returned directly.
    """
    return PureStateMatrix(np.sqrt(P.matrix))


def cnot_purification(P: Correlation) -> PureStateMatrix:
    """CNOT-twisted purification Σ√P(x,y)|x⟩|y⟩ CNOT|x⟩|y⟩ for 2×2 supports."""
    if P.matrix.shape != (2, 2):
        raise PurificationError("the CNOT-twisted construction needs a 2×2 correlation")
    amp = np.zeros((4, 4))
    for x in range(2):
        for y in range(2):
            amp[2 * x + x, 2 * y + (y ^ x)] = np.sqrt(P.matrix[x, y])
    return PureStateMatrix(amp)


def sample_protocol(F: DiagonalPsdFactorization, n_samples: int, rng_seed: int) -> np.ndarray:
    """Empirical n×m counts of i.i.d. cells ∝ tr(C_x D_y), drawn once ``F.validate()`` passes."""
    F.validate()
    probs = np.maximum(F.trace_table(), 0.0)
    probs = probs / probs.sum()
    rng = np.random.default_rng(rng_seed)
    counts = rng.multinomial(n_samples, probs.ravel())
    return counts.reshape(probs.shape)


def mixed_seed_check(P_target: Correlation, P_seed: Correlation,
                     alphas=DEFAULT_ALPHAS) -> ConditionReport:
    """Necessary conditions for a classical-classical seed to generate the target.

    The seed's canonical purification is one specific purification, and
    its Schmidt spectrum must itself pass every pure-seed condition.
    """
    spectrum = schmidt_spectrum(canonical_purification(P_seed))
    return check_all(spectrum, P_target, alphas)
