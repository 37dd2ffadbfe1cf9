"""Schmidt decompositions and the factorization ↔ purification bridge.

A diagonal-form PSD factorization of P with factor sum Λ = diag(√λ)
corresponds exactly to a purification of the classical-classical state
of P whose Schmidt coefficients are √λ.  Both directions of that
correspondence are constructive: factor matrix square roots give the
purification vector families, and Gram matrices of those families give
back the factors.  Both directions are judged by one rule,
``DiagonalPsdFactorization.validate`` (τ = ``SolveSettings.residual_tol``,
as in ``verify``): the way there judges the factorization it roots, and
the way back the factorization it builds.  A :class:`PurificationBundle`
holds only its families and the state they induce.

Real arithmetic throughout, matching the factorization module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .conditions import DEFAULT_ALPHAS, ConditionReport, SchmidtSpectrum, check_all
from .correlation import Correlation, CorrgenError, float_array, integers, unit_sums

if TYPE_CHECKING:  # the solver module loads only where a factorization is built
    from .factorize import DiagonalPsdFactorization


#: c in the SVD's rounding level c·max(n, m)·ε·σ₁, below which
#: :func:`schmidt_spectrum` reads a singular value as zero.  The computed σ
#: are the exact singular values of a matrix within p(n, m)·ε·σ₁ of the
#: input in the 2-norm (LAPACK Users' Guide, §4.9), where p grows with the
#: size through the Householder bidiagonalization (Higham, *Accuracy and
#: Stability of Numerical Algorithms*, ch. 19); p is taken as c·max(n, m).
#: c = 8 is 14 times the largest spurious σ measured on 20,000 exactly
#: low-rank √P tables, 0.57·max(n, m)·ε·σ₁.
SVD_ROUNDING = 8


class PurificationError(CorrgenError):
    pass


@dataclass(frozen=True, eq=False)
class PureStateMatrix:
    """Bipartite pure state as its amplitude matrix M, |ψ⟩ = Σ M(a,b)|a⟩|b⟩.

    The squares of M must sum to 1 by :func:`~corrgen.correlation.unit_sums`,
    and M is divided by the root of the divisor it returns: rescaled to
    unit norm where they sum further than ``MASS_TOL`` from 1, and kept to
    the bit where they do not.
    """

    amplitudes: np.ndarray

    def __init__(self, amplitudes) -> None:
        m = float_array(amplitudes, PurificationError, "amplitudes", ndim=2)
        with np.errstate(over="ignore"):  # a square beyond the float range is inf, and refused
            m = m / np.sqrt(unit_sums(m ** 2, PurificationError, "squared amplitudes"))
        m.setflags(write=False)
        object.__setattr__(self, "amplitudes", m)


def schmidt_spectrum(state: PureStateMatrix) -> SchmidtSpectrum:
    """Squared singular values of the amplitude matrix, descending.

    A singular value σ of the n×m amplitude matrix counts if it lies above
    the SVD's rounding level ``SVD_ROUNDING``·max(n, m)·ε·σ₁: by Weyl's
    inequality no computed σ is further than that from the exact one, so
    a σ that is zero in the input never counts, and a product state keeps
    Schmidt rank 1.  The limit of the rule: an entry of λ below about
    (``SVD_ROUNDING``·max(n, m)·ε)² of the largest reads as rank loss.  A
    permuted diagonal, with at most one nonzero entry per row and per
    column (the canonical purification of a diagonal seed), needs no SVD
    and no cut: its singular values are its entries in absolute value, so
    λ is read from their squares, and only a square that underflows to 0
    is lost.
    """
    support = state.amplitudes != 0
    if max(support.sum(axis=0).max(), support.sum(axis=1).max()) <= 1:
        lam = state.amplitudes[support] ** 2
        return SchmidtSpectrum(lam[lam > 0])
    sv = np.linalg.svd(state.amplitudes, compute_uv=False)
    cut = SVD_ROUNDING * max(state.amplitudes.shape) * np.finfo(float).eps * sv[0]
    return SchmidtSpectrum(sv[sv > cut] ** 2)


@dataclass(frozen=True, eq=False)
class PurificationBundle:
    """Per-label vector families {v_x^i}, {w_y^i} of a purification.

    ``v`` has shape (n, k, d): ``v[x, i]`` is the ancilla vector paired
    with label x in the i-th Schmidt term.  The families of a purification
    satisfy Σ_x ⟨v_x^j|v_x^i⟩ = δ_ij √λ_i, and likewise for ``w``; the
    constructor checks only the shapes, and :func:`purification_to_factorization`
    judges that Gram condition.
    """

    v: np.ndarray
    w: np.ndarray

    def __init__(self, v, w) -> None:
        v = float_array(v, PurificationError, "vector family v", ndim=3)
        w = float_array(w, PurificationError, "vector family w", ndim=3)
        if v.shape[1] != w.shape[1]:
            raise PurificationError("vector families must share the Schmidt index range")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    def induced_state(self) -> PureStateMatrix:
        """Amplitude matrix of Σᵢ(Σₓ|x⟩|v_x^i⟩)⊗(Σ_y|y⟩|w_y^i⟩) across the cut."""
        n, k, dv = self.v.shape
        m, _, dw = self.w.shape
        amp = np.einsum("xia,yib->xayb", self.v, self.w).reshape(n * dv, m * dw)
        return PureStateMatrix(amp)


def _psd_sqrt(mats: np.ndarray) -> np.ndarray:
    """Symmetric square roots of a stack of matrices, each negative eigenvalue read as 0."""
    from .factorize import _sym

    vals, vecs = np.linalg.eigh(_sym(mats))
    return (vecs * np.sqrt(np.maximum(vals, 0.0))[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def factorization_to_purification(F: DiagonalPsdFactorization) -> PurificationBundle:
    """Vector families from factor square roots: v_x^i = i-th column of √C_x, w_y^i of √D_y.

    ``F.validate()`` judges F first, by the τ rule of
    :func:`~corrgen.factorize.verify`, so a witness that ``verify`` accepts
    at its default is taken, and its factors' eigenvalues within τ below 0
    are read as 0.  Each factor's symmetric part is the one rooted, and a
    stack shared by C and D (``D is C``) is rooted once.
    """
    F.validate()
    roots = [np.swapaxes(_psd_sqrt(S), 1, 2) for S in F._stacks()]
    return PurificationBundle(roots[0], roots[-1])


def purification_to_factorization(bundle: PurificationBundle) -> DiagonalPsdFactorization:
    """Gram-matrix construction: C_x(j,i) = ⟨v_x^j|v_x^i⟩, D_y from w, Λ the diagonal of ΣC.

    The Gram stacks are PSD by construction, so ``validate()``, the τ rule
    of :func:`~corrgen.factorize.verify`, tests that the cross terms
    Σ_x ⟨v_x^j|v_x^i⟩ (j ≠ i) vanish and the v and w weights agree within
    τ, and raises FactorizationError where they do not.  An overflowed
    Gram entry is refused as not finite.
    """
    from .factorize import DiagonalPsdFactorization

    C = np.einsum("xja,xia->xji", bundle.v, bundle.v)
    D = np.einsum("yja,yia->yij", bundle.w, bundle.w)
    lam = np.diag(np.einsum("xji->ji", C))
    G = DiagonalPsdFactorization(C, D, lam)
    G.validate()
    return G


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
    """Empirical n×m counts of i.i.d. cells ∝ tr(C_x D_y), drawn once ``F.validate()`` passes.

    A count outside the integers in [0, 2⁶³), which numpy's sampler takes,
    or a seed outside the nonnegative integers raises FactorizationError.
    """
    from .factorize import FactorizationError

    # numpy reads a float count as an integer, and a bool is one
    n_samples, rng_seed = integers((n_samples, rng_seed), FactorizationError,
                                   "the sample count and the sampling seed")
    if not (0 <= n_samples < 2 ** 63 and rng_seed >= 0):
        raise FactorizationError("the sample count must be an integer in [0, 2^63) and the sampling"
                                 f" seed a nonnegative integer, got {n_samples!r} and {rng_seed!r}")
    F.validate()
    probs = np.maximum(F.trace_table(), 0.0)
    if not probs.sum() > 0:
        raise FactorizationError("the cell table has no positive mass to sample")
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
