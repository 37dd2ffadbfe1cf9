"""Classical-seed pipeline: channel extraction, the A P₁ Bᵀ feasibility
search, and the SUBSET-SUM reduction builders with an exact oracle.

Quantum local operations give no extra reachability when both seed and
target are classical, so the search below is over pairs of
column-stochastic matrices only, built as squares of unit columns and
searched by the factorization search's Levenberg–Marquardt steps.  The
search is a heuristic; a failed search is not an infeasibility proof.
Exact decisions are available precisely where the reduction proofs give
structure: a diagonal seed against the half-identity target reduces to
SUBSET-SUM, which the oracle settles in exact integer arithmetic.  A
built hardness instance is decided from its own integers.  A float diagonal is read as rationals
with denominators ≤ ``MAX_DENOMINATOR``, each within ``MAX_ULPS`` ulps
of its entry; if it does not read so, no exact decision is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
import math

import numpy as np

from .conditions import SchmidtSpectrum
from .correlation import Correlation
from .factorize import (DiagonalPsdFactorization, SolveSettings, best_of_restarts,
                        levenberg_marquardt_blocks)


class ClassicalError(ValueError):
    pass


class InstanceTooLarge(ClassicalError):
    pass


MAX_ORACLE_ITEMS = 50
#: Largest prefix table, in bits (r rows of total + 1 sums), the oracle builds.
MAX_ORACLE_BITS = 2 ** 30
#: Two rationals with denominators ≤ 2²⁰ differ by at least 2⁻⁴⁰ ≈ 9e-13,
#: far above float rounding, so a float within a few ulps of one names it.
MAX_DENOMINATOR = 2 ** 20
MAX_ULPS = 4


@dataclass(frozen=True)
class StochasticTransformPair:
    """Column-stochastic matrices (A, B) witnessing P₂ ≈ A P₁ Bᵀ."""

    A: np.ndarray
    B: np.ndarray

    def __init__(self, A, B) -> None:
        A = np.array(A, dtype=float)
        B = np.array(B, dtype=float)
        for name, mat in (("A", A), ("B", B)):
            if mat.ndim != 2:
                raise ClassicalError(f"{name} must be a matrix")
            if not np.all(np.isfinite(mat)):
                raise ClassicalError(f"{name} entries must be finite")
            if np.min(mat) < -1e-12:
                raise ClassicalError(f"{name} has negative entries")
            if np.max(np.abs(mat.sum(axis=0) - 1.0)) > 1e-10:
                raise ClassicalError(f"columns of {name} must sum to 1")
            mat = np.clip(mat, 0.0, None)
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)

    def apply(self, P1: Correlation) -> np.ndarray:
        return self.A @ P1.matrix @ self.B.T


@dataclass(frozen=True)
class SubsetSumInstance:
    """Positive integers a₁…a_r with implicit target T = Σaᵢ/2."""

    items: tuple[int, ...]

    def __init__(self, items) -> None:
        items = tuple(int(a) for a in items)
        if not items or any(a < 1 for a in items):
            raise ClassicalError("items must be positive integers")
        object.__setattr__(self, "items", items)

    @property
    def total(self) -> int:
        return sum(self.items)


@dataclass(frozen=True)
class OracleResult:
    satisfiable: bool
    witness: tuple[int, ...]  # indices into items; empty when unsatisfiable


def subset_sum_oracle(inst: SubsetSumInstance) -> OracleResult:
    """Exact half-sum decision with witness, by bitset dynamic programming.

    Reachable sums are tracked as bits of a Python integer; the witness
    is reconstructed by peeling items off the prefix tables.  An odd
    total is immediately unsatisfiable, whatever its size.  Instances
    with more than ``MAX_ORACLE_ITEMS`` items, or an even total whose
    table needs more than ``MAX_ORACLE_BITS`` bits, raise
    :class:`InstanceTooLarge` before anything is allocated.
    """
    r = len(inst.items)
    if r > MAX_ORACLE_ITEMS:
        raise InstanceTooLarge(f"oracle is desk-scale only (r <= {MAX_ORACLE_ITEMS})")
    total = inst.total
    if total % 2 == 1:
        return OracleResult(False, ())
    if r * (total + 1) > MAX_ORACLE_BITS:
        raise InstanceTooLarge(f"oracle table of {r} x {total + 1} bits exceeds "
                               f"the budget of 2^{MAX_ORACLE_BITS.bit_length() - 1}")

    prefix = [1]  # prefix[i] = bitset of sums over items[:i]
    reach = 1
    for a in inst.items:
        reach |= reach << a
        prefix.append(reach)
    remaining = total // 2
    if not (reach >> remaining) & 1:
        return OracleResult(False, ())

    witness = []
    for i in range(r - 1, -1, -1):
        a = inst.items[i]
        # take item i iff the rest of the sum is reachable without it
        if remaining >= a and (prefix[i] >> (remaining - a)) & 1:
            witness.append(i)
            remaining -= a
        # else remaining must be reachable in prefix[i] already
    if remaining != 0:
        raise ClassicalError("oracle witness does not reach half the total")
    return OracleResult(True, tuple(sorted(witness)))


#: The target of both hardness reductions; one shared, immutable object.
HALF_IDENTITY = Correlation([[0.5, 0.0], [0.0, 0.5]])


@dataclass(frozen=True)
class QuantumHardnessInstance:
    spectrum: SchmidtSpectrum
    target: Correlation
    item_order: tuple[int, ...]           # spectrum position -> original item index
    subset_sum: SubsetSumInstance

    @property
    def exact_lambdas(self) -> tuple[Fraction, ...]:
        """λᵢ = aᵢ/Σa as exact rationals, aligned with the sorted spectrum."""
        items, total = self.subset_sum.items, self.subset_sum.total
        return tuple(Fraction(items[i], total) for i in self.item_order)


@dataclass(frozen=True)
class ClassicalHardnessInstance:
    seed: Correlation
    target: Correlation
    subset_sum: SubsetSumInstance

    @property
    def exact_lambdas(self) -> tuple[Fraction, ...]:
        """λᵢ = aᵢ/Σa as exact rationals, aligned with the seed diagonal."""
        total = self.subset_sum.total
        return tuple(Fraction(a, total) for a in self.subset_sum.items)


def build_quantum_hardness_instance(inst: SubsetSumInstance) -> QuantumHardnessInstance:
    """Seed spectrum λᵢ = aᵢ/Σa (sorted descending) and target ½I₂."""
    total = inst.total
    order = sorted(range(len(inst.items)), key=lambda i: inst.items[i], reverse=True)
    # int / int is correctly rounded, so each λᵢ is the float nearest aᵢ/Σa
    lam = np.array([inst.items[i] / total for i in order])
    return QuantumHardnessInstance(SchmidtSpectrum(lam), HALF_IDENTITY, tuple(order), inst)


def build_classical_hardness_instance(inst: SubsetSumInstance) -> ClassicalHardnessInstance:
    """Diagonal seed diag(λ₁…λ_r) and target ½I₂."""
    total = inst.total
    seed = Correlation(np.diag([a / total for a in inst.items]))
    return ClassicalHardnessInstance(seed, HALF_IDENTITY, inst)


def schmidt_basis_protocol(spectrum: SchmidtSpectrum, subset) -> DiagonalPsdFactorization:
    """Measure in the Schmidt basis and group outcomes by subset membership.

    Yields the diagonal-form factorization of ½I₂ with Λ = diag(√λ):
    C₁ = D₁ the √λ diagonal restricted to the subset, C₂ = D₂ the
    complement.  The subset must carry mass 1/2.
    """
    subset = sorted(set(int(i) for i in subset))
    r = spectrum.rank
    if any(i < 0 or i >= r for i in subset):
        raise ClassicalError("subset indices out of range")
    mass = float(np.sum(spectrum.lambdas[subset])) if subset else 0.0
    if abs(mass - 0.5) > 1e-10:
        raise ClassicalError(f"subset mass must be 1/2, got {mass}")
    sel = np.zeros(r)
    sel[subset] = 1.0
    sq = spectrum.sqrt_lambdas()
    C = np.stack([np.diag(sq * sel), np.diag(sq * (1.0 - sel))])
    return DiagonalPsdFactorization(C, C.copy(), sq)


def kraus_to_stochastic(kraus) -> np.ndarray:
    """Classical channel induced by a quantum channel in the label basis.

    Entry (x', x) is Σᵢ|⟨x'|Eᵢ|x⟩|²; trace preservation of the Kraus set
    makes the result column-stochastic.
    """
    mats = [np.asarray(E, dtype=complex) for E in kraus]
    if not mats:
        raise ClassicalError("empty Kraus set")
    comp = sum(E.conj().T @ E for E in mats)
    if np.max(np.abs(comp - np.eye(mats[0].shape[1]))) > 1e-8:
        raise ClassicalError("Kraus set is not trace preserving")
    return np.sum([np.abs(E) ** 2 for E in mats], axis=0)


@dataclass(frozen=True)
class ClassicalSearchResult:
    pair: StochasticTransformPair
    residual: float           # squared Frobenius error ‖P₂ − A P₁ Bᵀ‖²
    converged: bool
    residual_history: tuple[float, ...] = ()


def _normalize_columns(Z: np.ndarray) -> np.ndarray:
    """Retraction onto the oblique manifold: every column scaled to unit norm."""
    return Z / np.linalg.norm(Z, axis=0)


def _stochastic_jacobian(P1: np.ndarray, U: np.ndarray, V: np.ndarray, AB) -> np.ndarray:
    """Jacobian of T = A·P₁·Bᵀ, A = U∘U and B = V∘V, on the oblique tangent spaces.

    ∂T_xy/∂U_ij = 2U_ij·δ_xi·(P₁Bᵀ)_jy, so the gradient of cell (x, y)
    lives in row x of U; its tangent projection g_j − u_j(u_jᵀg_j) adds
    −2U_ij·A_xj·(P₁Bᵀ)_jy to every row.  The V part is built the same
    way from A·P₁.  J is dense, n₂m₂ × (n₂n₁ + m₂m₁), columns as (U, V).
    """
    n2, m2 = U.shape[0], V.shape[0]
    A, B = AB
    GU = 2.0 * U[:, None, :] * (P1 @ B.T).T          # (x, y, j): 2U_xj (P₁Bᵀ)_jy
    GV = 2.0 * V[None, :, :] * (A @ P1)[:, None, :]  # (x, y, l): 2V_yl (AP₁)_xl
    J = np.empty((n2, m2, U.size + V.size))
    JU = J[..., :U.size].reshape(n2, m2, *U.shape)
    JV = J[..., U.size:].reshape(n2, m2, *V.shape)
    np.multiply(-U, (U[:, None, :] * GU)[:, :, None, :], out=JU)
    np.multiply(-V, (V[None, :, :] * GV)[:, :, None, :], out=JV)
    JU[np.arange(n2), :, np.arange(n2)] += GU
    JV[:, np.arange(m2), np.arange(m2)] += GV
    return J.reshape(n2 * m2, -1)


def classical_feasible_search(P1: Correlation, P2: Correlation,
                              settings: SolveSettings | None = None) -> ClassicalSearchResult:
    """Levenberg–Marquardt search for P₂ ≈ A P₁ Bᵀ over stochastic A, B.

    A = U∘U and B = V∘V with unit columns of U and V (the oblique
    manifold; Absil & Gallivan, ICASSP 2006), so every iterate is
    column-stochastic.  Each restart starts from normalized Gaussian
    columns and runs :func:`corrgen.factorize.levenberg_marquardt_blocks`,
    with its ``PROGRESS_TOL`` give-up rule and column normalization as the
    retraction; restarts and the choice of the best one are those of
    :func:`corrgen.factorize.best_of_restarts`.
    A zero entry of U or V has zero gradient, so a restart can end on a
    face of the simplex.  Non-convergence is reported, not thrown, and
    does not certify infeasibility.  A J of more than
    ``factorize.MAX_JACOBIAN_ENTRIES`` entries raises ``FactorizationError``.
    """
    settings = settings or SolveSettings()
    seed, target = P1.matrix, P2.matrix
    (n2, m2), (n1, m1) = target.shape, seed.shape

    def evaluate(U, V):
        A, B = U * U, V * V
        R = A @ seed @ B.T - target
        return float(np.sum(R ** 2)), R.ravel(), (A, B)

    def search(rng):
        U = _normalize_columns(rng.standard_normal((n2, n1)))
        V = _normalize_columns(rng.standard_normal((m2, m1)))
        return levenberg_marquardt_blocks(U, V, evaluate, partial(_stochastic_jacobian, seed),
                                          _normalize_columns, settings)

    (A, B), history, _, converged = best_of_restarts(search, settings)
    return ClassicalSearchResult(StochasticTransformPair(A, B), history[-1], converged, history)


def is_diag_to_half_identity(P1: Correlation, P2: Correlation, tol: float = 1e-12) -> bool:
    """Whether (P1, P2) is a diagonal-seed → ½I₂ instance with exact decision."""
    off = P1.matrix - np.diag(np.diag(P1.matrix))
    if P1.n != P1.m or np.max(np.abs(off)) > tol:
        return False
    return P2.matrix.shape == (2, 2) and np.max(np.abs(P2.matrix - HALF_IDENTITY.matrix)) <= tol


def decide_diag_to_half_identity(P1: Correlation) -> OracleResult | None:
    """Exact feasibility of diag(λ) → ½I₂ by the forced-binary structure.

    Any stochastic witness pair is forced to 0/1 entries, so feasibility
    is exactly the existence of a diagonal subset of mass 1/2, decided on
    the entries read as rationals; ``None`` (no exact decision) when they
    do not read so.
    """
    diag = np.diag(P1.matrix).tolist()
    fracs = [Fraction(x).limit_denominator(MAX_DENOMINATOR) for x in diag]
    if any(abs(float(f) - x) > MAX_ULPS * math.ulp(x) for f, x in zip(fracs, diag)):
        return None
    denom = math.lcm(*(f.denominator for f in fracs))
    keep = [i for i, f in enumerate(fracs) if f]  # zero-mass labels join neither group
    res = subset_sum_oracle(SubsetSumInstance(int(fracs[i] * denom) for i in keep))
    return OracleResult(res.satisfiable, tuple(keep[j] for j in res.witness))


def decide_classical_hardness_instance(inst: ClassicalHardnessInstance) -> OracleResult:
    """Exact feasibility of a built diag(λ) → ½I₂ instance.

    The seed has λᵢ = aᵢ/Σa, so a subset has mass 1/2 exactly when its
    items sum to half the total: the oracle decides the instance from
    the items it was built from, with no float or rational step.
    """
    return subset_sum_oracle(inst.subset_sum)
