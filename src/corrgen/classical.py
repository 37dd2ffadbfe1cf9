"""Classical-seed pipeline: channel extraction, the A P₁ Bᵀ feasibility
search, and the SUBSET-SUM reduction builders with an exact oracle.

Quantum local operations give no extra reachability when both seed and
target are classical, so the search below is over pairs of
column-stochastic matrices only, built as squares of unit columns and
searched by the factorization search's restarts and Levenberg–Marquardt
steps, :func:`corrgen.factorize.levenberg_marquardt_search`.  The
search is a heuristic; a failed search is not an infeasibility proof.
Exact decisions are available precisely where the reduction proofs give
structure: a diagonal seed against the half-identity target reduces to
SUBSET-SUM, which the oracle settles in exact integer arithmetic.  A
built hardness instance holds its items alone and derives its seed and
target from them: the target is the shared ``HALF_IDENTITY``, and the
seed spectrum or diagonal is built when first read.  Deciding the instance
never reads the seed, since it is decided from its own integers.  A
float diagonal is read as rationals with denominators
≤ ``MAX_DENOMINATOR``, each within ``MAX_ULPS`` ulps of its entry; if it
does not read so, no exact decision is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
import math
import operator
from typing import ClassVar

import numpy as np

from .conditions import SchmidtSpectrum
from .correlation import (UNIT_SUM_TOL, Correlation, CorrgenError, float_array, integers,
                          nonnegative, unit_sums)
from .factorize import DiagonalPsdFactorization, SolveSettings, levenberg_marquardt_search


class ClassicalError(CorrgenError):
    pass


class InstanceTooLarge(ClassicalError):
    pass


#: Largest prefix table, in bits (r rows of total + 1 sums), the oracle builds.
MAX_ORACLE_BITS = 2 ** 30
#: Two rationals with denominators ≤ 2²⁰ differ by at least 2⁻⁴⁰ ≈ 9e-13,
#: far above float rounding, so a float within a few ulps of one names it.
MAX_DENOMINATOR = 2 ** 20
MAX_ULPS = 4


@dataclass(frozen=True, eq=False)
class StochasticTransformPair:
    """Column-stochastic matrices (A, B) witnessing P₂ ≈ A P₁ Bᵀ.

    Each is read by :func:`~corrgen.correlation.nonnegative`, its columns
    must sum to 1 by :func:`~corrgen.correlation.unit_sums`, and each
    column is divided by its divisor, so it sums to 1 (one within
    ``MASS_TOL`` of 1 keeps its bits).  Both arrays are read-only.
    """

    A: np.ndarray
    B: np.ndarray

    def __init__(self, A, B) -> None:
        for name, mat in (("A", A), ("B", B)):
            mat = nonnegative(mat, ClassicalError, name, ndim=2)
            mat = mat / unit_sums(mat, ClassicalError, f"columns of {name}", axis=0)
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)

    def apply(self, P1: Correlation) -> np.ndarray:
        return self.A @ P1.matrix @ self.B.T


@dataclass(frozen=True)
class SubsetSumInstance:
    """Positive integers a₁…a_r with implicit target T = Σaᵢ/2.

    A float, string or bool item is refused, not truncated or read as a number.
    """

    items: tuple[int, ...]

    def __init__(self, items) -> None:
        items = integers(items, ClassicalError, "items")
        if not items or min(items) < 1:
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
    total is immediately unsatisfiable, whatever its size.  An even total
    whose table needs more than ``MAX_ORACLE_BITS`` bits raises
    :class:`InstanceTooLarge` before anything is allocated; that budget
    bounds the time and memory of the table for any number of items.
    """
    r = len(inst.items)
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
class _HardnessInstance:
    """A reduction to ½I₂ held as the items it is built from; equal by its items alone."""

    subset_sum: SubsetSumInstance
    target: ClassVar[Correlation] = HALF_IDENTITY

    @property
    def item_order(self) -> tuple[int, ...]:
        """Seed position -> original item index."""
        return tuple(range(len(self.subset_sum.items)))

    def lambdas(self, ratio=operator.truediv) -> list:
        """λᵢ = aᵢ/Σa in ``item_order``: the seed weights of the reduction.

        With ``operator.truediv`` each λᵢ is the float nearest aᵢ/Σa, since
        int / int is correctly rounded; with ``Fraction`` it is exact.
        """
        items, total = self.subset_sum.items, self.subset_sum.total
        return [ratio(items[i], total) for i in self.item_order]

    @property
    def exact_lambdas(self) -> tuple[Fraction, ...]:
        """λᵢ = aᵢ/Σa as exact rationals, in ``item_order``."""
        return tuple(self.lambdas(Fraction))


class QuantumHardnessInstance(_HardnessInstance):
    """Spectrum λᵢ = aᵢ/Σa (sorted descending) → ½I₂."""

    @cached_property
    def item_order(self) -> tuple[int, ...]:
        """Spectrum position -> original item index, the items sorted descending."""
        items = self.subset_sum.items
        return tuple(sorted(range(len(items)), key=lambda i: items[i], reverse=True))

    @cached_property
    def spectrum(self) -> SchmidtSpectrum:
        """The seed spectrum, built on first read and kept."""
        return SchmidtSpectrum(np.array(self.lambdas()))


class ClassicalHardnessInstance(_HardnessInstance):
    """diag(λ) → ½I₂ with λᵢ = aᵢ/Σa, its items in their given order."""

    @cached_property
    def seed(self) -> Correlation:
        """The diagonal seed diag(λ₁…λ_r), built on first read and kept."""
        return Correlation(np.diag(self.lambdas()))


def build_quantum_hardness_instance(inst: SubsetSumInstance) -> QuantumHardnessInstance:
    """Spectrum λᵢ = aᵢ/Σa (sorted descending) and target ½I₂, derived from ``inst`` when read."""
    return QuantumHardnessInstance(inst)


def build_classical_hardness_instance(inst: SubsetSumInstance) -> ClassicalHardnessInstance:
    """Diagonal seed diag(λ₁…λ_r) and target ½I₂, both derived from ``inst`` when read."""
    return ClassicalHardnessInstance(inst)


def schmidt_basis_protocol(spectrum: SchmidtSpectrum, subset) -> DiagonalPsdFactorization:
    """Measure in the Schmidt basis and group outcomes by subset membership.

    Yields the diagonal-form factorization of ½I₂ with Λ = diag(√λ):
    C₁ = D₁ the √λ diagonal restricted to the subset, C₂ = D₂ the
    complement.  The subset holds integer positions in the spectrum, read
    by :func:`~corrgen.correlation.integers`.  The factor sums are Λ to
    the bit and the cells off the diagonal are 0, so the witness is
    judged by its two diagonal cells, the subset mass and its
    complement's: every cell of its table must lie within τ =
    ``SolveSettings.residual_tol`` of ½I₂, the τ rule of
    :func:`~corrgen.factorize.verify` bit for bit, and a NaN cell fails.
    """
    subset = sorted(set(integers(subset, ClassicalError, "subset indices")))
    r = spectrum.rank
    if subset and (subset[0] < 0 or subset[-1] >= r):
        raise ClassicalError("subset indices out of range")
    sq, index = spectrum.sqrt_lambdas(), np.array(subset, dtype=np.intp)
    C = np.zeros((2, r, r))  # the subset's diagonal stack, then its complement's
    diagonals = C.reshape(2, -1)[:, ::r + 1]  # a view: every (r + 1)-th entry of a row-major r×r
    diagonals[0, index] = sq[index]
    diagonals[1] = sq - diagonals[0]  # √λ − √λ = +0.0 on the subset
    F = DiagonalPsdFactorization(C, C, sq)
    cells = F.trace_table()
    if not abs(HALF_IDENTITY.matrix - cells).max() <= SolveSettings.residual_tol:  # NaN fails
        raise ClassicalError(f"subset mass and its complement's must be 1/2, got {np.diag(cells)}")
    return F


def kraus_to_stochastic(kraus) -> np.ndarray:
    """Classical channel induced by a quantum channel in the label basis.

    Entry (x', x) is Σᵢ|⟨x'|Eᵢ|x⟩|²; trace preservation of the Kraus set,
    ΣᵢEᵢ†Eᵢ = I, makes the result column-stochastic.  The set is read as
    one stack of complex matrices by :func:`~corrgen.correlation.float_array`,
    so a non-number, non-finite, ragged or unequal operator is refused
    before any product is taken.  The diagonal of ΣᵢEᵢ†Eᵢ is the column
    sums of the result, which must be 1 by
    :func:`~corrgen.correlation.unit_sums`, and each column is divided by
    its divisor, so the channel returned is column-stochastic; the
    off-diagonal entries must lie within the same ``UNIT_SUM_TOL`` of 0.
    """
    E = float_array(kraus, ClassicalError, "Kraus set", ndim=3, dtype=complex)
    with np.errstate(over="ignore"):  # a square beyond the float range is inf, and refused
        M = np.sum(np.abs(E) ** 2, axis=0)
    M = M / unit_sums(M, ClassicalError, "columns of the Kraus set's channel", axis=0)
    gram = np.einsum("iab,iac->bc", E.conj(), E)
    if not np.abs(gram[~np.eye(len(gram), dtype=bool)]).max(initial=0.0) <= UNIT_SUM_TOL:
        raise ClassicalError("Kraus set is not trace preserving")
    return M


@dataclass(frozen=True)
class ClassicalSearchResult:
    pair: StochasticTransformPair
    converged: bool
    residual_history: tuple[float, ...]   # ‖P₂ − A P₁ Bᵀ‖² at the start and after each step

    @property
    def residual(self) -> float:
        return self.residual_history[-1]


def _normalize_columns(U: np.ndarray, V: np.ndarray):
    """Retraction onto the two oblique manifolds: every column of U and V scaled to unit norm."""
    return U / np.linalg.norm(U, axis=0), V / np.linalg.norm(V, axis=0)


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
    np.einsum("xyxj->xyj", JU)[...] += GU  # the diagonal views, row x of U and row y of V
    np.einsum("xyyl->xyl", JV)[...] += GV
    return J.reshape(n2 * m2, -1)


def classical_feasible_search(P1: Correlation, P2: Correlation,
                              settings: SolveSettings | None = None) -> ClassicalSearchResult:
    """Levenberg–Marquardt search for P₂ ≈ A P₁ Bᵀ over stochastic A, B.

    A = U∘U and B = V∘V with unit columns of U and V (the oblique
    manifold; Absil & Gallivan, ICASSP 2006), so every iterate is
    column-stochastic.  Runs :func:`corrgen.factorize.levenberg_marquardt_search`,
    with its restarts and its ``PROGRESS_TOL`` give-up rule, from normalized
    Gaussian columns, with the normalization of the columns of U and V, as
    a pair, as the retraction.  A zero entry of U or V has zero gradient,
    so a restart can end on a face of the simplex.  ``converged`` means
    f ≤ τ·τ, so every cell of A P₁ Bᵀ is within τ = ``residual_tol`` of P₂.
    Non-convergence is reported, not thrown, and does not certify
    infeasibility.  A J of more than
    ``factorize.MAX_JACOBIAN_ENTRIES`` entries raises ``FactorizationError``.
    """
    settings = settings or SolveSettings()
    seed, target = P1.matrix, P2.matrix
    (n2, m2), (n1, m1) = target.shape, seed.shape

    def evaluate(U, V):
        A, B = U * U, V * V
        R = A @ seed @ B.T - target
        return float(np.sum(R ** 2)), R.ravel(), (A, B)

    def start(rng):
        return _normalize_columns(rng.standard_normal((n2, n1)), rng.standard_normal((m2, m1)))

    (A, B), history, _, converged = levenberg_marquardt_search(
        start, evaluate, partial(_stochastic_jacobian, seed), _normalize_columns, settings)
    return ClassicalSearchResult(StochasticTransformPair(A, B), converged, history)


def is_diag_to_half_identity(P1: Correlation, P2: Correlation) -> bool:
    """Whether (P1, P2) is exactly a diagonal-seed → ½I₂ instance, the one with an exact decision.

    P1 must be square with no nonzero entry off its diagonal, and P2 must
    equal ``HALF_IDENTITY`` entry for entry; nothing near either is read
    as it.
    """
    return (P1.n == P1.m and np.count_nonzero(P1.matrix) == np.count_nonzero(np.diag(P1.matrix))
            and np.array_equal(P2.matrix, HALF_IDENTITY.matrix))


def decide_diag_to_half_identity(P1: Correlation) -> OracleResult | None:
    """Exact feasibility of diag(λ) → ½I₂ by the forced-binary structure.

    Any stochastic witness pair is forced to 0/1 entries, so feasibility
    is exactly the existence of a diagonal subset of mass 1/2, decided on
    the entries read as rationals; ``None`` (no exact decision) when they
    do not read so.  Only the diagonal of P1 is read: the caller must
    establish that P1 is diagonal (:func:`is_diag_to_half_identity`).
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
