"""Core probability objects, scalar functionals and the input readers.

A classical correlation is a joint distribution over a pair of labels,
stored as a nonnegative matrix of unit total mass.  Everything downstream
(condition checks, factorization searches, channel extraction) consumes
these objects, so validation is strict and instances are immutable.
Every input is read by one of three rules here, each refusing with the
caller's module error, a :class:`CorrgenError`: arrays by
:func:`float_array`, counts, seeds and indices by :func:`integers`, and
tolerances and orders by :func:`real`.  What an input must mean is
accepted by one rule here as well: no entry below 0 by
:func:`nonnegative`, and totals of 1 by :func:`unit_sums`, within
``UNIT_SUM_TOL``, whose divisors every reader that keeps its values
divides by.  A value type that holds arrays
is equal only to itself, and hashes by identity, so :func:`cell_tables`
can cache the battery's tables of the last target by the object alone.

All logarithms are base 2; 0·log 0 = 0 by continuity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
import operator
from typing import NamedTuple

import numpy as np

#: Departure from 1 beyond which a total is rescaled to 1, by :class:`Correlation` and :func:`unit_sums`.
MASS_TOL = 1e-12
#: Departure from 1 within which a total is read as 1 (contract in :func:`unit_sums`).
UNIT_SUM_TOL = 1e-9


class CorrgenError(ValueError):
    """Base class of the error each module raises for an input it refuses."""


class CorrelationError(CorrgenError):
    """Raised for inputs that do not describe a valid joint distribution."""


def _holds_non_number(kinds: str, value) -> bool:
    """Whether ``value`` is or nests a string, bytes, a bool or an ndarray of a dtype kind not in ``kinds``."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in kinds
    if isinstance(value, (list, tuple)):
        return any(map(partial(_holds_non_number, kinds), value))
    return isinstance(value, (str, bytes, bool, np.bool_))


def float_array(value, error: type[CorrgenError], what: str, *, ndim: int,
                dtype=float) -> np.ndarray:
    """A new read-only ``ndim``-d array of ``dtype``, float or complex, holding ``value``.

    Refuses a string, bytes or bool at any depth of nested lists and
    tuples, lists nested beyond the recursion limit, an ndarray whose
    dtype is not integer, float or (for a complex ``dtype``) complex, a
    ragged or otherwise non-numeric input, any entry that is NaN or ±inf,
    and an empty array or one of another rank, with ``error`` naming ``what``.
    """
    real = dtype is float
    try:
        non_number = _holds_non_number("iuf" if real else "iufc", value)
    except RecursionError as exc:
        raise error(f"{what} is nested too deeply") from exc
    if non_number:
        raise error(f"{what} must hold {'real ' if real else ''}numbers, not strings or booleans")
    try:
        a = np.array(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be a rectangular array of numbers: {exc}") from exc
    # NaN passes every sign and sum test of the callers, as each comparison with it is False
    if not np.isfinite(a).all():
        raise error(f"{what} entries must be finite")
    if a.ndim != ndim or a.size == 0:
        noun = ("vector", "matrix", "stack of matrices")[ndim - 1]
        raise error(f"{what} must be a non-empty {noun}")
    a.setflags(write=False)
    return a


def nonnegative(value, error: type[CorrgenError], what: str, *, ndim: int) -> np.ndarray:
    """``value`` read by :func:`float_array`, or ``error`` naming ``what`` if an entry is below 0.

    No slack: a −0.0 passes, and any negative entry, however small, is refused.
    """
    a = float_array(value, error, what, ndim=ndim)
    if a.min() < 0:
        raise error(f"{what} entries must be nonnegative")
    return a


def unit_sums(terms: np.ndarray, error: type[CorrgenError], what: str, axis=None):
    """The divisors that read each total of the non-empty, nonnegative ``terms`` along ``axis`` as 1.

    Raises ``error`` naming ``what`` unless every total lies within
    ``UNIT_SUM_TOL`` of 1.  The contract of that constant: a total within
    1e-9 of 1 is read as 1, and one further off is refused.  A caller
    that keeps its terms divides them by what this returns: a total
    further than ``MASS_TOL`` from 1 is its own divisor, so the terms are
    rescaled to sum to 1, and one within ``MASS_TOL`` gives exactly 1.0,
    so they keep their bits.  The divisor of all the terms is a float,
    and those along ``axis`` an array of one per total.
    1e-9 lies far above the rounding of any float sum the package forms
    (about n·ε for n terms, 2.2e-10 at a million terms), and above the
    error of up to twenty entries written to ten significant digits, and
    far below any departure that means a different distribution.  The largest term is tested first: one above
    1 + ``UNIT_SUM_TOL`` fails anyway, and terms no larger cannot overflow
    the sum.  A NaN term or total fails every comparison, and is refused.
    """
    if terms.max() - 1.0 <= UNIT_SUM_TOL:
        totals = terms.sum(axis=axis)
        dev = abs(totals - 1.0)
        # a total per column is reduced; on one total, .max() would cost more than the test
        if (dev.max() if dev.ndim else dev) <= UNIT_SUM_TOL:
            if dev.ndim:
                return np.where(dev > MASS_TOL, totals, 1.0)
            return float(totals) if dev > MASS_TOL else 1.0  # a float: np.where costs more
    raise error(f"{what} must sum to 1")


def integers(values, error: type[CorrgenError], what: str) -> tuple[int, ...]:
    """The entries of ``values`` as ints, by ``operator.index``, or ``error`` naming ``what``.

    A float or a string is refused, not truncated or parsed, and so is a
    bool, which ``operator.index`` would read as 0 or 1, and a ``values``
    that is not iterable.
    """
    try:
        values = tuple(values)
        if {bool, np.bool_}.isdisjoint(map(type, values)):
            return tuple(map(operator.index, values))
    except TypeError as exc:
        raise error(f"{what} must be integers: {exc}") from exc
    raise error(f"{what} must be integers, not booleans")


def real(value, error: type[CorrgenError], what: str) -> float:
    """``value`` as a float, or ``error`` naming ``what``.

    Refuses what ``float`` would read from a string, bytes or bool (also
    as a numpy array), and a non-scalar; NaN and ±inf are the caller's to test.
    """
    if _holds_non_number("iuf", value):
        raise error(f"{what} must be a real number, not {value!r}")
    try:
        return float(value)
    except TypeError as exc:
        raise error(f"{what} must be a real number: {exc}") from exc


@dataclass(frozen=True, eq=False)
class Correlation:
    """Joint distribution of a label pair as an n×m nonnegative matrix.

    The constructor accepts any nonnegative matrix with positive total
    mass.  If the mass differs from 1 by more than ``MASS_TOL`` the matrix
    is renormalized and ``renormalized`` is set, so distributions written
    with integer numerators (e.g. ``[[1, 4], [4, 0]]``) are accepted
    directly.

    Instances are immutable after construction and safe to share.
    """

    matrix: np.ndarray
    renormalized: bool

    def __init__(self, matrix) -> None:
        m = nonnegative(matrix, CorrelationError, "correlation", ndim=2)
        with np.errstate(over="ignore"):
            mass = m.sum()
        if not 0 < mass < np.inf:   # finite entries can still sum to inf
            raise CorrelationError("correlation must have positive, finite total mass")
        renorm = abs(mass - 1.0) > MASS_TOL
        if renorm:
            m = m / mass
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "renormalized", renorm)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    # -- JSON interchange ({"matrix": [[...]]}) --

    def to_json_dict(self) -> dict:
        return {"matrix": self.matrix.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Correlation":
        if not isinstance(data, dict) or "matrix" not in data:
            raise CorrelationError('correlation JSON must contain a "matrix" key')
        return cls(data["matrix"])


def marginal_x(P: Correlation) -> np.ndarray:
    """Marginal of the first label: row sums of P."""
    return P.matrix.sum(axis=1)


def marginal_y(P: Correlation) -> np.ndarray:
    """Marginal of the second label: column sums of P."""
    return P.matrix.sum(axis=0)


class CellTables(NamedTuple):
    """The quantities of one target that the condition battery reads (arrays read-only)."""

    px: np.ndarray         # P(x), row sums
    py: np.ndarray         # P(y), column sums
    cells: np.ndarray      # P(x,y) on the cells with P(x,y) > 0, row-major
    prod: np.ndarray       # P(x)P(y) on the same cells
    log_ratio: np.ndarray  # log₂(P(x,y)/P(x)P(y)) on the same cells
    information: float     # I(P) in bits


@lru_cache(maxsize=1)
def cell_tables(P: Correlation) -> CellTables:
    """Marginals, supported cells and I(P) of P, derived once per target.

    A Correlation never changes and hashes by identity, so the tables of
    the target asked for last are cached and handed out again while the
    same object is asked for: a battery of checks on one target derives
    them once.  Only that one target is kept, so memory does not grow
    with the targets alive, as it would with tables stored on every
    instance.
    """
    px = marginal_x(P)
    py = marginal_y(P)
    mask = P.matrix > 0
    cells = P.matrix[mask]
    prod = np.outer(px, py)[mask]
    # below the normal float range the ratios the checks take turn inf or NaN
    if np.minimum(cells, prod).min() < np.finfo(float).tiny:
        raise CorrelationError("a supported cell or its P(x)P(y) is below the normal float range")
    log_ratio = np.log2(cells / prod)
    # clamped at 0 to absorb −0.0 from rounding
    information = max(float((cells * log_ratio).sum()), 0.0)
    for a in (px, py, cells, prod, log_ratio):
        a.setflags(write=False)
    return CellTables(px, py, cells, prod, log_ratio, information)


def shannon_entropy(v) -> float:
    """Entropy −Σ v_i log₂ v_i in bits of a probability vector.

    The vector is divided by the divisor :func:`unit_sums` returns first,
    so one whose total is within ``UNIT_SUM_TOL`` of 1 is read as summing to 1.
    """
    v = nonnegative(v, CorrelationError, "entropy input", ndim=1)
    v = v / unit_sums(v, CorrelationError, "entropy input")
    pos = v[v > 0]
    return float(-(pos * np.log2(pos)).sum())


def mutual_information(P: Correlation) -> float:
    """Mutual information I(P) in bits between the two labels.

    Zero-probability cells contribute nothing; the value is the one
    :func:`cell_tables` derives once per target.
    """
    return cell_tables(P).information


def classical_fidelity(p, q) -> float:
    """Bhattacharyya overlap Σ √p_i·√q_i of two finite nonnegative vectors.

    Unnormalized inputs are allowed (the fidelity-sum condition uses raw
    rows of P).  The roots are taken before the product, so each term lies
    between p_i and q_i and stays in range where p_i·q_i would leave it;
    only a sum beyond the float range reads ``inf``.
    """
    p = nonnegative(p, CorrelationError, "fidelity argument", ndim=1)
    q = nonnegative(q, CorrelationError, "fidelity argument", ndim=1)
    if p.shape != q.shape:
        raise CorrelationError("fidelity arguments must have equal length")
    with np.errstate(over="ignore"):
        return float((np.sqrt(p) * np.sqrt(q)).sum())
