"""Necessary-condition checks for "a pure seed can generate P".

Each check compares a functional of the target correlation with a
functional of the seed's squared Schmidt coefficients.  The checks are
necessary only, so the aggregate verdict vocabulary is RULED_OUT /
NOT_RULED_OUT — a passing report never certifies generability.

One rule, :func:`_judge`, turns a check's two sides into its record: it
tests lhs ≤ rhs or lhs ≥ rhs with a slack of ``SLACK``·max(1, |lhs|,
|rhs|) in the seed's favor.  The slack is relative to the larger side,
with a floor of ``SLACK`` for sides below 1, so it covers the float error
of a record whatever the magnitude of its sides, and judges one instance
alike in every record.

The battery derives each quantity its checks share once, and every
check reads it: per target, the marginals, the supported cells, their
P(x)P(y), the ratio P/(PₓP_y), its log and I(P)
(:func:`~corrgen.correlation.cell_tables`, which caches the tables of the
last target asked for); per spectrum, H(λ), Σλ² and log₂λ
(:class:`SchmidtSpectrum`); per α grid, the validated orders and the
columns the Rényi pass reads (:func:`_alpha_grid`), for
``DEFAULT_ALPHAS`` once, checked at import, and for any other grid once
per call.  The fidelity sum is the squared norm of one Gram matrix of √P
rather than one overlap per row pair.  The Rényi check evaluates every
finite order of its grid in one array pass in log space, with its own
rule on that scale, whose slack grows by α·``LOG_ROUNDING``: a side
beyond the float range is compared by its log and reads ``inf``.  An
order :func:`~corrgen.correlation.real` refuses, a NaN order, an order
outside the family, and a finite one at which a log side overflows are
refused with SpectrumError; at α = ∞ a seed side Σ1/λ beyond the float
range reads ``inf`` and holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math
from typing import ClassVar, NamedTuple

import numpy as np

from .correlation import (
    Correlation,
    CorrgenError,
    cell_tables,
    float_array,
    mutual_information,
    real,
    unit_sums,
)

SLACK = 1e-10
#: Log-scale slack per unit of a finite Rényi order α: a log side rounds by up
#: to α·(γ₁₄/ln 2 + 4u·1,075) ≈ α·4.8e-13 (u = 2⁻⁵³, γ₁₄ = 14u/(1 − 14u)),
#: which SLACK alone stops covering near α ≈ 300 for log terms near the
#: float range's ends and near α ≈ 5·10⁴ for ordinary ones.
LOG_ROUNDING = 1e-12

#: Default α grid: both monotone regimes of the Rényi family plus the
#: closed-form α=∞ case.
DEFAULT_ALPHAS = (0.5, 0.75, 2.0, 3.0, float("inf"))

RULED_OUT = "RULED_OUT"
NOT_RULED_OUT = "NOT_RULED_OUT"


class SpectrumError(CorrgenError):
    """Raised for invalid Schmidt spectra or condition parameters."""


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Squared Schmidt coefficients λ of a pure bipartite seed.

    Sorted descending, strictly positive, unit sum by
    :func:`~corrgen.correlation.unit_sums`: λ is divided by the divisor it
    returns, so a total within ``UNIT_SUM_TOL`` of 1 is read as 1 and the
    battery judges the spectrum it accepts (one within ``MASS_TOL`` keeps
    its bits).  This is the seed's
    only data relevant to the checks: states with equal Schmidt
    coefficients are interchangeable under local isometries.
    """

    lambdas: np.ndarray

    def __init__(self, lambdas) -> None:
        lam = float_array(lambdas, SpectrumError, "squared Schmidt coefficients", ndim=1)
        lam = np.sort(lam)[::-1]
        if lam[-1] <= 0:  # the smallest entry, after the descending sort
            raise SpectrumError("squared Schmidt coefficients must be positive")
        lam = lam / unit_sums(lam, SpectrumError, "squared Schmidt coefficients")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def rank(self) -> int:
        return self.lambdas.size

    def sqrt_lambdas(self) -> np.ndarray:
        """Schmidt coefficients √λ, i.e. the diagonal of Λ."""
        return np.sqrt(self.lambdas)

    @cached_property
    def log2_lambdas(self) -> np.ndarray:
        """log₂λ, read-only, derived once per spectrum for H(λ) and the Rényi seed sides."""
        log_lam = np.log2(self.lambdas)
        log_lam.setflags(write=False)
        return log_lam

    @cached_property
    def entropy(self) -> float:
        """Shannon entropy H(λ) = −Σλ log₂λ in bits, derived once per spectrum.

        A rank-1 spectrum has entropy +0.0, not −0.0.
        """
        return 0.0 - float((self.lambdas * self.log2_lambdas).sum())  # +0.0 for a sum of ±0.0

    @cached_property
    def purity(self) -> float:
        """Σλ², the purity of either half of the seed, derived once per spectrum."""
        return float((self.lambdas ** 2).sum())


class ConditionRecord(NamedTuple):
    name: str
    lhs: float
    rhs: float
    satisfied: bool
    alpha: float | None = None

    def to_json_dict(self) -> dict:
        d = {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
             "satisfied": self.satisfied}
        if self.alpha is not None:
            d["alpha"] = "inf" if np.isinf(self.alpha) else self.alpha
        return d


@dataclass(frozen=True)
class ConditionReport:
    records: tuple[ConditionRecord, ...]
    #: The caveats every report carries, whatever its records.
    notes: ClassVar[tuple[str, ...]] = (
        "Conditions are necessary only; a passing report does not certify generability.",
        "Sum-of-squares bounds take r as the seed's Schmidt rank, which may exceed the PSD-rank of the target.",
    )

    @property
    def verdict(self) -> str:
        return RULED_OUT if any(not r.satisfied for r in self.records) else NOT_RULED_OUT

    def record(self, name: str, alpha: float | None = None) -> ConditionRecord:
        for r in self.records:
            if r.name == name and (alpha is None or r.alpha == alpha):
                return r
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "conditions": [r.to_json_dict() for r in self.records],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def _judge(name: str, lhs: float, rhs: float, at_most: bool,
           alpha: float | None = None) -> ConditionRecord:
    """The record of lhs ≤ rhs (``at_most``) or lhs ≥ rhs, forgiving ``SLACK``·max(1, |lhs|, |rhs|)."""
    slack = SLACK * max(1.0, abs(lhs), abs(rhs))
    satisfied = lhs <= rhs + slack if at_most else lhs >= rhs - slack
    return ConditionRecord(name, lhs, rhs, satisfied, alpha)


def _log2_sum_exp2(x: np.ndarray) -> np.ndarray:
    """log₂ Σ 2^x along the rows of a 2-d array, which it overwrites.

    Each row is shifted by its largest term first, so no term overflows.
    """
    top = x.max(axis=-1)
    x -= top[:, None]
    return top + np.log2(np.exp2(x, out=x).sum(axis=-1))


def _alpha_grid(alphas) -> tuple:
    """The orders of ``alphas``, validated, and the read-only arrays the Rényi pass takes from them.

    Returns (orders, a, seed_coef, target_coef, rounding): the orders as
    floats, in the given order; the finite ones as an array a; the columns
    (2/a − 1) and a, which scale log₂λ and log₂(P/PₓP_y); and
    a·``LOG_ROUNDING``.  An order that ``real`` refuses, a NaN order and an
    order outside [1/2, 1) ∪ (1, ∞] raise SpectrumError.  A plain tuple: a
    class of its own would cost every import more than it saves.
    """
    orders = tuple(real(alpha, SpectrumError, "alpha") for alpha in alphas)
    for alpha in orders:
        if math.isnan(alpha) or alpha == 1.0 or alpha < 0.5:
            raise SpectrumError(f"alpha must lie in [1/2, 1) ∪ (1, ∞], got {alpha}")
    a = np.array([alpha for alpha in orders if alpha != math.inf])
    grid = (a, (2.0 / a - 1.0)[:, None], a[:, None], a * LOG_ROUNDING)
    for column in grid:
        column.setflags(write=False)
    return (orders, *grid)


#: The grid of ``DEFAULT_ALPHAS``, checked and derived once, at import.
_DEFAULT_GRID = _alpha_grid(DEFAULT_ALPHAS)


def check_renyi(spectrum: SchmidtSpectrum, P: Correlation, alphas=DEFAULT_ALPHAS):
    """Sandwiched α-Rényi data-processing conditions over an α grid.

    For α ∈ [1/2, 1) the seed side (Σλ^{2/α−1})^α must not exceed the
    target side Σ P(x,y)^α (P(x)P(y))^{1−α}; for α ∈ (1, ∞) the
    inequality flips; α = ∞ has a closed max form, Σ1/λ against
    max P(x,y)/P(x)P(y).  Zero-probability cells are skipped.

    All finite orders are evaluated in one array pass in log₂ space:
    log lhs = α·logsumexp((2/α − 1)·log λ) and
    log rhs = logsumexp(α·log(P/PₓP_y) + log PₓP_y), each sum shifted by
    its largest term.  A side beyond the float range is compared by its
    log, and its record reads ``inf``.  The slack is :func:`_judge`'s, in
    the seed's favor: lhs ≤ rhs + SLACK·max(1, lhs, rhs) is tested as
    log lhs ≤ logaddexp(log rhs, log SLACK + max(0, log lhs, log rhs)) +
    α·``LOG_ROUNDING``, and the α > 1 side mirrors it.  An order that
    ``real`` refuses, a NaN order, an order outside the family, and a
    finite order at which a log side is itself not finite (α near the
    float maximum) raise SpectrumError, since a NaN side would read as a
    violated bound.  α = ∞ is judged by :func:`_judge` on the sides
    themselves: Σ1/λ may read ``inf``, which satisfies lhs ≥ rhs, and
    max P/PₓP_y is at most 1/tiny, as :func:`~corrgen.correlation.cell_tables`
    refuses a sub-normal cell, so that side is always finite.  The grid of
    ``DEFAULT_ALPHAS`` itself was checked at import; any other is checked
    here, by :func:`_alpha_grid`.
    """
    orders, a, seed_coef, target_coef, rounding = (
        _DEFAULT_GRID if alphas is DEFAULT_ALPHAS else _alpha_grid(alphas))
    t = cell_tables(P)

    with np.errstate(over="ignore", invalid="ignore"):
        # row 0: log₂ lhs and row 1: log₂ rhs, one column per order
        logs = np.array([a * _log2_sum_exp2(seed_coef * spectrum.log2_lambdas),
                         _log2_sum_exp2(target_coef * t.log_ratio + np.log2(t.prod))])
        # row 0: log lhs ≤ log(rhs + slack); row 1: log rhs ≤ log(lhs + slack)
        log_slack = math.log2(SLACK) + np.maximum(logs.max(axis=0), 0.0)
        holds = logs <= np.logaddexp2(logs[::-1], log_slack) + rounding
        finite = iter(zip(*logs.tolist(), *np.exp2(logs).tolist(), *holds.tolist()))

        records = []
        for alpha in orders:
            if alpha == math.inf:
                records.append(_judge("renyi", float((1.0 / spectrum.lambdas).sum()),
                                      float(t.ratio.max()), at_most=False, alpha=alpha))
                continue
            log_lhs, log_rhs, lhs, rhs, lhs_holds, rhs_holds = next(finite)
            if not (math.isfinite(log_lhs) and math.isfinite(log_rhs)):
                raise SpectrumError(f"the Rényi bound at alpha = {alpha} overflows floating point")
            records.append(ConditionRecord("renyi", lhs, rhs,
                                           lhs_holds if alpha < 1.0 else rhs_holds, alpha))
    return records


def check_min_schmidt(spectrum: SchmidtSpectrum, P: Correlation) -> ConditionRecord:
    """λ_r against the min over supported cells of P(x)P(y)/P(x,y)."""
    t = cell_tables(P)
    return _judge("min_schmidt", float(spectrum.lambdas[-1]), float((t.prod / t.cells).min()),
                  at_most=True)


def check_holevo(spectrum: SchmidtSpectrum, P: Correlation) -> ConditionRecord:
    """I(P) against the Shannon entropy of the squared Schmidt spectrum."""
    return _judge("holevo", mutual_information(P), spectrum.entropy, at_most=True)


def mutual_information_baseline(spectrum: SchmidtSpectrum, P: Correlation) -> ConditionRecord:
    """The weaker doubled-entropy bound I(P) ≤ −2Σλlogλ, for comparison."""
    return _judge("mutual_information_baseline", mutual_information(P), 2.0 * spectrum.entropy,
                  at_most=True)


def v2_classical(P: Correlation) -> float:
    """Classical correlation measure V′₂.

    Σ_y (Σ_x P(x)·|P(y|x) − P(y)|²)^{1/2}; rows with zero marginal are
    skipped.  Zero exactly when P is a product distribution.
    """
    t = cell_tables(P)
    keep = t.px > 0
    px = t.px[keep, None]
    # d·d is |d|² to the bit: a product's magnitude ignores the signs
    d = P.matrix[keep] / px - t.py
    return float(np.sqrt((px * (d * d)).sum(axis=0)).sum())


def check_v2(spectrum: SchmidtSpectrum, P: Correlation) -> ConditionRecord:
    """Σλ² against 1 − V′₂²/r with r the seed's Schmidt rank."""
    return _judge("v2", spectrum.purity, 1.0 - v2_classical(P) ** 2 / spectrum.rank,
                  at_most=True)


def check_fidelity_sum(spectrum: SchmidtSpectrum, P: Correlation) -> ConditionRecord:
    """Pairwise row-fidelity sum ΣᵢΣⱼF(Pᵢ,Pⱼ)² against Σλ².

    F(Pᵢ,Pⱼ) = Σ_y √Pᵢ(y)·√Pⱼ(y) is entry (i, j) of the Gram √P·√Pᵀ, so the
    sum is its squared Frobenius norm, as it is of √Pᵀ·√P; the Gram of P's
    shorter side is taken, so it never holds more entries than P.
    """
    R = np.sqrt(P.matrix)
    G = R @ R.T if R.shape[0] <= R.shape[1] else R.T @ R
    return _judge("fidelity_sum", float(np.sum(G * G)), spectrum.purity, at_most=False)


def check_all(spectrum: SchmidtSpectrum, P: Correlation,
              alphas=DEFAULT_ALPHAS) -> ConditionReport:
    """Run every necessary condition and aggregate into a report.

    RULED_OUT iff at least one record fails.  The report text flags that
    the Σλ² bounds use the seed's Schmidt rank for r, which is
    conservative when the seed rank exceeds the PSD-rank of P.
    """
    # built per call, so each name is read from the module when the battery runs
    checks = (check_min_schmidt, check_holevo, mutual_information_baseline, check_v2,
              check_fidelity_sum)
    records = [check(spectrum, P) for check in checks]
    records.extend(check_renyi(spectrum, P, alphas))
    return ConditionReport(tuple(records))
