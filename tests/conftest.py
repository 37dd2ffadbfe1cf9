import sys

import numpy as np
import pytest
from hypothesis import settings

from corrgen import Correlation, DiagonalPsdFactorization

# tier1: every run of the same code draws the same examples and replays
# none from a local example database, so a verdict names the code alone.
# explore: fresh random draws on each run (pytest --hypothesis-profile=explore).
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")

# the worked 2×2 example, and the Λ of its witness (squares 1/5 and 4/5)
ALG = Correlation(np.array([[1, 1], [1, 0]]) / 3)
ALG_LAM = np.array([1 / np.sqrt(5), 2 / np.sqrt(5)])
# passes every necessary condition, has two zero cells, and no restart converges
GIVEUP_P = np.array([[4, 1, 1], [1, 1, 0], [1, 0, 1]]) / 10
GIVEUP_LAM = np.sqrt([0.6, 0.4])


def random_correlation(rng, n, m):
    return Correlation(rng.dirichlet(np.ones(n * m)).reshape(n, m))


def random_verified_factorization(rng, n, m, k):
    """Random diagonal-form factorization built from a random purification.

    Orthonormal column families scaled to norm λ_i^{1/4} give factor
    stacks whose sums are exactly diag(√λ), and the induced cell table
    is automatically a valid correlation.  Independent of the solver.
    """
    while True:
        lam_sq = rng.dirichlet(np.ones(k))
        if lam_sq.min() > 1e-4:
            break

    def family(count):
        mat = rng.standard_normal((count * k, k))
        q, _ = np.linalg.qr(mat)
        q = q * lam_sq ** 0.25
        vec = q.reshape(count, k, k).transpose(0, 2, 1)  # [label, schmidt, component]
        return np.einsum("xia,xja->xij", vec, vec)

    C = family(n)
    D = family(m)
    F = DiagonalPsdFactorization(C, D, np.sqrt(lam_sq))
    P = Correlation(F.trace_table())
    return F, P


def zero_cell_family(count=18, seed=3):
    """Feasible targets with zero cells, each with its sqrt-Lambda entries.

    The Schmidt-basis outcome diag(λ) of r entries, relabelled by random
    local maps f: [r] → [n] and g: [r] → [m] with r, n, m in 2–4, is reached
    by measuring both halves in the Schmidt basis; Λ is √λ in descending
    order.  A target with an empty row or column, or without a zero cell,
    is skipped.
    """
    rng = np.random.default_rng(seed)
    family = []
    while len(family) < count:
        r, n, m = (int(v) for v in rng.integers(2, 5, size=3))
        lam = rng.dirichlet(np.ones(r))
        f, g = rng.integers(n, size=r), rng.integers(m, size=r)
        P = np.zeros((n, m))
        np.add.at(P, (f, g), lam)
        if P.sum(axis=1).min() > 0 and P.sum(axis=0).min() > 0 and P.min() == 0:
            family.append((Correlation(P), np.sqrt(np.sort(lam)[::-1])))
    return family


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
