"""The slow-progress stop rule shared by both searches.

A restart gives up once the decrease its Levenberg–Marquardt model
predicts falls to ``PROGRESS_TOL`` of the objective.  On a path to a zero
residual that ratio stays of order 1, so feasible targets still converge;
a search that cannot reach zero stops within its first block of 250 steps
instead of running its whole budget.
"""

import numpy as np
import pytest

from corrgen import Correlation, SolveSettings, alternate, classical_feasible_search
from corrgen.classical import HALF_IDENTITY

from conftest import random_verified_factorization

P1, P2 = 349519, 349507
# entries near 1e-6; infeasible against 1/2 I, since their integer total is odd
TINY_DIAG = np.diag([1 / (3 * P1), (P1 - 1) / (3 * P1), 1 / (3 * P2), (2 * P2 - 1) / (3 * P2)])


def feasible_targets(count=25):
    """Seeded targets with n, m, k in 1..4, each with a known factorization."""
    rng = np.random.default_rng(20261018)
    return [random_verified_factorization(rng, *(int(v) for v in rng.integers(1, 5, size=3)))
            for _ in range(count)]


@pytest.mark.parametrize("index", range(25))
def test_feasible_target_converges(index):
    F, P = feasible_targets()[index]
    out = alternate(P, F.lam, F.k, SolveSettings(restarts=3, max_outer_iters=20))
    assert out.converged, (P.matrix.shape, F.k, out.objective)


@pytest.mark.parametrize("seed, rng_seed", [
    # products map to products: restart 0 creeps at f ≈ 0.25 in every block it gets
    (np.full((2, 2), 0.25), 4),
    # entries near 1e-6 make the creep just as slow
    (TINY_DIAG, 12345),
], ids=["product", "tiny-diagonal"])
def test_infeasible_classical_search_gives_up_in_first_block(seed, rng_seed):
    res = classical_feasible_search(Correlation(seed), HALF_IDENTITY, SolveSettings(
        restarts=1, max_outer_iters=50, rng_seed=rng_seed))
    assert not res.converged
    assert len(res.residual_history) - 1 < 250  # steps taken: fewer than one block
