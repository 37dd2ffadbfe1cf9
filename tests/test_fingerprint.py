"""Pinned results of three ``alternate`` searches, so a refactor that changes
the search's arithmetic shows up.

The expected values were printed by the search as it stood before its step
loop was shared with the classical search.  Floats are compared to a
relative 1e-12 rather than bit for bit, so a different BLAS still passes.
"""

import numpy as np
import pytest

from corrgen import SolveSettings, alternate

ALG = np.array([[1, 1], [1, 0]]) / 3
ALG_LAM = np.array([1 / np.sqrt(5), 2 / np.sqrt(5)])
GIVEUP_P = np.array([[4, 1, 1], [1, 1, 0], [1, 0, 1]]) / 10
GIVEUP_LAM = np.sqrt([0.6, 0.4])
# a 3x3 target on which restart 0 ends on the stall window after 21 blocks
STALL_P = np.array([
    [0.12882421629118282, 0.019781373301872067, 0.06695471550584703],
    [0.24530102098852063, 0.029914354511578554, 0.09254527473404774],
    [0.18455147268399735, 0.1878602949075052, 0.04426727707544866],
])
STALL_LAM = np.array([0.9699325709264468, 0.24337380273154569])

CASES = {
    "worked-2x2": (ALG, ALG_LAM, SolveSettings(), 0, True, (7.030951589970331e-11,)),
    "giveup": (GIVEUP_P, GIVEUP_LAM, SolveSettings(restarts=1, max_outer_iters=30),
               0, False, (0.0005689868181912789,)),
    "stall-window": (STALL_P, STALL_LAM, SolveSettings(restarts=1, rng_seed=2375,
                                                       max_outer_iters=60, max_inner_iters=2),
                     0, False, (
        0.002143412038971025, 0.0002727909982984648, 0.00022787351022763783,
        0.0001915924439993795, 0.00015728798014752037, 0.0001569380355244113,
        0.00015689026159295023, 0.00015689001078390076, 0.00015688408968383695,
        0.00015688408896653595, 0.00015688408896000604, 0.00015688408895993776,
        0.000156884088959913, 0.00015688408895990193, 0.00015688408895989466,
        0.0001568840889598891, 0.00015688408895988404, 0.00015688408895987921,
        0.0001568840889598753, 0.00015688408895987057, 0.00015688408895986648)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_alternate_matches_pinned_search(name):
    P, lam, settings, restart, converged, history = CASES[name]
    out = alternate(P, lam, lam.size, settings)
    assert (out.restart_index, out.converged) == (restart, converged)
    assert out.objective_history == pytest.approx(history, rel=1e-12, abs=0)
