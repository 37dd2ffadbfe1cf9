"""Seeded inputs, timed operations and correctness gates of the workloads.

Each workload builds its inputs from the seed when it is constructed
(that is its set-up) and then offers:

- ``preamble()``: operations run once, just before the measured loop;
- ``schedule()``: one cycle of operations, as (kind, function) pairs,
  that the closed loop repeats until its time is up;
- ``traced_pass()``: a fixed list of operations for the traced run, so
  the counts it gives repeat exactly for a given seed;
- ``cli_cases()``: (target matrix, squared Schmidt coefficients) pairs
  for ``corrgen check``;
- ``named()``: the workload's end-to-end figures under their own names.

An operation returns a dict of counts to be summed, and raises
``GateFailure`` when an output of the library is wrong.  The library is
reached through module attributes only (``factorize.alternate``), so
the tracer's wrappers see every call.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import combinations_with_replacement
from statistics import median

import numpy as np

from corrgen import classical, conditions, factorize, purify
from corrgen.conditions import RULED_OUT, SchmidtSpectrum
from corrgen.correlation import Correlation
from corrgen.factorize import DiagonalPsdFactorization, SolveSettings


class GateFailure(Exception):
    """An output of the library failed one of the benchmark's checks."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def verified_factorization(rng, n: int, m: int, k: int):
    """A random diagonal-form factorization and the target it induces.

    Each party's vectors are orthonormal columns scaled to λ_i^{1/4}, so
    the factor sums are exactly diag(√λ) and the target is feasible by
    construction, independently of the solver.
    """
    while True:
        lam_sq = rng.dirichlet(np.ones(k))
        if lam_sq.min() > 1e-4:
            break

    def family(count):
        q, _ = np.linalg.qr(rng.standard_normal((count * k, k)))
        vec = (q * lam_sq ** 0.25).reshape(count, k, k).transpose(0, 2, 1)
        return np.einsum("xia,xja->xij", vec, vec)

    F = DiagonalPsdFactorization(family(n), family(m), np.sqrt(lam_sq))
    return F, Correlation(F.trace_table())


def random_correlation(rng, n: int, m: int) -> Correlation:
    return Correlation(rng.dirichlet(np.ones(n * m)).reshape(n, m))


def stochastic_pair_target(rng, P1: Correlation, n2: int, m2: int) -> Correlation:
    """A P₁ Bᵀ for random column-stochastic A, B: reachable from P₁ by construction."""
    A = rng.dirichlet(np.ones(n2), size=P1.n).T
    B = rng.dirichlet(np.ones(m2), size=P1.m).T
    return Correlation(A @ P1.matrix @ B.T)


def restarts_used(outcome, settings: SolveSettings) -> int:
    # alternate stops at the first converged restart, otherwise runs them all
    return outcome.restart_index + 1 if outcome.converged else settings.restarts


def batch(fns):
    """One operation that runs many small ones and adds up their counts.

    A median over single calls whose times fall into two clusters (a
    satisfiable instance costs much more than an unsatisfiable one)
    jumps between the clusters when the mix shifts slightly; a median
    over batches does not.
    """
    def op():
        counts = Counter()
        for fn in fns:
            counts.update(fn())
        return counts
    return op


def median_of(timing, kind):
    values = timing.get(kind, ())
    return median(values) if values else float("nan")


def per_second(timing, sums, kind, unit):
    """``unit`` counts completed per second spent in operations of ``kind``."""
    values = timing.get(kind, ())
    return sums.get(unit, 0) / sum(values) if values else float("nan")


class Workload:
    name = ""
    primary = ""          # the kind whose median latency is the workload's op_ref

    def preamble(self):
        """Operations run once, just before the measured loop."""
        return []

    def warm_up(self) -> None:
        """One cheap call through the library, so lazy set-up is done."""
        P, lams = self.cli_cases()[0]
        conditions.check_all(SchmidtSpectrum(lams), Correlation(P))


# -- witness --------------------------------------------------------------

# The worked 2×2 example: P = [[1,1],[1,0]]/3 with Λ = diag(1/√5, 2/√5).
ALG = np.array([[1, 1], [1, 0]]) / 3
ALG_LAM = np.array([1 / np.sqrt(5), 2 / np.sqrt(5)])


class Witness(Workload):
    """Converging witness searches: the worked 2×2 and seeded feasible targets.

    The measured loop repeats only the worked 2×2, about 7 s a search, so
    that a run holds three of them; two seeded searches run just before
    it.  The seeded searches run on a fixed budget.  With the default
    settings a feasible target on which no restart converges runs ten
    restarts of up to 500 outer iterations, which takes many minutes;
    seed 17's first target is one.
    """

    name = "witness"
    primary = "anchor"
    SEEDED_SETTINGS = SolveSettings(restarts=2, max_outer_iters=15)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng(abs(seed))
        self.anchor = (Correlation(ALG), ALG_LAM, SolveSettings(restarts=10))
        self.seeded = []
        for _ in range(1 if smoke else 2):
            n, m, k = (int(v) for v in rng.integers(2, 4, size=3))
            F, P = verified_factorization(rng, n, m, k)
            self.seeded.append((P, F.lam, self.SEEDED_SETTINGS))
        self.smoke = smoke

    @staticmethod
    def _search(P, lam, settings, must_converge):
        spectrum = SchmidtSpectrum(lam ** 2)
        gate(conditions.check_all(spectrum, P).verdict != RULED_OUT,
             "a target with a known witness was ruled out")
        out = factorize.alternate(P, lam, lam.size, settings)
        gate(out.converged or not must_converge, "the worked 2x2 search did not converge")
        if out.converged:
            gate(factorize.verify(P, out.factorization, tol=1e-4).ok,
                 "a converged witness failed verify(tol=1e-4)")
        return {"searches": 1, "found": int(out.converged),
                "outer_iters": out.iterations,
                "restarts_used": restarts_used(out, settings)}

    def preamble(self):
        return [("seeded", partial(self._search, *inst, False)) for inst in self.seeded]

    def schedule(self):
        return [("anchor", partial(self._search, *self.anchor, True))]

    def traced_pass(self):
        # one seeded search: a budgeted search that never converges can take
        # half a minute, and the pass runs twice
        ops = [("anchor", partial(self._search, *self.anchor, True))]
        if not self.smoke:
            ops.append(("seeded", partial(self._search, *self.seeded[0], False)))
        return ops

    def cli_cases(self):
        cases = [(self.anchor[0].matrix, self.anchor[1] ** 2)]
        return cases + [(P.matrix, lam ** 2) for P, lam, _ in self.seeded]

    def named(self, timing, sums):
        return {
            "witness_s": (median_of(timing, "anchor"), "s"),
            "seeded_witness_s": (median_of(timing, "seeded"), "s"),
            "witness_found_ratio": (sums.get("found", 0) / max(sums.get("searches", 0), 1),
                                    "ratio"),
        }


# -- giveup ---------------------------------------------------------------

# Passes every necessary condition, yet the search does not converge.
GIVEUP_P = np.array([[4, 1, 1], [1, 1, 0], [1, 0, 1]]) / 10
GIVEUP_SPECTRUM = np.array([0.6, 0.4])


class Giveup(Workload):
    """Budgeted searches that run to their budget on a non-converging target.

    The seed is not used: the one anchor is the whole input.  Even small
    perturbations of the anchor change the time a budgeted search takes
    by a factor of two, which no figure steady across seeds survives.
    """

    name = "giveup"
    primary = "anchor"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.P = Correlation(GIVEUP_P)
        self.settings = SolveSettings(restarts=1, max_outer_iters=3 if smoke else 30)

    def _search(self):
        spectrum = SchmidtSpectrum(GIVEUP_SPECTRUM)
        gate(conditions.check_all(spectrum, self.P).verdict != RULED_OUT,
             "the give-up target no longer passes the condition battery")
        lam = spectrum.sqrt_lambdas()
        out = factorize.alternate(self.P, lam, lam.size, self.settings)
        history = np.array(out.objective_history)
        gate(bool(np.all(np.diff(history) <= 1e-12)), "objective history is not monotone")
        table = out.factorization.trace_table()
        recomputed = float(np.sum((self.P.matrix - table) ** 2))
        gate(abs(recomputed - out.objective) <= 1e-12 + 1e-9 * recomputed,
             "reported objective differs from the returned factors")
        return {"searches": 1, "objective": out.objective, "outer_iters": out.iterations,
                "restarts_used": restarts_used(out, self.settings)}

    def schedule(self):
        return [("anchor", self._search)]

    def traced_pass(self):
        return [("anchor", self._search)]

    def cli_cases(self):
        return [(GIVEUP_P, GIVEUP_SPECTRUM)]

    def named(self, timing, sums):
        return {
            "giveup_s": (median_of(timing, "anchor"), "s"),
            "giveup_objective": (sums.get("objective", 0.0) / max(sums.get("searches", 0), 1),
                                 "objective"),
        }


# -- screen ---------------------------------------------------------------

class Screen(Workload):
    """The condition battery on seeded pairs; the solver is never called."""

    name = "screen"
    primary = "checks"
    BATCH = 20            # random pairs per timed operation

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng(abs(seed))
        count = 100 if smoke else 1000
        self.pairs = []
        for _ in range(count):
            n, m, k = (int(v) for v in rng.integers(2, 7, size=3))
            self.pairs.append((SchmidtSpectrum(rng.dirichlet(np.ones(k))),
                               random_correlation(rng, n, m)))
        self.sound = []
        for _ in range(count // 4):
            n, m = (int(v) for v in rng.integers(2, 7, size=2))
            F, P = verified_factorization(rng, n, m, int(rng.integers(1, 5)))
            self.sound.append((SchmidtSpectrum(F.squared_lambdas()), P))
        self.mixed = []
        self.targets = []
        for _ in range(count // self.BATCH):
            n1, m1, n2, m2 = (int(v) for v in rng.integers(2, 5, size=4))
            P1 = random_correlation(rng, n1, m1)
            self.mixed.append((stochastic_pair_target(rng, P1, n2, m2), P1))
            n, m = (int(v) for v in rng.integers(2, 4, size=2))
            self.targets.append(random_correlation(rng, n, m))

    @staticmethod
    def _check(spectrum, P):
        ruled_out = conditions.check_all(spectrum, P).verdict == RULED_OUT
        return {"pairs": 1, "ruled_out": int(ruled_out)}

    @staticmethod
    def _sound(spectrum, P):
        gate(conditions.check_all(spectrum, P).verdict != RULED_OUT,
             "a soundness pair (built from a verified factorization) was ruled out")
        return {"pairs": 1}

    @staticmethod
    def _mixed(target, seed):
        gate(purify.mixed_seed_check(target, seed).verdict != RULED_OUT,
             "a target reachable from its classical seed was ruled out")
        return {}

    @staticmethod
    def _candidates(P):
        cands = factorize.lambda_candidates_from_purifications(P)
        gate(len(cands) == (2 if P.matrix.shape == (2, 2) else 1), "wrong candidate count")
        for c in cands:
            gate(bool(np.all(np.diff(c) <= 0)) and abs(float(np.sum(c ** 2)) - 1.0) <= 1e-9,
                 "a Lambda candidate is unsorted or its squares do not sum to 1")
        return {}

    def schedule(self):
        ops = []
        for j, first in enumerate(range(0, len(self.pairs), self.BATCH)):
            checks = []
            for i in range(first, first + self.BATCH):
                checks.append(partial(self._check, *self.pairs[i]))
                if i % 4 == 0:
                    checks.append(partial(self._sound, *self.sound[i // 4]))
            ops.append(("checks", batch(checks)))
            ops.append(("mixed", partial(self._mixed, *self.mixed[j])))
            ops.append(("lambda", partial(self._candidates, self.targets[j])))
        return ops

    def traced_pass(self):
        return self.schedule()

    def cli_cases(self):
        return [(P.matrix, s.lambdas) for s, P in self.pairs]

    def named(self, timing, sums):
        return {
            "screen_pairs_per_s": (per_second(timing, sums, "checks", "pairs"), "1/s"),
            "mixed_seed_check_s": (median_of(timing, "mixed"), "s"),
            "lambda_candidates_s": (median_of(timing, "lambda"), "s"),
        }


# -- exact ----------------------------------------------------------------

HALF_IDENTITY = np.array([[0.5, 0.0], [0.0, 0.5]])


def reduction_sweep():
    """Every multiset of 1..9 with 1 to 10 items: the criterion-09 sweep."""
    return [items for r in range(1, 11)
            for items in combinations_with_replacement(range(1, 10), r)]


class Exact(Workload):
    """SUBSET-SUM reductions and the classical stochastic-pair search."""

    name = "exact"
    primary = "instances"
    BATCH = 100           # sweep instances per timed operation
    EXTRA_EVERY = 10      # batches between two extra operations

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng(abs(seed))
        sweep = reduction_sweep()
        order = rng.permutation(len(sweep))[: 300 if smoke else None]
        self.instances = [sweep[i] for i in order]   # item tuples
        self.large = []
        for _ in range(4):
            items = [int(v) for v in rng.integers(1, 2 ** 16, size=20 if smoke else 50)]
            items[0] += sum(items) % 2
            self.large.append(classical.SubsetSumInstance(items))
        self.searches = []
        for _ in range(8):
            items = rng.integers(1, 10, size=int(rng.integers(2, 7)))
            self.searches.append((Correlation(np.diag(items / items.sum())),
                                  Correlation(HALF_IDENTITY), True))
            n1, m1, n2, m2 = (int(v) for v in rng.integers(2, 4, size=4))
            P1 = random_correlation(rng, n1, m1)
            self.searches.append((P1, stochastic_pair_target(rng, P1, n2, m2), False))
        self.search_settings = SolveSettings(restarts=1, max_outer_iters=30)

    @staticmethod
    def _instance(items):
        inst = classical.SubsetSumInstance(items)
        oracle = classical.subset_sum_oracle(inst)
        decided = classical.decide_classical_hardness_instance(
            classical.build_classical_hardness_instance(inst))
        gate(oracle.satisfiable == decided.satisfiable,
             "oracle and classical decision disagree")
        if oracle.satisfiable:
            q = classical.build_quantum_hardness_instance(inst)
            chosen = set(oracle.witness)
            subset = [p for p, item in enumerate(q.item_order) if item in chosen]
            F = classical.schmidt_basis_protocol(q.spectrum, subset)
            gate(factorize.verify(q.target, F, tol=1e-9).ok,
                 "a Schmidt-basis witness failed verify(tol=1e-9)")
        return {"instances": 1, "satisfiable": int(oracle.satisfiable)}

    @staticmethod
    def _large(inst):
        res = classical.subset_sum_oracle(inst)
        if res.satisfiable:
            gate(2 * sum(inst.items[i] for i in res.witness) == inst.total,
                 "oracle witness does not sum to half the total")
        return {}

    def _search(self, P1, P2, diag_to_half):
        res = classical.classical_feasible_search(P1, P2, self.search_settings)
        recomputed = float(np.sum((P2.matrix - res.pair.apply(P1)) ** 2))
        gate(abs(recomputed - res.residual) <= 1e-12 + 1e-9 * recomputed,
             "reported residual differs from the returned pair")
        if diag_to_half and res.converged:
            gate(classical.decide_diag_to_half_identity(P1).satisfiable,
                 "search converged on an instance the exact decision calls infeasible")
        return {"classical_outer_iters": len(res.residual_history)}

    def schedule(self):
        extras = [("large_oracle", partial(self._large, inst)) for inst in self.large]
        extras += [("search", partial(self._search, *s)) for s in self.searches]
        ops = []
        for j, first in enumerate(range(0, len(self.instances), self.BATCH)):
            if j % self.EXTRA_EVERY == 0:
                ops.append(extras[(j // self.EXTRA_EVERY) % len(extras)])
            group = self.instances[first:first + self.BATCH]
            ops.append(("instances", batch([partial(self._instance, i) for i in group])))
        return ops

    def traced_pass(self):
        # 5000 sweep instances, the five extras among them, and four searches
        ops = self.schedule()[: 50 + 5]
        ops += [("search", partial(self._search, *s)) for s in self.searches[:4]]
        return ops

    def cli_cases(self):
        cases = []
        for items in self.instances[:20]:
            q = classical.build_quantum_hardness_instance(classical.SubsetSumInstance(items))
            cases.append((HALF_IDENTITY, q.spectrum.lambdas))
        return cases

    def named(self, timing, sums):
        return {
            "exact_instances_per_s": (per_second(timing, sums, "instances", "instances"),
                                      "1/s"),
            "classical_search_s": (median_of(timing, "search"), "s"),
            "large_oracle_s": (median_of(timing, "large_oracle"), "s"),
        }


WORKLOADS = {w.name: w for w in (Witness, Giveup, Screen, Exact)}
