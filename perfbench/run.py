#!/usr/bin/env python3
"""Benchmark of corrgen: end-to-end metrics per workload, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload witness --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the workload in a closed loop (one process, one
thread, one call at a time) for ``--seconds`` and reports the end-to-end
metrics of BENCHMARK.json.  ``--trace 1`` runs the workload's fixed
traced pass twice, untraced and then with every layer function wrapped,
and reports the per-layer metrics.  ``--smoke`` shrinks every input set.

The output is a readable report followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The library is
imported from the checkout's ``src/``; it is not installed.
"""

import os

# Pin BLAS to one thread before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 120
SETUP_PROBES = 9    # fresh-interpreter set-ups per run
CLI_CALLS = 7       # corrgen check subprocesses per run
TRACE_PROBES = 5    # in-process cli.main calls and import probes per traced run

# The layer functions the traced run wraps, by module of the package.
LAYER_FUNCTIONS = (
    "factorize.alternate", "factorize.solve_subproblem", "factorize.project_feasible",
    "factorize.verify",
    "conditions.check_all", "conditions.check_min_schmidt", "conditions.check_holevo",
    "conditions.mutual_information_baseline", "conditions.check_v2",
    "conditions.check_fidelity_sum", "conditions.check_renyi",
    "correlation.classical_fidelity",
    "purify.mixed_seed_check", "purify.schmidt_spectrum",
    "classical.subset_sum_oracle", "classical.build_classical_hardness_instance",
    "classical.build_quantum_hardness_instance", "classical.schmidt_basis_protocol",
    "classical.decide_classical_hardness_instance", "classical.classical_feasible_search",
    "cli.main",
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv):
    """Run a Python child to completion; return (wall seconds, exit code)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode


# -- statistics -------------------------------------------------------------

def tail(values):
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    import numpy as np
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1 - p / 100) >= 10:
            return p, float(np.percentile(values, p))
    return None, None


def summary(values):
    p, value = tail(values)
    return {"median": median(values), "tail_pct": p, "tail": value, "n": len(values)}


class SpeedProbe:
    """The machine's speed, sampled by a timer signal all through a run.

    On a shared host the speed available to one process drifts by tens of
    percent, within one long call as well as between runs, and no median
    over operations removes a drift that lasts a whole run.  So a fixed
    reference kernel runs every PERIOD_S from a SIGALRM handler, also in
    the middle of a long library call, and each operation's latency is
    divided by the mean kernel time around and inside it.  The kernel
    does what the library's hot loops do (elementwise numpy on tiny
    stacks called from Python, and exact rational and bitset arithmetic)
    but calls no library code, so a change to the library cannot move it.
    """

    PERIOD_S = 0.2
    WINDOW_S = 0.25     # samples this close to an operation describe its speed

    def __init__(self) -> None:
        import numpy as np
        self.np = np
        self.stack = np.random.default_rng(0).standard_normal((3, 2, 2))
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.on_sample = None   # called with each kernel time, e.g. Tracer.exclude

    def kernel(self) -> float:
        """About 3 ms: elementwise numpy on 2×2 stacks, then exact arithmetic."""
        np, x, acc = self.np, self.stack, 0.0
        for _ in range(100):
            y = 0.5 * (x + x.transpose(0, 2, 1))
            a, b, c = y[:, 0, 0], y[:, 0, 1], y[:, 1, 1]
            rad = np.sqrt((0.5 * (a - c)) ** 2 + b ** 2)
            z = np.maximum(y - rad[:, None, None], 0.0)
            acc += float(np.max(np.abs(z.sum(axis=0) - y[0])))
        total, reach = Fraction(0), 1
        for i in range(1, 80):
            total += Fraction(i, i + 7)
            reach |= reach << (i % 13 + 1)
        return acc + float(total) + reach.bit_length()

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        if self.on_sample:
            self.on_sample(self.durations[-1])

    def __enter__(self):
        # a sample at each end, so even a run shorter than PERIOD_S has one
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)

    def net_and_relative(self, start: float, end: float):
        """Latency without the kernel runs inside it, and that over the kernel time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        net = end - start - sum(self.durations[lo:hi])
        near = self.durations[bisect.bisect_left(self.starts, start - self.WINDOW_S):
                              bisect.bisect_right(self.starts, end + self.WINDOW_S)]
        return net, net / (sum(near) / len(near) if near else median(self.durations))


class Tally:
    """Operations attempted and failed, their latencies by kind, summed counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timing: dict[str, list[float]] = defaultdict(list)
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.sums: dict[str, float] = defaultdict(int)

    def attempt(self, kind, fn, call=None):
        from workloads import GateFailure

        self.attempted += 1
        start = time.perf_counter()
        try:
            counts = call(kind, fn) if call else fn()
        except GateFailure as exc:
            self._fail(kind, str(exc))
        except Exception as exc:
            # a library error is one failed operation; the run goes on and reports it
            self._fail(kind, f"{type(exc).__name__}: {exc}")
        else:
            for key, value in counts.items():
                self.sums[key] += value
        end = time.perf_counter()
        self.timing[kind].append(end - start)
        self.spans[kind].append((start, end))

    def _fail(self, kind, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")


# -- provenance -------------------------------------------------------------

def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    if head.returncode != 0:
        return None
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": Path(lib).name, "threads": fn()}
    return {"library": None, "threads": None, "env": os.environ["OPENBLAS_NUM_THREADS"]}


def provenance():
    import numpy
    return {
        "git_commit": git_commit(),
        "src_sha256": tree_sha256(SRC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas": blas_threads(),
    }


# -- operations run outside the workload's own loop -----------------------------

def cli_cases(workload, tmp: Path, count: int):
    """Argument lists for ``corrgen check`` and the exit code the library predicts."""
    from corrgen import conditions
    from corrgen.correlation import Correlation

    cases = []
    # cycled, so a workload with one target still gives `count` calls
    targets = itertools.islice(itertools.cycle(workload.cli_cases()), count)
    for i, (P, lams) in enumerate(targets):
        path = tmp / f"target{i}.json"
        path.write_text(json.dumps({"matrix": [[float(v) for v in row] for row in P]}))
        argv = ["check", "--target", str(path),
                "--schmidt", ",".join(repr(float(v)) for v in lams)]
        verdict = conditions.check_all(conditions.SchmidtSpectrum(lams), Correlation(P)).verdict
        cases.append((argv, 2 if verdict == conditions.RULED_OUT else 0))
    return cases


def cli_subprocess_op(argv, expected):
    from workloads import gate

    def op():
        _, code = run_child(["-m", "corrgen.cli", *argv])
        gate(code == expected, f"corrgen check exited {code}, library predicts {expected}")
        return {}
    return op


def cli_main_op(argv, expected):
    from corrgen import cli
    from workloads import gate

    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        gate(code == expected, f"cli.main returned {code}, library predicts {expected}")
        return {}
    return op


def setup_probe_op(args):
    from workloads import gate

    argv = [str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--smoke"] if args.smoke else []

    def op():
        _, code = run_child(argv)
        gate(code == 0, f"set-up in a fresh interpreter exited {code}")
        return {}
    return op


def numpy_start():
    """Wall time of a fresh interpreter that imports numpy and nothing else."""
    seconds, code = run_child(["-c", "import numpy"])
    if code:
        raise RuntimeError(f"importing numpy in a fresh interpreter exited {code}")
    return seconds


def between_numpy_starts(tally, kind, ops):
    """Run ``ops`` with a numpy-only interpreter start before, between and after.

    Returns, for each operation, the mean of the two starts around it.
    """
    starts = [numpy_start()]
    for op in ops:
        tally.attempt(kind, op)
        starts.append(numpy_start())
    return [(a + b) / 2 for a, b in zip(starts, starts[1:])]


def import_probe():
    """Fresh-interpreter import of corrgen.cli minus a bare interpreter start."""
    bare, code_bare = run_child(["-c", "pass"])
    full, code_full = run_child(["-c", "import corrgen.cli"])
    if code_bare or code_full:
        raise RuntimeError("import probe failed")
    return full - bare


# -- the two kinds of run ----------------------------------------------------------

def build(args):
    from workloads import WORKLOADS

    start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.warm_up()
    return workload, time.perf_counter() - start


def run_untraced(args, setup_probes, cli_calls):
    workload, setup_here = build(args)
    tally = Tally()
    setup_starts = between_numpy_starts(tally, "setup", [setup_probe_op(args)] * setup_probes)
    with SpeedProbe() as speed:
        for kind, fn in workload.preamble():
            tally.attempt(kind, fn)
        deadline = time.perf_counter() + args.seconds
        for kind, fn in itertools.cycle(workload.schedule()):
            tally.attempt(kind, fn)
            if time.perf_counter() >= deadline and tally.timing[workload.primary]:
                break
    # latencies net of the kernel runs inside them, raw and relative to the kernel
    net, relative = defaultdict(list), defaultdict(list)
    for kind, spans in tally.spans.items():
        for start, end in spans:
            value, rel = speed.net_and_relative(start, end)
            net[kind].append(value)
            relative[kind].append(rel)
    # A fresh interpreter's set-up is reported net of a numpy-only start,
    # and a CLI call relative to one: the start-up costs they share drift
    # with the host, and the reference runs no corrgen code.
    net["setup"] = [t - ref for t, ref in zip(tally.timing["setup"], setup_starts)]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        ops = [cli_subprocess_op(argv, expected)
               for argv, expected in cli_cases(workload, Path(tmp), cli_calls)]
        cli_starts = between_numpy_starts(tally, "cli", ops)
    net["cli"] = tally.timing["cli"]
    relative["cli"] = [t / ref for t, ref in zip(net["cli"], cli_starts)]

    # ru_maxrss is in KiB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "op_ref": (median(relative[workload.primary]), "ref"),
        "cli_check_ref": (median(relative["cli"]), "ref"),
        "setup_s": (median(net["setup"]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    named = dict(workload.named(net, tally.sums))
    named.update({
        "op_s": (median(net[workload.primary]), "s"),
        "cli_check_s": (median(net["cli"]), "s"),
        "reference_kernel_s": (median(speed.durations), "s"),
        "numpy_start_s": (median(setup_starts + cli_starts), "s"),
        "setup_s": metrics["setup_s"],
        "error_ratio": (tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": metrics["peak_rss_mb"],
    })
    report = {
        "timings_s": {kind: summary(values) for kind, values in sorted(net.items())},
        "timings_ref": {kind: summary(values) for kind, values in sorted(relative.items())},
        "reference_kernel_s": summary(speed.durations),
        "numpy_start_s": summary(setup_starts + cli_starts),
        "setup_in_process_s": setup_here,
        "counts": dict(tally.sums),
    }
    return tally, metrics, named, report


def run_traced(args, probes):
    from corrgen import cli  # noqa: F401  (loaded so the tracer wraps cli.main)
    from tracer import Tracer

    workload, _ = build(args)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        ops = workload.traced_pass()
        ops += [("cli_main", cli_main_op(argv, expected))
                for argv, expected in cli_cases(workload, Path(tmp), probes)]
        tracer = Tracer("corrgen", LAYER_FUNCTIONS)
        untraced, tally = Tally(), Tally()
        with SpeedProbe() as speed:
            untraced_start = time.perf_counter()
            for kind, fn in ops:
                untraced.attempt(kind, fn)
            untraced_end = time.perf_counter()
            tracer.install()
            speed.on_sample = tracer.exclude
            try:
                for kind, fn in ops:
                    tally.attempt(kind, fn, call=tracer.run)
                traced_end = time.perf_counter()
            finally:
                tracer.uninstall()
    # Both passes in seconds at the traced pass's machine speed, so that the
    # overhead is not buried under the drift between the two passes.
    untraced_s, untraced_rel = speed.net_and_relative(untraced_start, untraced_end)
    traced_s, traced_rel = speed.net_and_relative(untraced_end, traced_end)
    overhead_s = traced_s - untraced_rel * traced_s / traced_rel
    import_s = median(import_probe() for _ in range(probes))

    totals = tracer.layer_totals()
    layers = {}
    for name in LAYER_FUNCTIONS:
        t = totals.get(name, {"calls": 0, "self_s": 0.0})
        layers[f"{name}.calls"] = (t["calls"], "count")
        layers[f"{name}.self_s"] = (t["self_s"], "s")
    sums = tally.sums
    subproblems = layers["factorize.solve_subproblem.calls"][0]
    dykstra = layers["factorize.project_feasible.calls"][0]
    layers.update({
        "factorize.outer_iters": (sums["outer_iters"], "count"),
        "factorize.restarts_used": (sums["restarts_used"], "count"),
        "factorize.dykstra_per_subproblem": (dykstra / subproblems if subproblems else 0.0,
                                             "ratio"),
        "classical.outer_iters": (sums["classical_outer_iters"], "count"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    # attempts and failures of both passes count: each pass checks every output
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.errors = untraced.errors + tally.errors
    report = {
        "counters": {k: v for k, (v, unit) in sorted(layers.items()) if unit == "count"},
        "ratios": {k: v for k, (v, unit) in sorted(layers.items()) if unit == "ratio"},
        "times_s": {k: v for k, (v, unit) in sorted(layers.items()) if unit == "s"},
        "calls_by_request": tracer.calls_by_request(),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "absent": tracer.absent,
        "spans": {"count": len(tracer.spans), "file": str(spans_path.relative_to(ROOT))},
    }
    return tally, layers, {}, report


# -- entry points -------------------------------------------------------------------

def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(args, spec):
    if args.trace:
        tally, measured, named, report = run_traced(args, 1 if args.smoke else TRACE_PROBES)
        declared = spec["per_layer"]
    else:
        counts = (1, 1) if args.smoke else (SETUP_PROBES, CLI_CALLS)
        tally, measured, named, report = run_untraced(args, *counts)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise SystemExit(f"error: BENCHMARK.json declares metrics no run gives: {missing}")

    for name, (value, unit) in named.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "provenance": provenance(),
              "attempted": tally.attempted, "failed": tally.failed,
              "errors": tally.errors, **report}
    print(json.dumps(report, indent=1))
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
               for m in declared}
    print(result_line(tally.failed == 0, tally.attempted, tally.failed, metrics))


def run_all(args, spec):
    """Every workload in its own interpreter; metrics keyed workload.metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in spec["workloads"]:
        argv = [str(Path(__file__).resolve()), "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--smoke"] if args.smoke else []
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {w['name']} exited {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{w['name']}.{k}": v for k, v in last["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink every input set")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "corrgen" / "__init__.py").is_file():
        print(f"error: no corrgen sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        build(args)
    elif args.workload == "all":
        run_all(args, spec)
    else:
        run_one(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
