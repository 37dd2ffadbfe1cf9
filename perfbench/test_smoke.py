"""Smoke test of the benchmark: every workload on shrunken inputs.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", ["giveup", "screen", "exact"])
def test_end_to_end_metrics(workload):
    out = last_json(run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", "0", "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_witness_reproduces_counter_anchor():
    out = last_json(run_bench("--workload", "witness", "--seed", "1", "--trace", "1",
                              "--smoke"))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == declared("per_layer")
    value = {name: m["value"] for name, m in out["metrics"].items()}
    assert value["factorize.alternate.calls"] == 1
    assert value["factorize.solve_subproblem.calls"] == 16
    assert value["factorize.project_feasible.calls"] == 3464
    assert value["factorize.outer_iters"] == 8
    assert value["factorize.restarts_used"] == 1
    assert value["classical.subset_sum_oracle.calls"] == 0


@pytest.mark.parametrize("workload, used, unused", [
    ("screen", "purify.mixed_seed_check.calls", "factorize.alternate.calls"),
    ("exact", "classical.subset_sum_oracle.calls", "factorize.alternate.calls"),
])
def test_traced_layers(workload, used, unused):
    first, second = (last_json(run_bench("--workload", workload, "--seed", "2",
                                         "--trace", "1", "--smoke")) for _ in range(2))
    assert first["correct"] and first["failed"] == 0
    assert first["metrics"][used]["value"] > 0
    assert first["metrics"][unused]["value"] == 0
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert m["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "screen", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_binding_and_reports_absent(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner():
        return 1

    def outer():
        return a.inner() + 1

    a.inner, a.outer = inner, outer
    b.inner = inner            # a second binding, as `from .a import inner` makes
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    pkg.a, pkg.b = a, b

    tracer = Tracer("fakepkg", ["a.inner", "a.outer", "a.gone", "missing.f"])
    tracer.install()
    try:
        assert tracer.run("req", lambda: a.outer() + b.inner()) == 3
    finally:
        tracer.uninstall()
    assert a.inner is inner and b.inner is inner
    assert tracer.absent == ["a.gone", "missing.f"]
    totals = tracer.layer_totals()
    assert totals["a.inner"]["calls"] == 2 and totals["a.outer"]["calls"] == 1
    assert all(t["self_s"] >= 0 for t in totals.values())
    assert tracer.calls_by_request() == {"req": {"req": 1, "a.outer": 1, "a.inner": 2}}
