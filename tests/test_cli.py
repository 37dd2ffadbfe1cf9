import json
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import corrgen
from corrgen.cli import main
from corrgen.correlation import MASS_TOL

from conftest import ALG

HALF_ID = [[0.5, 0.0], [0.0, 0.5]]
PRODUCT = [[0.25, 0.25], [0.25, 0.25]]
# the witness of measuring both halves of (|00> + |11>)/sqrt(2) in its Schmidt basis
S = 0.5 ** 0.5
HALF_ID_WITNESS = {"lambda": [S, S], "C": [[[S, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, S]]],
                   "D": [[[S, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, S]]]}


@pytest.fixture
def target_diag(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"matrix": [[0.3, 0.0], [0.0, 0.7]]}))
    return str(path)


@pytest.fixture
def target_alg(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(ALG.to_json_dict()))
    return str(path)


@pytest.fixture
def half_identity(tmp_path):
    path = tmp_path / "half_id.json"
    path.write_text(json.dumps({"matrix": HALF_ID}))
    return str(path)


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def files(tmp_path, *argv):
    """``argv`` with each matrix (a list) or factorization (a dict) written to a JSON file, by path."""
    args = list(argv)
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            args[i] = tmp_path / f"arg{i}.json"
            args[i].write_text(json.dumps(arg if isinstance(arg, dict) else {"matrix": arg}))
    return [str(arg) for arg in args]


@pytest.mark.parametrize("argv", [
    (),
    ("check",),
    ("check", "--target", "t.json", "--schmidt", "0.5,0.5", "--bogus"),
    ("factorize", "--target", "t.json", "--lambda", "0.4,0.9", "--restarts", "abc"),
    ("factorize", "--target", "t.json", "--lambda", "0.4,0.9", "--k", "3"),
], ids=["no-command", "missing-target", "unknown-flag", "non-integer", "removed-k"])
def test_usage_error_exit_1(capsys, argv):
    # argparse would exit 2, which `check` and `pipeline` use for RULED_OUT
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 1
    assert out.out == ""
    assert "error" in out.err


SOLVER_FLAGS = ("--restarts", "--seed-rng", "--tol")
OWN_FLAGS = {
    "check": ("--target", "--seed", "--schmidt", "--alphas"),
    "factorize": ("--target", "--lambda", "--lambda-squared", *SOLVER_FLAGS),
    "verify": ("--target", "--factorization", "--tol"),
    "simulate": ("--factorization", "--samples", "--seed-rng"),
    "classical": ("--seed", "--target", *SOLVER_FLAGS),
    "reduce": ("--items", "--side"),
    "lambda-candidates": ("--target",),
    "pipeline": ("--target", "--schmidt", "--alphas", *SOLVER_FLAGS),
}


@pytest.mark.parametrize("command", list(OWN_FLAGS))
def test_help_exit_0(capsys, command):
    """A pin: every subcommand's help lists its own flags, the output flags and,
    where they apply, the solver flags, wherever the parser declares them."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for flag in (*OWN_FLAGS[command], "--format", "--out"):
        assert flag in out
    assert ("--restarts" in out) is ("--restarts" in OWN_FLAGS[command])
    assert "--k" not in out


class TestCheck:
    def test_ruled_out_exit_2(self, capsys, target_diag):
        code, out, _ = run(capsys, "check", "--target", target_diag,
                           "--schmidt", "0.5,0.5")
        assert code == 2
        assert json.loads(out)["verdict"] == "RULED_OUT"

    @pytest.mark.parametrize("target, flags", [
        (ALG.matrix.tolist(), ("--schmidt", "0.8,0.2")),
        # a total 5e-10 off 1 is read as 1 (UNIT_SUM_TOL = 1e-9)
        (PRODUCT, ("--schmidt", "0.5,0.5000000005")),
        # measuring in the Schmidt basis generates diag(λ), also for λ = (1, 1e-18)
        ([[1.0, 0.0], [0.0, 1e-18]], ("--schmidt", "1,1e-18")),
        # a product state generates a product target: the log sides' rounding
        # at α = 1e6 is forgiven
        ([[0.2881424159868753, 0.2209983841731505, 0.373111610922007, 0.11774758891796701]],
         ("--schmidt", "1", "--alphas", "1e6")),
    ], ids=["worked-2x2", "unit-sum-5e-10", "schmidt-basis-1e-18", "product-alpha-1e6"])
    def test_not_ruled_out_exit_0(self, capsys, tmp_path, target, flags):
        code, out, _ = run(capsys, *files(tmp_path, "check", "--target", target, *flags))
        assert code == 0
        assert json.loads(out)["verdict"] == "NOT_RULED_OUT"

    @pytest.mark.parametrize("target, expected", [(HALF_ID, 2), ([[1.0]], 0)],
                             ids=["half-identity", "one-cell"])
    def test_rank_one_entropy_prints_plus_zero(self, capsys, tmp_path, target, expected):
        # H(λ) of λ = (1,) was −Σ of +0.0 terms, a negative zero, and printed as "-0.0"
        code, out, _ = run(capsys, *files(tmp_path, "check", "--target", target,
                                          "--schmidt", "1"))
        assert code == expected
        records = {c["name"]: c for c in json.loads(out)["conditions"]}
        for name in ("holevo", "mutual_information_baseline"):
            assert records[name]["rhs"] == 0.0
            assert math.copysign(1.0, records[name]["rhs"]) == 1.0, name
        assert "-0.0" not in out

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", "--target", str(tmp_path / "no.json"),
                             "--schmidt", "0.5,0.5")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_bad_spectrum_exit_1(self, capsys, target_alg):
        code, _, err = run(capsys, "check", "--target", target_alg,
                           "--schmidt", "0.5,0.6")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("given", ["neither", "both"])
    def test_seed_xor_schmidt_usage_error(self, capsys, tmp_path, half_identity, given):
        # a --schmidt next to --seed was dropped without a word, and the seed's verdict
        # (RULED_OUT for this product seed) was the exit code
        seed = tmp_path / "prod.json"
        seed.write_text(json.dumps({"matrix": [[0.25, 0.25], [0.25, 0.25]]}))
        flags = {"neither": (), "both": ("--seed", str(seed), "--schmidt", "0.5,0.5")}[given]
        with pytest.raises(SystemExit) as exc:
            main(["check", "--target", half_identity, *flags])
        out = capsys.readouterr()
        assert exc.value.code == 1
        assert out.out == "" and "error" in out.err and "Traceback" not in out.err

    def test_seed_with_tiny_entries_keeps_them(self, capsys, tmp_path, half_identity):
        # 199 Schmidt coefficients of 9e-13 lie far above the SVD's rounding
        # level, so all 200 count: the seed, nearly a product, cannot reach
        # the half identity (its H(λ) is far below I = 1 bit) but generates itself
        seed = tmp_path / "seed.json"
        diag = [1 - 199 * 9e-13] + [9e-13] * 199
        seed.write_text(json.dumps({"matrix": np.diag(diag).tolist()}))
        for target, expected in ((half_identity, 2), (str(seed), 0)):
            code, out, _ = run(capsys, "check", "--target", target, "--seed", str(seed))
            assert code == expected
            assert len(json.loads(out)["conditions"]) == 10

    @pytest.mark.parametrize("target, seed, expected", [
        ([[0.3, 0.0], [0.0, 0.7]], HALF_ID, 2),
        (HALF_ID, PRODUCT, 2),
        # a classical seed generates itself, also with an entry far below the
        # SVD's rounding level: a diagonal seed's spectrum is read from its entries
        *[(seed, seed, 0) for seed in (HALF_ID, [[0.9999999999999, 0.0], [0.0, 1e-13]],
                                       [[1.0, 0.0], [0.0, 1e-29]])],
    ], ids=["diag-target", "product-seed", "half-identity", "seed-1e-13", "seed-1e-29"])
    def test_classical_seed_input(self, capsys, tmp_path, target, seed, expected):
        code, out, _ = run(capsys, *files(tmp_path, "check", "--target", target, "--seed", seed))
        assert code == expected
        assert json.loads(out)["verdict"] == {0: "NOT_RULED_OUT", 2: "RULED_OUT"}[expected]

    def test_custom_alphas(self, capsys, target_alg):
        code, out, _ = run(capsys, "check", "--target", target_alg,
                           "--schmidt", "0.8,0.2", "--alphas", "2,inf")
        assert code == 0
        alphas = [c["alpha"] for c in json.loads(out)["conditions"]
                  if c["name"] == "renyi"]
        assert alphas == [2.0, "inf"]

    def test_alpha_inf_serialized_as_string(self, capsys, target_diag):
        _, out, _ = run(capsys, "check", "--target", target_diag,
                        "--schmidt", "0.5,0.5")
        assert '"inf"' in out

    @pytest.mark.parametrize("command", ["check", "pipeline"])
    def test_nan_alpha_exit_1(self, capsys, half_identity, command):
        # a NaN order fails every comparison; it must not read as RULED_OUT
        code, out, err = run(capsys, command, "--target", half_identity,
                             "--schmidt", "0.5,0.5", "--alphas", "nan")
        assert code == 1
        assert out == ""
        assert "alpha" in err

    def test_alpha_beyond_float_range_evaluated(self, capsys, half_identity):
        # at alpha = 1000 the seed side (2·0.5^-0.998)^1000 = 2^1998 is beyond
        # float range; its log is not, so the order is compared, not refused.
        # The infinite side is the string "inf": strict JSON has no Infinity.
        code, out, _ = run(capsys, "check", "--target", half_identity,
                           "--schmidt", "0.5,0.5", "--alphas", "1000")
        data = json.loads(out, parse_constant=_refuse_constant)
        assert code == {"NOT_RULED_OUT": 0, "RULED_OUT": 2}[data["verdict"]]
        (renyi,) = [c for c in data["conditions"] if c["name"] == "renyi"]
        assert renyi["alpha"] == 1000.0 and renyi["lhs"] == "inf"

    @pytest.mark.parametrize("command", ["check", "pipeline"])
    def test_spectrum_read_as_unit_sum_reaches_half_identity(self, capsys, half_identity,
                                                              command):
        # a total of 1 + 5e-10 is read as 1, and `factorize --lambda-squared`
        # writes a witness for this λ; the battery, judging the total as given,
        # ruled it out
        code, out, _ = run(capsys, command, "--target", half_identity,
                           "--schmidt", "0.50000000025,0.50000000025")
        assert code == 0
        if command == "pipeline":
            assert json.loads(out)["result"] == "witness factorization found"

    def test_alpha_inf_seed_side_beyond_float_range_holds(self, capsys, half_identity):
        # Σ1/λ = 1e320 reads inf at α = ∞, which satisfies lhs ≥ rhs: the
        # order is judged, not refused, and the verdict comes from the others
        code, out, err = run(capsys, "check", "--target", half_identity,
                             "--schmidt", "1,1e-320")
        data = json.loads(out, parse_constant=_refuse_constant)
        assert code == 2 and err == ""
        assert not data["conditions"][1]["satisfied"] and data["conditions"][1]["name"] == "holevo"
        (inf,) = [c for c in data["conditions"] if c.get("alpha") == "inf"]
        assert inf["lhs"] == "inf" and inf["satisfied"] is True

    @pytest.mark.parametrize("command", ["check", "pipeline"])
    @pytest.mark.parametrize("alphas", [",", ""], ids=["comma", "empty"])
    def test_empty_alphas_exit_1(self, capsys, half_identity, command, alphas):
        # a given order list that names no order would run no Rényi condition
        code, out, err = run(capsys, command, "--target", half_identity,
                             "--schmidt", "0.5,0.5", f"--alphas={alphas}")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--alphas" in err

    def test_nan_spectrum_exit_1(self, capsys, half_identity):
        code, out, err = run(capsys, "check", "--target", half_identity,
                             "--schmidt", "nan,0.5")
        assert code == 1
        assert "finite" in err

    @pytest.mark.parametrize("flag", [("--restarts", "0"), ("--tol", "-1"), ("--tol", "nan"),
                                      ("--seed-rng", "-1")])
    def test_bad_solver_settings_exit_1(self, capsys, target_alg, flag):
        code, out, err = run(capsys, "pipeline", "--target", target_alg,
                             "--schmidt", "0.8,0.2", *flag)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_text_format(self, capsys, target_diag):
        code, out, _ = run(capsys, "check", "--target", target_diag,
                           "--schmidt", "0.5,0.5", "--format", "text")
        assert code == 2
        assert "verdict: RULED_OUT" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestFactorizeVerifySimulate:
    def test_round_trip(self, capsys, target_alg, tmp_path):
        lam = f"{1/np.sqrt(5)},{2/np.sqrt(5)}"
        code, out, _ = run(capsys, "factorize", "--target", target_alg,
                           "--lambda", lam)
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"]
        assert payload["objective"] <= 1e-8

        fact_path = tmp_path / "fact.json"
        fact_path.write_text(json.dumps(payload["factorization"]))
        code, out, _ = run(capsys, "verify", "--target", target_alg,
                           "--factorization", str(fact_path), "--tol", "1e-4")
        assert code == 0
        assert json.loads(out)["ok"]

        code, out, _ = run(capsys, "simulate", "--factorization", str(fact_path),
                           "--samples", "1000", "--seed-rng", "5")
        assert code == 0
        counts = json.loads(out)["counts"]
        assert sum(map(sum, counts)) == 1000

    @pytest.mark.parametrize("target, lam", [
        (ALG.matrix.tolist(), ("--lambda", f"{1/np.sqrt(5)},{2/np.sqrt(5)}")),
        ([[1, 1], [1, 0]], ("--lambda", "0.2,0.8", "--lambda-squared")),
        # --tol is one per-cell tolerance: the search converges with every cell
        # within it, so this 2x2, which once converged 2e-5 off a cell, passes too
        ([[0.021953385025098457, 0.38403833683125466], [0.4380920260870527, 0.15591625205659454]],
         ("--lambda", "0.6325114903092675,0.7745509761318162")),
    ], ids=["worked-2x2", "worked-2x2-unnormalized-squared", "pinned-2x2"])
    def test_factorize_output_verifies(self, capsys, tmp_path, target, lam):
        # verify reads the factors nested under "factorization" in factorize's --out
        # file; a converged witness passes verify's default tol
        target = files(tmp_path, target)[0]
        fact_path = tmp_path / "factorize.json"
        code, out, _ = run(capsys, "factorize", "--target", target, *lam, "--out", str(fact_path))
        assert (code, out) == (0, "")
        code, out, err = run(capsys, "verify", "--target", target,
                             "--factorization", str(fact_path))
        assert code == 0, err
        assert '"ok": true' in out
        assert json.loads(out)["residual"] <= 1e-6

    def test_pipeline_output_simulates(self, capsys, target_alg, tmp_path):
        code, out, _ = run(capsys, "pipeline", "--target", target_alg, "--schmidt", "0.8,0.2")
        assert code == 0 and "factorization" in json.loads(out)
        fact_path = tmp_path / "pipeline.json"
        fact_path.write_text(out)
        code, out, err = run(capsys, "simulate", "--factorization", str(fact_path),
                             "--samples", "100", "--seed-rng", "5")
        assert code == 0, err
        assert sum(map(sum, json.loads(out)["counts"])) == 100

    def test_lambda_squared_flag(self, capsys, target_alg):
        code, out, _ = run(capsys, "factorize", "--target", target_alg,
                           "--lambda", "0.2,0.8", "--lambda-squared",
                           "--restarts", "3")
        assert code == 0
        assert json.loads(out)["converged"]

    def test_unconverged_notes_heuristic(self, capsys, target_diag):
        lam = f"{np.sqrt(0.5)},{np.sqrt(0.5)}"
        code, out, _ = run(capsys, "factorize", "--target", target_diag,
                           "--lambda", lam, "--restarts", "2")
        assert code == 0
        payload = json.loads(out)
        assert not payload["converged"]
        assert "not an infeasibility proof" in payload["note"]

    def test_verify_rejects_malformed(self, capsys, target_alg, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"C": [[[0.5]]]}))
        code, out, err = run(capsys, "verify", "--target", target_alg,
                             "--factorization", str(bad))
        assert code == 1
        assert out == ""

    def test_verify_tol_zero_is_kept(self, capsys, tmp_path):
        # factors off by 1e-9 pass the default 1e-6 but must fail a zero tolerance
        target = tmp_path / "product.json"
        target.write_text(json.dumps({"matrix": [[0.12, 0.28], [0.18, 0.42]]}))
        fact = tmp_path / "f.json"
        fact.write_text(json.dumps({"lambda": [1.0], "C": [[[0.4 + 1e-9]], [[0.6 - 1e-9]]],
                                    "D": [[[0.3]], [[0.7]]]}))
        argv = ["verify", "--target", str(target), "--factorization", str(fact)]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["ok"] is True
        code, out, _ = run(capsys, *argv, "--tol", "0")
        assert code == 0 and json.loads(out)["ok"] is False

    @pytest.mark.parametrize("tol", ["-1e-6", "nan", "inf"])
    def test_verify_bad_tol_exit_1(self, capsys, target_alg, tmp_path, tol):
        fact = tmp_path / "f.json"
        fact.write_text(json.dumps({"lambda": [1.0], "C": [[[1.0]]], "D": [[[1.0]]]}))
        code, out, err = run(capsys, "verify", "--target", target_alg,
                             "--factorization", str(fact), f"--tol={tol}")
        assert code == 1
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize("command", ["factorize", "classical", "pipeline"])
    def test_infinite_tol_exit_1(self, capsys, target_diag, half_identity, command):
        # a Bell seed cannot make diag(0.3, 0.7) (min-Schmidt rules it out),
        # yet at --tol inf every start point would count as converged
        argv = {"factorize": ("--target", target_diag, "--lambda", "0.7,0.7"),
                "classical": ("--seed", half_identity, "--target", target_diag),
                "pipeline": ("--target", target_diag, "--schmidt", "0.5,0.5")}[command]
        code, out, err = run(capsys, command, *argv, "--tol", "inf")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    def test_simulate_negative_samples_exit_1(self, capsys, tmp_path):
        fact = tmp_path / "f.json"
        fact.write_text(json.dumps({"lambda": [1.0], "C": [[[1.0]]], "D": [[[1.0]]]}))
        # numpy's sampler takes at most 2^63 - 1 draws
        for samples in ("-1", "100000000000000000000"):
            code, out, err = run(capsys, "simulate", "--factorization", str(fact),
                                 "--samples", samples)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "sample count" in err

    def test_simulate_negative_seed_exit_1(self, capsys, tmp_path):
        fact = tmp_path / "f.json"
        fact.write_text(json.dumps({"lambda": [1.0], "C": [[[1.0]]], "D": [[[1.0]]]}))
        code, out, err = run(capsys, "simulate", "--factorization", str(fact),
                             "--samples", "5", "--seed-rng=-1")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "sampling seed" in err

    def test_simulate_zero_mass_exit_1(self, capsys, tmp_path):
        # a zero Lambda is feasible, but its cell table has nothing to sample
        fact = tmp_path / "f.json"
        fact.write_text('{"lambda":[0.0],"C":[[[0.0]]],"D":[[[0.0]]]}')
        code, out, err = run(capsys, "simulate", "--factorization", str(fact),
                             "--samples", "5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "mass" in err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_non_finite_factor_exit_1(self, capsys, tmp_path, command):
        fact = tmp_path / "f.json"
        fact.write_text('{"lambda":[1.0],"C":[[[1.0]]],"D":[[[NaN]]]}')
        target = tmp_path / "one.json"
        target.write_text('{"matrix":[[1.0]]}')
        extra = ("--samples", "10") if command == "simulate" else ("--target", str(target))
        code, out, err = run(capsys, command, "--factorization", str(fact), *extra)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_simulate_rejects_infeasible_factors(self, capsys, tmp_path):
        # finite factors whose sum is not Lambda are not a protocol to sample
        fact = tmp_path / "f.json"
        fact.write_text('{"lambda":[1.0],"C":[[[1e308]]],"D":[[[1.0]]]}')
        code, out, err = run(capsys, "simulate", "--factorization", str(fact),
                             "--samples", "5")
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target, factorization, expected", [
        ([[1.0]], {"lambda": [1.0], "C": [[[1e308]]], "D": [[[1.0]]]}, {"ok": False}),
        # diagonal factor stacks have their entries for eigenvalues: the
        # Schmidt-basis witness of ½I₂ passes, and a factor with the entry
        # -0.25 is 0.25 from PSD
        (HALF_ID, HALF_ID_WITNESS, {"ok": True}),
        (HALF_ID, {"lambda": [1.0, 1.0], "C": [[[1.25, 0.0], [0.0, 0.0]], [[-0.25, 0.0], [0.0, 1.0]]],
                   "D": [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]]},
         {"feasibility": 0.25, "ok": False}),
    ], ids=["huge-factor", "half-identity-schmidt-witness", "negative-entry"])
    def test_verify_report(self, capsys, tmp_path, target, factorization, expected):
        code, out, err = run(capsys, *files(tmp_path, "verify", "--target", target,
                                            "--factorization", factorization))
        assert code == 0 and err == ""
        report = json.loads(out)
        assert {key: report[key] for key in expected} == expected

    @pytest.mark.parametrize("lam", ["nan,0.5", "0.5,inf"])
    def test_non_finite_lambda_exit_1(self, capsys, target_alg, lam):
        code, out, err = run(capsys, "factorize", "--target", target_alg,
                             "--lambda", lam)
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ("factorize", "--target", HALF_ID, "--lambda", "0.5,0.5"),
        ("factorize", "--target", HALF_ID, "--lambda", "0.447,0.894"),
        ("factorize", "--target", HALF_ID, "--lambda", "0.25,0.25", "--lambda-squared"),
        ("factorize", "--target", HALF_ID, "--lambda", "1e200,1"),
        # the same rule reads a spectrum of squared Schmidt coefficients
        ("check", "--target", PRODUCT, "--schmidt", "0.5,0.500000002"),
    ], ids=["half", "rounded", "squared", "square-overflows", "check-schmidt"])
    def test_lambda_squares_not_summing_to_1_exit_1(self, capsys, tmp_path, argv):
        # no witness exists for such a Lambda, and the search ran all its restarts
        code, out, err = run(capsys, *files(tmp_path, *argv))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "must sum to 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("lam, squared", [
        ("0.6325114903092675,0.7745509761318162", False), (f"{np.sqrt(0.5)},{np.sqrt(0.5)}", False),
        ("0.2,0.8", True), ("0.50000000025,0.50000000025", True)])
    def test_lambda_read_as_unit_sum(self, capsys, monkeypatch, half_identity, lam, squared):
        # squares within MASS_TOL of 1 keep their bits; ones within UNIT_SUM_TOL are divided to 1
        from corrgen import factorize

        seen = []

        def capture(target, lam, k, settings):
            seen.append(lam)
            raise factorize.FactorizationError("captured")

        monkeypatch.setattr(factorize, "alternate", capture)
        argv = ["factorize", "--target", half_identity, "--lambda", lam]
        run(capsys, *argv, *(["--lambda-squared"] if squared else []))
        given = np.array(lam.split(","), dtype=float)
        given = np.sqrt(given) if squared else given
        (got,) = seen
        if abs(np.sum(given ** 2) - 1.0) <= MASS_TOL:
            assert got.tobytes() == given.tobytes()
        else:
            assert abs(np.sum(got ** 2) - 1.0) <= 4e-16

    def test_negative_squared_lambda_exit_1(self, capsys, target_alg):
        code, out, err = run(capsys, "factorize", "--target", target_alg,
                             "--lambda=-0.2,1.2", "--lambda-squared")
        assert code == 1
        assert "nonnegative" in err

    @pytest.mark.parametrize("flags, named", [(("--lambda=-0.6,0.8",), "--lambda entries"),
                                              (("--lambda=-0.2,1.2", "--lambda-squared"),
                                               "--lambda-squared entries")])
    def test_negative_lambda_names_the_given_flag(self, capsys, half_identity, flags, named):
        code, out, err = run(capsys, "factorize", "--target", half_identity, *flags)
        assert (code, out) == (1, "")
        assert f"error: {named} must be nonnegative" in err

    def test_oversized_target_exit_1(self, capsys, tmp_path):
        # 100 x 100 cells with k = 4 need a Jacobian of 10^4 x 3,200 entries;
        # the uniform target passes every condition, so `pipeline` reaches the search
        target = tmp_path / "big.json"
        target.write_text(json.dumps({"matrix": np.full((100, 100), 1e-4).tolist()}))
        for command, spectrum in (("factorize", ("--lambda", "0.5,0.5,0.5,0.5")),
                                  ("pipeline", ("--schmidt", "0.25,0.25,0.25,0.25"))):
            code, out, err = run(capsys, command, "--target", str(target), *spectrum)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "budget" in err


class TestClassicalAndReduce:
    def test_exact_decision_infeasible(self, capsys, target_diag, half_identity):
        code, out, _ = run(capsys, "classical", "--seed", target_diag,
                           "--target", half_identity, "--restarts", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_decision"] == {"feasible": False, "witness": []}

    def test_exact_decision_feasible(self, capsys, tmp_path, half_identity):
        # 60 labels are decided too: the oracle's bit budget, not its item count, bounds it
        for diag in ([0.25, 0.25, 0.5], [1 / 60] * 60):
            seed = files(tmp_path, np.diag(diag).tolist())[0]
            code, out, _ = run(capsys, "classical", "--seed", seed, "--target", half_identity)
            assert code == 0, len(diag)
            payload = json.loads(out)
            assert payload["exact_decision"]["feasible"], len(diag)
            assert payload["converged"], len(diag)

    def test_singular_step_system_exit_0(self, capsys, tmp_path):
        # np.linalg.solve raised LinAlgError on a rank-deficient step system
        seed, target = tmp_path / "seed.json", tmp_path / "target.json"
        seed.write_text(json.dumps({"matrix": [[0, 0, 0, 1], [0, 0, 0, 0.25]]}))
        target.write_text(json.dumps({"matrix": [[0], [0.5625], [1]]}))
        code, out, err = run(capsys, "classical", "--seed", str(seed), "--target", str(target),
                             "--restarts", "1", "--tol=1e-300")
        assert code == 0 and json.loads(out)["converged"] is False
        assert "Traceback" not in err

    def test_float_diag_seed_exit_1(self, capsys, tmp_path, half_identity):
        # denominators 2q1, 2q2 <= 2^20 for primes q1, q2, so the entries
        # read as rationals; over their common denominator of about 2^39 the
        # items have an even total, and the table is refused
        q1, q2 = 524287, 524269
        diag = [3 / (2 * q1), (q1 - 3) / (2 * q1), 5 / (2 * q2), (q2 - 5) / (2 * q2)]
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"matrix": np.diag(diag).tolist()}))
        code, out, err = run(capsys, "classical", "--seed", str(seed),
                             "--target", half_identity)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "budget" in err

    def test_float_diag_seed_odd_total(self, capsys, tmp_path, half_identity):
        # an odd total is decided without a table, whatever its size:
        # denominators 3p1, 3p2 <= 2^20, common denominator 3·p1·p2
        p1, p2 = 349519, 349507
        diag = [1 / (3 * p1), (p1 - 1) / (3 * p1), 1 / (3 * p2), (2 * p2 - 1) / (3 * p2)]
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"matrix": np.diag(diag).tolist()}))
        # the decision comes before the search, which --tol 1 ends after one block
        code, out, _ = run(capsys, "classical", "--seed", str(seed),
                           "--target", half_identity, "--restarts", "1", "--tol", "1")
        assert code == 0
        assert json.loads(out)["exact_decision"] == {"feasible": False, "witness": []}

    @pytest.mark.parametrize("matrix", [
        np.diag(np.random.default_rng(5).dirichlet(np.ones(3))).tolist(),
        np.diag(np.random.default_rng(8).dirichlet(np.ones(3))).tolist(),
        [[2 ** 28 + 1, 0], [0, 2 ** 28 - 1]],
    ], ids=["dirichlet-5", "dirichlet-8", "denominator-2^29"])
    def test_unrecognized_rational_no_exact_decision(self, capsys, tmp_path, half_identity,
                                                     matrix):
        # not a bad input: the search result comes without an exact decision
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"matrix": matrix}))
        code, out, _ = run(capsys, "classical", "--seed", str(seed),
                           "--target", half_identity, "--restarts", "1")
        assert code == 0
        payload = json.loads(out)
        assert "exact_decision" not in payload
        assert payload["note"] == "search result is not a feasibility decision"

    def test_tol_below_rounding(self, capsys, tmp_path):
        # the residual falls below rounding, where the damping θ·f alone
        # once left a singular system and a numpy traceback
        seed, target = tmp_path / "seed.json", tmp_path / "uniform.json"
        seed.write_text(json.dumps({"matrix": [[0.25, 0.0], [0.0, 0.75]]}))
        target.write_text(json.dumps({"matrix": [[0.25, 0.25], [0.25, 0.25]]}))
        code, out, err = run(capsys, "classical", "--seed", str(seed), "--target", str(target),
                             "--tol", "1e-300")
        assert code in (0, 1) and "Traceback" not in err
        if code == 0:
            assert json.loads(out)["residual"] < 1e-20

    def test_generic_search_no_exact_block(self, capsys, target_alg, half_identity):
        code, out, _ = run(capsys, "classical", "--seed", target_alg,
                           "--target", half_identity, "--restarts", "2")
        assert code == 0
        assert "exact_decision" not in json.loads(out)

    def test_oversized_pair_exit_1(self, capsys, tmp_path):
        # a 64 x 64 seed and target need a Jacobian of 4,096 x 8,192 entries
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"matrix": np.full((64, 64), 1 / 64 ** 2).tolist()}))
        code, out, err = run(capsys, "classical", "--seed", str(path), "--target", str(path))
        assert code == 1 and out == ""
        assert "budget" in err

    def test_reduce_quantum(self, capsys):
        code, out, _ = run(capsys, "reduce", "--items", "1,2,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["schmidt"] == [0.5, pytest.approx(1 / 3), pytest.approx(1 / 6)]
        assert payload["exact_lambdas"] == ["1/2", "1/3", "1/6"]
        assert payload["target"]["matrix"] == HALF_ID
        code, out, _ = run(capsys, "reduce", "--items", "3,1,1,2,2,1", "--format", "text")
        assert code == 0
        assert "exact_lambdas:\n  - 3/10\n  - 1/5\n" in out

    def test_reduce_classical(self, capsys):
        code, out, _ = run(capsys, "reduce", "--items", "2,3", "--side", "classical")
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"]["matrix"] == [[0.4, 0.0], [0.0, 0.6]]

    def test_reduce_to_closed_stdout_exit_1(self):
        # stdout closed after one byte, as by `| head -c 1`: the 150 kB of JSON
        # outgrow the pipe's buffer, so the write fails; a message and exit 1,
        # as for an unwritable --out, and no traceback from the flush at exit
        src = str(Path(corrgen.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        items = ",".join(str(i) for i in range(1, 3001))
        proc = subprocess.Popen([sys.executable, "-m", "corrgen.cli", "reduce", "--items", items],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err.startswith("error: cannot write stdout") and "Traceback" not in err

    def test_reduce_bad_items(self, capsys):
        code, _, _ = run(capsys, "reduce", "--items", "1,-2")
        assert code == 1


class TestLambdaCandidatesAndPipeline:
    def test_lambda_candidates(self, capsys, target_alg):
        code, out, _ = run(capsys, "lambda-candidates", "--target", target_alg)
        assert code == 0
        payload = json.loads(out)
        names = [c["construction"] for c in payload["candidates"]]
        assert names == ["canonical", "cnot"]
        np.testing.assert_allclose(payload["candidates"][1]["lambda"],
                                   [np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-9)

    def test_pipeline_ruled_out(self, capsys, target_diag):
        code, out, _ = run(capsys, "pipeline", "--target", target_diag,
                           "--schmidt", "0.5,0.5")
        assert code == 2
        payload = json.loads(out)
        assert payload["result"] == "ruled out by necessary conditions"
        assert "factorization" not in payload

    def test_pipeline_witness(self, capsys, target_alg):
        code, out, _ = run(capsys, "pipeline", "--target", target_alg,
                           "--schmidt", "0.8,0.2")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "witness factorization found"
        # the witness's own verify result sits next to its objective
        assert payload["factorization"]["verify"]["ok"] is True

    def test_pipeline_verifies_at_its_tol(self, capsys, tmp_path):
        # --tol is one per-cell tolerance: the search converges with every
        # cell within 1e-4, and `verify` checks it at 1e-4, not at 1e-6
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"matrix": [[0.021953385025098457, 0.38403833683125466],
                                                 [0.4380920260870527, 0.15591625205659454]]}))
        code, out, _ = run(capsys, "pipeline", "--target", str(target),
                           "--schmidt", "0.4000707853732505,0.5999292146267493", "--tol", "1e-4")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "witness factorization found"
        check = payload["factorization"]["verify"]
        assert check["ok"] is True and 1e-6 < check["residual"] <= 1e-4

    def test_pipeline_unresolved(self, capsys, tmp_path):
        # passes every necessary condition yet the search finds nothing
        target = tmp_path / "t.json"
        P = (np.array([[4, 1, 1], [1, 1, 0], [1, 0, 1]]) / 10).tolist()
        target.write_text(json.dumps({"matrix": P}))
        code, out, _ = run(capsys, "pipeline", "--target", str(target),
                           "--schmidt", "0.6,0.4", "--restarts", "2")
        assert code == 0
        payload = json.loads(out)
        assert "no factorization found" in payload["result"]
        assert payload["objective"] > 1e-4
        assert payload["verify"]["ok"] is False and payload["verify"]["residual"] > 1e-6


NAN, INF = float("nan"), float("inf")

# Each is read by Python's json (NaN and Infinity literals included) but
# is no correlation: a non-finite entry, a total mass that overflows to
# inf, a string, a ragged row.
BAD_MATRICES = {
    "nan": [[NAN, 0.5], [0.5, 0.0]],
    "inf": [[INF, 0.5], [0.5, 0.0]],
    "-inf": [[0.5, -INF], [0.5, 0.0]],
    "overflow": [[1e308, 1e308], [1e308, 0.0]],
    "string": [["a", 0.5], [0.5, 0.0]],
    "ragged": [[0.5, 0.5], [0.0]],
    # numpy would read these as 0.5 and as 1 and 0
    "quoted": [["0.5", 0.0], [0.0, "0.5"]],
    "boolean": [[True, False], [False, True]],
}

BAD_FACTORIZATIONS = {
    "nan": {"lambda": [1.0], "C": [[[NAN]]], "D": [[[1.0]]]},
    "inf": {"lambda": [1.0], "C": [[[INF]]], "D": [[[1.0]]]},
    "-inf": {"lambda": [1.0], "C": [[[1.0]]], "D": [[[-INF]]]},
    "string": {"lambda": [1.0], "C": [[["a"]]], "D": [[[1.0]]]},
    "ragged": {"lambda": [1.0], "C": [[[1.0, 0.0]], [[1.0]]], "D": [[[1.0]]]},
    "string-lambda": {"lambda": ["a"], "C": [[[1.0]]], "D": [[[1.0]]]},
    "quoted": {"lambda": [1.0], "C": [[["1.0"]]], "D": [[[1.0]]]},
    "boolean": {"lambda": [True], "C": [[[1.0]]], "D": [[[True]]]},
    "not-an-object": [[[1.0]]],
}

# {bad} is the file with the bad entries, {good} a valid 2x2 correlation
# and {factorization} a valid 1x1 factorization
CORRELATION_COMMANDS = {
    "check-target": ("check", "--target", "{bad}", "--schmidt", "0.5,0.5"),
    "check-seed": ("check", "--target", "{good}", "--seed", "{bad}"),
    "pipeline": ("pipeline", "--target", "{bad}", "--schmidt", "0.5,0.5", "--restarts", "1"),
    "factorize": ("factorize", "--target", "{bad}", "--lambda", "0.6,0.8", "--restarts", "1"),
    "classical-seed": ("classical", "--seed", "{bad}", "--target", "{good}", "--restarts", "1"),
    "classical-target": ("classical", "--seed", "{good}", "--target", "{bad}",
                         "--restarts", "1"),
    "lambda-candidates": ("lambda-candidates", "--target", "{bad}"),
    "verify-target": ("verify", "--target", "{bad}", "--factorization", "{factorization}"),
}

FACTORIZATION_COMMANDS = {
    "verify": ("verify", "--target", "{good}", "--factorization", "{bad}"),
    "simulate": ("simulate", "--factorization", "{bad}", "--samples", "10"),
}


class TestBadEntries:
    """Every command that reads a file exits 1 with a message that names the bad file."""

    @staticmethod
    def _run(capsys, tmp_path, argv, bad):
        paths = {"bad": tmp_path / "bad.json", "good": tmp_path / "good.json",
                 "factorization": tmp_path / "factorization.json"}
        paths["bad"].write_text(json.dumps(bad))
        paths["good"].write_text(json.dumps({"matrix": [[0.5, 0.0], [0.0, 0.5]]}))
        paths["factorization"].write_text(
            json.dumps({"lambda": [1.0], "C": [[[1.0]]], "D": [[[1.0]]]}))
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err
        # the message is about the bad file, not a later mismatch
        assert f"{paths['bad']}:" in err

    @pytest.mark.parametrize("entries", list(BAD_MATRICES))
    @pytest.mark.parametrize("command", list(CORRELATION_COMMANDS))
    def test_bad_correlation_exit_1(self, capsys, tmp_path, command, entries):
        self._run(capsys, tmp_path, CORRELATION_COMMANDS[command],
                  {"matrix": BAD_MATRICES[entries]})

    @pytest.mark.parametrize("entries", list(BAD_FACTORIZATIONS))
    @pytest.mark.parametrize("command", list(FACTORIZATION_COMMANDS))
    def test_bad_factorization_exit_1(self, capsys, tmp_path, command, entries):
        self._run(capsys, tmp_path, FACTORIZATION_COMMANDS[command],
                  BAD_FACTORIZATIONS[entries])


class TestOutputContract:
    def test_byte_identical_runs(self, capsys, target_alg):
        _, out1, _ = run(capsys, "factorize", "--target", target_alg,
                         "--lambda", "0.2,0.8", "--lambda-squared", "--restarts", "2")
        _, out2, _ = run(capsys, "factorize", "--target", target_alg,
                         "--lambda", "0.2,0.8", "--lambda-squared", "--restarts", "2")
        assert out1 == out2

    def test_twelve_significant_digits(self, capsys, target_diag):
        _, out, _ = run(capsys, "check", "--target", target_diag,
                        "--schmidt", "0.5,0.5")
        for c in json.loads(out)["conditions"]:
            for key in ("lhs", "rhs"):
                v = c[key]
                if isinstance(v, float) and np.isfinite(v):
                    assert float(f"{v:.12g}") == v

    def test_out_file(self, capsys, target_diag, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", "--target", target_diag,
                           "--schmidt", "0.5,0.5", "--out", str(dest))
        assert code == 2
        assert out == ""
        assert json.loads(dest.read_text())["verdict"] == "RULED_OUT"

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    @pytest.mark.parametrize("argv", [("check", "--target", "{target}", "--schmidt", "0.5,0.5"),
                                      ("reduce", "--items", "1,1")], ids=["check", "reduce"])
    def test_unwritable_out_exit_1(self, capsys, target_diag, tmp_path, argv, where):
        dest = str(tmp_path / "no" / "x.json") if where == "missing-dir" else str(tmp_path)
        code, out, err = run(capsys, *(a.format(target=target_diag) for a in argv),
                             "--out", dest)
        assert code == 1 and out == ""
        assert err.startswith("error:") and dest in err and "Traceback" not in err

    @pytest.mark.parametrize("depth", [900, 5000])
    def test_deeply_nested_input_exit_1(self, capsys, tmp_path, depth):
        # the walk of float_array recurses per level at 900, json.load at 5000
        deep = tmp_path / "deep.json"
        deep.write_text('{"matrix": [[0.5, ' + "[" * depth + "0.5" + "]" * depth
                        + "], [0.0, 0.0]]}")
        code, out, err = run(capsys, "check", "--target", str(deep), "--schmidt", "0.5,0.5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(deep) in err and "Traceback" not in err

    def test_malformed_json_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, _ = run(capsys, "check", "--target", str(bad),
                           "--schmidt", "0.5,0.5")
        assert code == 1
        assert out == ""

    def test_reduce_stdout_pinned(self, capsys):
        _, out, _ = run(capsys, "reduce", "--items", "1,2,3")
        assert out == REDUCE_QUANTUM_123
        _, out, _ = run(capsys, "reduce", "--items", "2,3", "--side", "classical")
        assert out == REDUCE_CLASSICAL_23

    def test_exact_decision_stdout_pinned(self, capsys, tmp_path, half_identity):
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"matrix": [[0.25, 0, 0], [0, 0.25, 0], [0, 0, 0.5]]}))
        _, out, _ = run(capsys, "classical", "--seed", str(seed), "--target", half_identity)
        assert out[out.index('  "note"'):] == EXACT_DECISION_BLOCK

    def test_factorize_stdout_pinned(self, capsys, target_alg):
        code, out, _ = run(capsys, "factorize", "--target", target_alg,
                           "--lambda", "0.2,0.8", "--lambda-squared")
        assert (code, out) == (0, FACTORIZE_WORKED_2X2)

    def test_pipeline_stdout_pinned(self, capsys, target_alg):
        code, out, _ = run(capsys, "pipeline", "--target", target_alg, "--schmidt", "0.8,0.2")
        assert (code, out) == (0, PIPELINE_WORKED_2X2)

    def test_check_stdout_pinned(self, capsys, tmp_path):
        ex5 = tmp_path / "ex5.json"
        ex5.write_text(json.dumps({"matrix": [[4, 1, 1], [1, 1, 0], [1, 0, 1]]}))
        code, out, _ = run(capsys, "check", "--target", str(ex5), "--schmidt", "0.5,0.3,0.2")
        assert (code, out) == (0, CHECK_EX5)
        zero_row = tmp_path / "zero_row.json"
        zero_row.write_text(json.dumps(
            {"matrix": [[0.01, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.495, 0.495]]}))
        code, out, _ = run(capsys, "check", "--target", str(zero_row),
                           "--schmidt", "0.5,0.3,0.2")
        assert (code, out) == (2, CHECK_ZERO_ROW)


HALF_IDENTITY_JSON = """\
  "target": {
    "matrix": [
      [
        0.5,
        0.0
      ],
      [
        0.0,
        0.5
      ]
    ]
  },
"""

REDUCE_QUANTUM_123 = """\
{
  "items": [
    1,
    2,
    3
  ],
  "schmidt": [
    0.5,
    0.333333333333,
    0.166666666667
  ],
""" + HALF_IDENTITY_JSON + """\
  "exact_lambdas": [
    "1/2",
    "1/3",
    "1/6"
  ]
}
"""

REDUCE_CLASSICAL_23 = """\
{
  "items": [
    2,
    3
  ],
  "seed": {
    "matrix": [
      [
        0.4,
        0.0
      ],
      [
        0.0,
        0.6
      ]
    ]
  },
""" + HALF_IDENTITY_JSON + """\
  "exact_lambdas": [
    "2/5",
    "3/5"
  ]
}
"""

EXACT_DECISION_BLOCK = """\
  "note": "exact decision available for diagonal seed vs half-identity target",
  "exact_decision": {
    "feasible": true,
    "witness": [
      2
    ]
  }
}
"""

CHECK_NOTES = """\
  "notes": [
    "Conditions are necessary only; a passing report does not certify generability.",
    "Sum-of-squares bounds take r as the seed's Schmidt rank, which may exceed the PSD-rank of the target."
  ]
}
"""

CHECK_EX5 = """\
{
  "conditions": [
    {
      "name": "min_schmidt",
      "lhs": 0.2,
      "rhs": 0.4,
      "satisfied": true
    },
    {
      "name": "holevo",
      "lhs": 0.219973094022,
      "rhs": 1.48547529723,
      "satisfied": true
    },
    {
      "name": "mutual_information_baseline",
      "lhs": 0.219973094022,
      "rhs": 2.97095059445,
      "satisfied": true
    },
    {
      "name": "v2",
      "lhs": 0.38,
      "rhs": 0.944444444444,
      "satisfied": true
    },
    {
      "name": "fidelity_sum",
      "lhs": 0.82,
      "rhs": 0.38,
      "satisfied": true
    },
    {
      "name": "renyi",
      "lhs": 0.4,
      "rhs": 0.944142471631,
      "satisfied": true,
      "alpha": 0.5
    },
    {
      "name": "renyi",
      "lhs": 0.610428810368,
      "rhs": 0.96730970008,
      "satisfied": true,
      "alpha": 0.75
    },
    {
      "name": "renyi",
      "lhs": 9.0,
      "rhs": 1.27777777778,
      "satisfied": true,
      "alpha": 2.0
    },
    {
      "name": "renyi",
      "lhs": 88.9374310297,
      "rhs": 2.02160493827,
      "satisfied": true,
      "alpha": 3.0
    },
    {
      "name": "renyi",
      "lhs": 10.3333333333,
      "rhs": 2.5,
      "satisfied": true,
      "alpha": "inf"
    }
  ],
  "verdict": "NOT_RULED_OUT",
""" + CHECK_NOTES

CHECK_ZERO_ROW = """\
{
  "conditions": [
    {
      "name": "min_schmidt",
      "lhs": 0.2,
      "rhs": 0.01,
      "satisfied": false
    },
    {
      "name": "holevo",
      "lhs": 0.0807931358959,
      "rhs": 1.48547529723,
      "satisfied": true
    },
    {
      "name": "mutual_information_baseline",
      "lhs": 0.0807931358959,
      "rhs": 2.97095059445,
      "satisfied": true
    },
    {
      "name": "v2",
      "lhs": 0.38,
      "rhs": 0.9868,
      "satisfied": true
    },
    {
      "name": "fidelity_sum",
      "lhs": 0.9802,
      "rhs": 0.38,
      "satisfied": true
    },
    {
      "name": "renyi",
      "lhs": 0.4,
      "rhs": 0.986037562736,
      "satisfied": true,
      "alpha": 0.5
    },
    {
      "name": "renyi",
      "lhs": 0.610428810368,
      "rhs": 0.990677941895,
      "satisfied": true,
      "alpha": 0.75
    },
    {
      "name": "renyi",
      "lhs": 9.0,
      "rhs": 2.0,
      "satisfied": true,
      "alpha": 2.0
    },
    {
      "name": "renyi",
      "lhs": 88.9374310297,
      "rhs": 101.01010101,
      "satisfied": false,
      "alpha": 3.0
    },
    {
      "name": "renyi",
      "lhs": 10.3333333333,
      "rhs": 100.0,
      "satisfied": false,
      "alpha": "inf"
    }
  ],
  "verdict": "RULED_OUT",
""" + CHECK_NOTES

FACTORIZE_WORKED_2X2 = """\
{
  "objective": 1.41886496123e-14,
  "iterations": 5,
  "restart_index": 0,
  "converged": true,
  "factorization": {
    "lambda": [
      0.4472135955,
      0.894427191
    ],
    "C": [
      [
        [
          0.173168325776,
          -0.254126373937
        ],
        [
          -0.254126373937,
          0.658771914061
        ]
      ],
      [
        [
          0.274045269724,
          0.254126373937
        ],
        [
          0.254126373937,
          0.235655276939
        ]
      ]
    ],
    "D": [
      [
        [
          0.223101296239,
          0.241678624317
        ],
        [
          0.241678624317,
          0.633805361478
        ]
      ],
      [
        [
          0.224112299261,
          -0.241678624317
        ],
        [
          -0.241678624317,
          0.260621829522
        ]
      ]
    ]
  }
}
"""

PIPELINE_WORKED_2X2 = """\
{
  "check": {
    "conditions": [
      {
        "name": "min_schmidt",
        "lhs": 0.2,
        "rhs": 0.666666666667,
        "satisfied": true
      },
      {
        "name": "holevo",
        "lhs": 0.251629167388,
        "rhs": 0.721928094887,
        "satisfied": true
      },
      {
        "name": "mutual_information_baseline",
        "lhs": 0.251629167388,
        "rhs": 1.44385618977,
        "satisfied": true
      },
      {
        "name": "v2",
        "lhs": 0.68,
        "rhs": 0.888888888889,
        "satisfied": true
      },
      {
        "name": "fidelity_sum",
        "lhs": 0.777777777778,
        "rhs": 0.68,
        "satisfied": true
      },
      {
        "name": "renyi",
        "lhs": 0.721110255093,
        "rhs": 0.929231233412,
        "satisfied": true,
        "alpha": 0.5
      },
      {
        "name": "renyi",
        "lhs": 0.812220126723,
        "rhs": 0.960591313014,
        "satisfied": true,
        "alpha": 0.75
      },
      {
        "name": "renyi",
        "lhs": 4.0,
        "rhs": 1.25,
        "satisfied": true,
        "alpha": 2.0
      },
      {
        "name": "renyi",
        "lhs": 21.6521618191,
        "rhs": 1.6875,
        "satisfied": true,
        "alpha": 3.0
      },
      {
        "name": "renyi",
        "lhs": 6.25,
        "rhs": 1.5,
        "satisfied": true,
        "alpha": "inf"
      }
    ],
    "verdict": "NOT_RULED_OUT",
    "notes": [
      "Conditions are necessary only; a passing report does not certify generability.",
      "Sum-of-squares bounds take r as the seed's Schmidt rank, which may exceed the PSD-rank of the target."
    ]
  },
  "result": "witness factorization found",
  "factorization": {
    "lambda": [
      0.894427191,
      0.4472135955
    ],
    "C": [
      [
        [
          0.652190086098,
          -0.251386649564
        ],
        [
          -0.251386649564,
          0.18633181356
        ]
      ],
      [
        [
          0.242237104902,
          0.251386649564
        ],
        [
          0.251386649564,
          0.26088178194
        ]
      ]
    ],
    "D": [
      [
        [
          0.639911969829,
          0.245251808347
        ],
        [
          0.245251808347,
          0.210888046008
        ]
      ],
      [
        [
          0.254515221171,
          -0.245251808347
        ],
        [
          -0.245251808347,
          0.236325549492
        ]
      ]
    ],
    "objective": 6.06725489872e-19,
    "verify": {
      "residual": 6.35568375706e-10,
      "feasibility": 1.66533453694e-16,
      "ok": true
    }
  }
}
"""
