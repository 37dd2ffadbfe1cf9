"""Command-line surface: JSON I/O, report rendering, exit-code contract.

Exit codes for `check` (and `pipeline`, which embeds it):
0 = NOT_RULED_OUT, 2 = RULED_OUT, 1 = input error (usage errors
included).  All other commands return 0 on success and 1 on input
error.  JSON is the canonical output format; the text renderer is
derived from the JSON payload.  Numeric output is printed with 12
significant digits.  Identical inputs and seeds give byte-identical
JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import classical, conditions, factorize, purify
from .correlation import Correlation, CorrelationError

DEFAULT_RNG_SEED = 12345

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_RULED_OUT = 2


class InputError(Exception):
    pass


def _round_sig(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_sig(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_sig(v) for v in obj]
    return obj


def _render_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return "\n".join(lines)


def _emit(payload: dict, args) -> None:
    payload = _round_sig(payload)
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        text = _render_text(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _holds_non_number(value) -> bool:
    """Whether nested lists hold a string or a bool, which numpy would read as a number."""
    if isinstance(value, list):
        return any(map(_holds_non_number, value))
    return isinstance(value, (str, bool))


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if isinstance(data, dict) and any(
            _holds_non_number(data.get(key)) for key in ("matrix", "lambda", "C", "D")):
        raise InputError(f"{path}: entries must be numbers, not strings or booleans")
    return data


def _load_correlation(path: str) -> Correlation:
    try:
        # a total mass that overflows is reported once, as the error below
        with np.errstate(over="ignore"):
            return Correlation.from_json_dict(_load_json_file(path))
    except CorrelationError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_floats(text: str, name: str) -> list[float]:
    try:
        return [float("inf") if t.strip().lower() in ("inf", "infinity") else float(t)
                for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse {name} list {text!r}") from exc


def _spectrum_from_args(args) -> conditions.SchmidtSpectrum:
    if args.schmidt:
        try:
            return conditions.SchmidtSpectrum(_parse_floats(args.schmidt, "--schmidt"))
        except conditions.SpectrumError as exc:
            raise InputError(str(exc)) from exc
    raise InputError("provide --schmidt or --seed")


def _alphas_from_args(args):
    if args.alphas:
        return tuple(_parse_floats(args.alphas, "--alphas"))
    return conditions.DEFAULT_ALPHAS


def _solve_settings(args) -> factorize.SolveSettings:
    kwargs = {"rng_seed": args.seed_rng}
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    if args.tol is not None:
        kwargs["residual_tol"] = args.tol
    try:
        return factorize.SolveSettings(**kwargs)
    except factorize.FactorizationError as exc:
        raise InputError(str(exc)) from exc


def cmd_check(args) -> int:
    target = _load_correlation(args.target)
    alphas = _alphas_from_args(args)
    try:
        if args.seed:
            report = purify.mixed_seed_check(target, _load_correlation(args.seed), alphas)
        else:
            report = conditions.check_all(_spectrum_from_args(args), target, alphas)
    except conditions.SpectrumError as exc:
        raise InputError(str(exc)) from exc
    _emit(report.to_json_dict(), args)
    return EXIT_RULED_OUT if report.verdict == conditions.RULED_OUT else EXIT_OK


def _lambda_from_args(args) -> np.ndarray:
    if not getattr(args, "lam", None):
        raise InputError("provide --lambda")
    return np.array(_parse_floats(args.lam, "--lambda"))


def cmd_factorize(args) -> int:
    target = _load_correlation(args.target)
    lam = _lambda_from_args(args)
    try:
        outcome = factorize.alternate(target, lam, lam.size, _solve_settings(args),
                                      lam_squared=args.lambda_squared)
    except factorize.FactorizationError as exc:
        raise InputError(str(exc)) from exc
    payload = {
        "objective": outcome.objective,
        "iterations": outcome.iterations,
        "restart_index": outcome.restart_index,
        "converged": outcome.converged,
        "factorization": outcome.factorization.to_json_dict(),
    }
    if not outcome.converged:
        payload["note"] = "no factorization found (heuristic search; not an infeasibility proof)"
    _emit(payload, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    if not args.tol >= 0:
        raise InputError(f"--tol must be nonnegative, got {args.tol}")
    target = _load_correlation(args.target)
    try:
        F = factorize.DiagonalPsdFactorization.from_json_dict(
            _load_json_file(args.factorization))
        result = factorize.verify(target, F, tol=args.tol)
    except factorize.FactorizationError as exc:
        raise InputError(str(exc)) from exc
    _emit(result.to_json_dict(), args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.samples < 0:
        raise InputError(f"--samples must be nonnegative, got {args.samples}")
    try:
        F = factorize.DiagonalPsdFactorization.from_json_dict(
            _load_json_file(args.factorization))
        counts = purify.sample_protocol(F, args.samples, args.seed_rng)
    except factorize.FactorizationError as exc:
        raise InputError(str(exc)) from exc
    _emit({"counts": counts.tolist(), "samples": args.samples}, args)
    return EXIT_OK


def cmd_classical(args) -> int:
    seed = _load_correlation(args.seed)
    target = _load_correlation(args.target)
    settings = _solve_settings(args)
    try:
        # an exact decision over the oracle budget fails before the search runs
        oracle = (classical.decide_diag_to_half_identity(seed)
                  if classical.is_diag_to_half_identity(seed, target) else None)
        result = classical.classical_feasible_search(seed, target, settings)
    except (classical.ClassicalError, factorize.FactorizationError) as exc:
        raise InputError(str(exc)) from exc
    payload = {
        "residual": result.residual,
        "converged": result.converged,
        "A": result.pair.A.tolist(),
        "B": result.pair.B.tolist(),
        "note": "search result is not a feasibility decision",
    }
    if oracle is not None:
        payload["exact_decision"] = {
            "feasible": oracle.satisfiable,
            "witness": list(oracle.witness),
        }
        payload["note"] = "exact decision available for diagonal seed vs half-identity target"
    _emit(payload, args)
    return EXIT_OK


def cmd_reduce(args) -> int:
    try:
        items = [int(t) for t in args.items.split(",") if t.strip()]
        inst = classical.SubsetSumInstance(items)
    except (ValueError, classical.ClassicalError) as exc:
        raise InputError(f"bad --items: {exc}") from exc
    if args.side == "quantum":
        built = classical.build_quantum_hardness_instance(inst)
        seed = {"schmidt": built.spectrum.lambdas.tolist()}
    else:
        built = classical.build_classical_hardness_instance(inst)
        seed = {"seed": built.seed.to_json_dict()}
    _emit({
        "items": list(inst.items),
        **seed,
        "target": built.target.to_json_dict(),
        "exact_lambdas": [str(f) for f in built.exact_lambdas],
    }, args)
    return EXIT_OK


def cmd_lambda_candidates(args) -> int:
    target = _load_correlation(args.target)
    cands = factorize.lambda_candidates_from_purifications(target)
    names = ["canonical", "cnot"][: len(cands)]
    payload = {"candidates": [{"construction": nm, "lambda": c.tolist()}
                              for nm, c in zip(names, cands)]}
    _emit(payload, args)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    target = _load_correlation(args.target)
    spectrum = _spectrum_from_args(args)
    try:
        report = conditions.check_all(spectrum, target, _alphas_from_args(args))
    except conditions.SpectrumError as exc:
        raise InputError(str(exc)) from exc
    payload = {"check": report.to_json_dict()}
    if report.verdict == conditions.RULED_OUT:
        payload["result"] = "ruled out by necessary conditions"
        _emit(payload, args)
        return EXIT_RULED_OUT
    lam = spectrum.sqrt_lambdas()
    outcome = factorize.alternate(target, lam, lam.size, _solve_settings(args))
    if outcome.converged:
        payload["result"] = "witness factorization found"
        payload["factorization"] = outcome.factorization.to_json_dict(outcome.objective)
    else:
        payload["result"] = "no factorization found (heuristic search; not an infeasibility proof)"
        payload["objective"] = outcome.objective
    _emit(payload, args)
    return EXIT_OK


def _add_common(p):
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None)


def _add_solver(p):
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--seed-rng", dest="seed_rng", type=int, default=DEFAULT_RNG_SEED)
    p.add_argument("--tol", type=float, default=None)


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own 2 is the RULED_OUT verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="corrgen",
        description="Decide, bound and search for one-shot local-operation "
                    "protocols generating a target classical correlation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run all necessary conditions for a seed/target pair")
    p.add_argument("--target", required=True)
    p.add_argument("--seed", default=None, help="classical-classical seed correlation JSON")
    p.add_argument("--schmidt", default=None, help="squared Schmidt coefficients, comma separated")
    p.add_argument("--alphas", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("factorize", help="search a diagonal-form PSD factorization")
    p.add_argument("--target", required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="diagonal of Lambda (sqrt-lambda entries), comma separated")
    p.add_argument("--lambda-squared", action="store_true",
                   help="interpret --lambda entries as squared Schmidt coefficients")
    _add_solver(p)
    _add_common(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("verify", help="verify a candidate factorization against a target")
    p.add_argument("--target", required=True)
    p.add_argument("--factorization", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="sample label pairs from a verified factorization")
    p.add_argument("--factorization", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed-rng", dest="seed_rng", type=int, default=DEFAULT_RNG_SEED)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classical", help="search stochastic (A, B) with target = A seed B^T")
    p.add_argument("--seed", required=True)
    p.add_argument("--target", required=True)
    _add_solver(p)
    _add_common(p)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("reduce", help="build a SUBSET-SUM hardness instance")
    p.add_argument("--items", required=True, help="positive integers, comma separated")
    p.add_argument("--side", choices=("quantum", "classical"), default="quantum")
    _add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("lambda-candidates", help="Lambda candidates from named purifications")
    p.add_argument("--target", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_lambda_candidates)

    p = sub.add_parser("pipeline", help="condition check, then factorization search")
    p.add_argument("--target", required=True)
    p.add_argument("--schmidt", required=True)
    p.add_argument("--alphas", default=None)
    _add_solver(p)
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
