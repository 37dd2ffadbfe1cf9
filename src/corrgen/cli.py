"""Command-line surface: JSON I/O, report rendering, exit-code contract.

Each ``cmd_*`` returns its payload and exit code; :func:`main` alone
writes the payload and maps every library or file error to exit 1.
Only ``correlation`` and ``conditions`` load with this module.  Each
command imports in its body the rest of what it runs: `check --schmidt`
nothing more; `check --seed` ``purify``; `simulate` and
`lambda-candidates` ``purify`` and ``factorize``; `factorize`, `verify`
and `pipeline` ``factorize``; `classical` and `reduce` ``classical``
and ``factorize``.
Exit codes for `check` (and `pipeline`, which embeds it):
0 = NOT_RULED_OUT, 2 = RULED_OUT, 1 = input error (usage errors
included).  All other commands return 0 on success and 1 on input
error.  JSON is the canonical output format; the text renderer is
derived from the JSON payload.  Numeric output is printed with 12
significant digits, a non-finite float as a string such as "inf", so
the JSON is strict.  Identical inputs and seeds give byte-identical JSON.
"""

from __future__ import annotations

import argparse
from dataclasses import fields
import json
import math
import os
import sys

import numpy as np

from . import conditions
from .correlation import Correlation, CorrgenError, nonnegative, unit_sums

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_RULED_OUT = 2


class InputError(CorrgenError):
    pass


def _round_sig(obj):
    """Round every float to 12 significant digits, recursively; a non-finite one becomes a string."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else str(obj)
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
        text = json.dumps(payload, indent=2, allow_nan=False)
    else:
        text = _render_text(payload)
    if not args.out:
        try:
            print(text, flush=True)
        except BrokenPipeError as exc:  # stdout closed early, as by `| head`
            # stdout to /dev/null, so the flush of what is left at exit stays quiet
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise InputError(f"cannot write stdout: {exc}") from exc
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc


def _load(path: str, parse=Correlation.from_json_dict):
    """``parse`` of the JSON in ``path``; a value the library refuses names the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per level
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if isinstance(data, dict) and isinstance(data.get("factorization"), dict):
        data = data["factorization"]  # the output of `factorize` and `pipeline`
    try:
        return parse(data)
    except CorrgenError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_list(text: str, name: str, number=float) -> list:
    """The comma-separated entries of ``text`` read by ``number``, float or int; blanks skipped."""
    try:
        return [number(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse {name} list {text!r}") from exc


def _alphas_from_args(args):
    if args.alphas is None:
        return conditions.DEFAULT_ALPHAS
    alphas = tuple(_parse_list(args.alphas, "--alphas"))
    if not alphas:
        raise InputError(f"--alphas {args.alphas!r} names no order")
    return alphas


def _solve_settings(args):
    """The ``SolveSettings`` of the solver flags given; an omitted flag keeps its default.

    The flags' dests are the settings' field names, so the defaults are
    written only in ``SolveSettings`` and the parser never loads ``factorize``.
    """
    from .factorize import SolveSettings

    given = vars(args).keys() & {field.name for field in fields(SolveSettings)}
    return SolveSettings(**{name: getattr(args, name) for name in given})


def cmd_check(args) -> tuple[dict, int]:
    target = _load(args.target)
    alphas = _alphas_from_args(args)
    if args.seed is not None:
        from .purify import mixed_seed_check

        report = mixed_seed_check(target, _load(args.seed), alphas)
    else:
        spectrum = conditions.SchmidtSpectrum(_parse_list(args.schmidt, "--schmidt"))
        report = conditions.check_all(spectrum, target, alphas)
    code = EXIT_RULED_OUT if report.verdict == conditions.RULED_OUT else EXIT_OK
    return report.to_json_dict(), code


def cmd_factorize(args) -> tuple[dict, int]:
    from .factorize import alternate

    settings = _solve_settings(args)  # a bad setting is refused before Lambda is read
    target = _load(args.target)
    flag = "--lambda-squared" if args.lambda_squared else "--lambda"
    lam = nonnegative(_parse_list(args.lam, "--lambda"), InputError, flag, ndim=1)
    lam = np.sqrt(lam) if args.lambda_squared else lam
    with np.errstate(over="ignore"):  # a square beyond the float range is inf, and refused
        lam = lam / np.sqrt(unit_sums(lam ** 2, InputError, "squared Schmidt coefficients"))
    outcome = alternate(target, lam, lam.size, settings)
    payload = {
        "objective": outcome.objective,
        "iterations": outcome.iterations,
        "restart_index": outcome.restart_index,
        "converged": outcome.converged,
        "factorization": outcome.factorization.to_json_dict(),
    }
    if not outcome.converged:
        payload["note"] = "no factorization found (heuristic search; not an infeasibility proof)"
    return payload, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    from .factorize import DiagonalPsdFactorization, SolveSettings, verify

    tol = getattr(args, "residual_tol", SolveSettings.residual_tol)  # 0 is a valid verify tolerance
    target = _load(args.target)
    F = _load(args.factorization, DiagonalPsdFactorization.from_json_dict)
    return verify(target, F, tol).to_json_dict(), EXIT_OK


def cmd_simulate(args) -> tuple[dict, int]:
    from .factorize import DiagonalPsdFactorization, SolveSettings
    from .purify import sample_protocol

    rng_seed = getattr(args, "rng_seed", SolveSettings.rng_seed)
    F = _load(args.factorization, DiagonalPsdFactorization.from_json_dict)
    counts = sample_protocol(F, args.samples, rng_seed)
    return {"counts": counts.tolist(), "samples": args.samples}, EXIT_OK


def cmd_classical(args) -> tuple[dict, int]:
    from . import classical

    seed = _load(args.seed)
    target = _load(args.target)
    settings = _solve_settings(args)
    # an exact decision over the oracle budget fails before the search runs
    oracle = (classical.decide_diag_to_half_identity(seed)
              if classical.is_diag_to_half_identity(seed, target) else None)
    result = classical.classical_feasible_search(seed, target, settings)
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
    return payload, EXIT_OK


def cmd_reduce(args) -> tuple[dict, int]:
    from . import classical

    inst = classical.SubsetSumInstance(_parse_list(args.items, "--items", int))
    if args.side == "quantum":
        built = classical.build_quantum_hardness_instance(inst)
        seed = {"schmidt": built.spectrum.lambdas.tolist()}
    else:
        built = classical.build_classical_hardness_instance(inst)
        seed = {"seed": built.seed.to_json_dict()}
    return {
        "items": list(inst.items),
        **seed,
        "target": built.target.to_json_dict(),
        "exact_lambdas": [str(f) for f in built.exact_lambdas],
    }, EXIT_OK


def cmd_lambda_candidates(args) -> tuple[dict, int]:
    from .factorize import lambda_candidates_from_purifications

    target = _load(args.target)
    cands = lambda_candidates_from_purifications(target)
    return {"candidates": [{"construction": nm, "lambda": c.tolist()}
                           for nm, c in zip(["canonical", "cnot"], cands)]}, EXIT_OK


def cmd_pipeline(args) -> tuple[dict, int]:
    from .factorize import alternate, verify

    settings = _solve_settings(args)  # a bad setting is refused even where the check rules out
    target = _load(args.target)
    spectrum = conditions.SchmidtSpectrum(_parse_list(args.schmidt, "--schmidt"))
    report = conditions.check_all(spectrum, target, _alphas_from_args(args))
    payload = {"check": report.to_json_dict()}
    if report.verdict == conditions.RULED_OUT:
        payload["result"] = "ruled out by necessary conditions"
        return payload, EXIT_RULED_OUT
    lam = spectrum.sqrt_lambdas()
    outcome = alternate(target, lam, lam.size, settings)
    # how feasible the answer is: `verify` at the search's own τ, next to the objective
    check = verify(target, outcome.factorization, settings.residual_tol)
    quality = {"objective": outcome.objective, "verify": check.to_json_dict()}
    if outcome.converged:
        payload["result"] = "witness factorization found"
        payload["factorization"] = {**outcome.factorization.to_json_dict(), **quality}
    else:
        payload["result"] = "no factorization found (heuristic search; not an infeasibility proof)"
        payload.update(quality)
    return payload, EXIT_OK


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
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "text"), default="json")
    output.add_argument("--out", default=None)
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--target", required=True)
    # an omitted solver flag sets no attribute, and SolveSettings supplies its default
    omitted = argparse.SUPPRESS
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", dest="residual_tol", metavar="TOL", type=float, default=omitted,
                     help="per-cell error a search converges to and verify accepts")
    solver = argparse.ArgumentParser(add_help=False, parents=[tol])
    solver.add_argument("--restarts", type=int, default=omitted)
    solver.add_argument("--seed-rng", dest="rng_seed", metavar="SEED_RNG", type=int,
                        default=omitted)

    p = sub.add_parser("check", parents=[output, target],
                       help="run all necessary conditions for a seed/target pair")
    seed = p.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed", help="classical-classical seed correlation JSON")
    seed.add_argument("--schmidt", help="squared Schmidt coefficients, comma separated")
    p.add_argument("--alphas", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("factorize", parents=[output, target, solver],
                       help="search a diagonal-form PSD factorization")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="diagonal of Lambda (sqrt-lambda entries), comma separated")
    p.add_argument("--lambda-squared", action="store_true",
                   help="interpret --lambda entries as squared Schmidt coefficients")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("verify", parents=[output, target, tol],
                       help="verify a candidate factorization against a target")
    p.add_argument("--factorization", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", parents=[output],
                       help="sample label pairs from a verified factorization")
    p.add_argument("--factorization", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed-rng", dest="rng_seed", metavar="SEED_RNG", type=int, default=omitted)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classical", parents=[output, target, solver],
                       help="search stochastic (A, B) with target = A seed B^T")
    p.add_argument("--seed", required=True)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("reduce", parents=[output], help="build a SUBSET-SUM hardness instance")
    p.add_argument("--items", required=True, help="positive integers, comma separated")
    p.add_argument("--side", choices=("quantum", "classical"), default="quantum")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("lambda-candidates", parents=[output, target],
                       help="Lambda candidates from named purifications")
    p.set_defaults(func=cmd_lambda_candidates)

    p = sub.add_parser("pipeline", parents=[output, target, solver],
                       help="condition check, then factorization search")
    p.add_argument("--schmidt", required=True)
    p.add_argument("--alphas", default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        _emit(payload, args)
    except CorrgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
