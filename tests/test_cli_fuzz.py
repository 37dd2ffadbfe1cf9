"""Every subcommand, fed odd JSON entries and odd flag values, exits 0, 1 or 2.

The JSON files start from well-formed correlations and factorizations,
then some entries are swapped for NaN, ±inf, 1e308, zero, a string or a
bool, or a row is cut short, and a factorization is sometimes nested under
``"factorization"`` as ``factorize`` writes it.  Flag values include
negative, huge and NaN numbers, and tolerances below rounding.  ``cli.main`` runs in process; any exception other than its own
usage-error exit fails the property, and an exit of 1 must come with an
``error`` message and no stdout.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from corrgen.cli import main

NAN, INF = float("nan"), float("inf")
ODD_LEAVES = st.one_of(st.sampled_from([0.0, NAN, INF, -INF, 1e308, -1.0, True, False]),
                       st.text(max_size=2))
# odd and plain values, half and half
NUMBERS = st.one_of(st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e308", "1e20"]),
                    st.sampled_from(["1", "2", "0.5", "1e-9"]))
# counts and seeds: integers, mostly, and values no integer flag takes
COUNTS = st.sampled_from(["-1", "0", "5", "1000", "100000000000000000000", "9223372036854775807",
                          "nan", "1e308"])
SIZES = st.integers(1, 4)
LISTS = st.one_of(st.sampled_from(["0.5,0.5", "0.8,0.2", "0.6,0.3,0.1", "1"]),
                  st.lists(NUMBERS, min_size=1, max_size=4).map(",".join))


def _spoil(draw, leaves):
    """Swap up to two of ``leaves`` (a flat list) for odd entries, in place."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        leaves[draw(st.integers(0, len(leaves) - 1))] = draw(ODD_LEAVES)


@st.composite
def matrices(draw, n, m):
    """An n×m table of finite nonnegative numbers, then maybe spoiled."""
    flat = draw(st.lists(st.floats(0, 1), min_size=n * m, max_size=n * m))
    _spoil(draw, flat)
    rows = [flat[i * m:(i + 1) * m] for i in range(n)]
    if m > 1 and draw(st.sampled_from([False] * 4 + [True])):
        rows[-1].pop()  # ragged
    return {"matrix": rows}


@st.composite
def factorizations(draw, n, m):
    """Diagonal factors splitting a random Λ over n and m labels, then maybe spoiled."""
    k = draw(st.integers(1, 3))
    lam = draw(st.lists(st.floats(0, 1), min_size=k, max_size=k))

    def split(count):
        weights = draw(st.lists(st.floats(0.01, 1), min_size=count, max_size=count))
        return [[[lam[i] * w / sum(weights) if i == j else 0.0 for j in range(k)]
                 for i in range(k)] for w in weights]

    C, D = split(n), split(m)
    flat = [lam] + [row for block in C + D for row in block]
    leaves = [v for row in flat for v in row]
    _spoil(draw, leaves)
    it = iter(leaves)
    for row in flat:
        row[:] = [next(it) for _ in row]
    return {"lambda": lam, "C": C, "D": D}


# tolerances below the rounding floor of the objective, down to the least subnormal
TOLS = st.one_of(NUMBERS, st.sampled_from(["1e-300", "5e-324"]))


def _solver_flags(draw):
    flags = ["--restarts", "1"]
    for flag, values in (("--tol", TOLS), ("--seed-rng", COUNTS)):
        if draw(st.booleans()):
            flags.append(f"{flag}={draw(values)}")
    return flags


@st.composite
def invocations(draw):
    """(argv with {target}, {seed} and {factorization} placeholders, files)."""
    command = draw(st.sampled_from(["check", "check-seed", "factorize", "verify", "simulate",
                                    "classical", "reduce", "lambda-candidates", "pipeline"]))
    n, m = draw(SIZES), draw(SIZES)
    files = {"target": draw(matrices(n, m)), "seed": draw(matrices(draw(SIZES), draw(SIZES))),
             "factorization": draw(factorizations(n, m))}
    if draw(st.booleans()):  # nested, as `factorize` and `pipeline` write it
        files["factorization"] = {"factorization": files["factorization"]}
    alphas = [f"--alphas={draw(LISTS)}"] if draw(st.booleans()) else []
    if command == "check":
        argv = ["check", "--target", "{target}", f"--schmidt={draw(LISTS)}", *alphas]
    elif command == "check-seed":
        argv = ["check", "--target", "{target}", "--seed", "{seed}", *alphas]
    elif command == "factorize":
        squared = ["--lambda-squared"] if draw(st.booleans()) else []
        argv = ["factorize", "--target", "{target}", f"--lambda={draw(LISTS)}", *squared,
                *_solver_flags(draw)]
    elif command == "verify":
        tol = [f"--tol={draw(NUMBERS)}"] if draw(st.booleans()) else []
        argv = ["verify", "--target", "{target}", "--factorization", "{factorization}", *tol]
    elif command == "simulate":
        argv = ["simulate", "--factorization", "{factorization}", f"--samples={draw(COUNTS)}",
                f"--seed-rng={draw(COUNTS)}"]
    elif command == "classical":
        argv = ["classical", "--seed", "{seed}", "--target", "{target}", *_solver_flags(draw)]
    elif command == "reduce":
        items = st.lists(st.one_of(COUNTS, st.integers(1, 60).map(str)), min_size=1, max_size=6)
        side = draw(st.sampled_from(["quantum", "classical"]))
        argv = ["reduce", f"--items={draw(items.map(','.join))}", f"--side={side}"]
    elif command == "lambda-candidates":
        argv = ["lambda-candidates", "--target", "{target}"]
    else:
        argv = ["pipeline", "--target", "{target}", f"--schmidt={draw(LISTS)}", *alphas,
                *_solver_flags(draw)]
    if draw(st.booleans()):
        argv += ["--format", "text"]
    return argv, files


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_cli_exits_0_1_or_2(invocation):
    argv, files = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in files.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(data, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([a.format(**paths) for a in argv])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 1:
        assert out.getvalue() == "" and "error" in err.getvalue(), argv
