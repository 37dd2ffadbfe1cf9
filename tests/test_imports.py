"""The package loads a submodule only when one of its names is first read, and each CLI
command loads only the modules it runs."""

import importlib
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import corrgen
from corrgen import conditions

SUBMODULES = ("correlation", "conditions", "factorize", "purify", "classical")
# the parent of the package directory, so the child imports this checkout's corrgen
SRC = str(Path(corrgen.__file__).resolve().parents[1])

REPORT = """
import contextlib, io, json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "corrgen")))
"""
RUN_CLI = """
from corrgen import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == {code}
"""


def _loaded(body, cwd):
    """The ``corrgen`` modules a fresh interpreter has loaded after running ``body``."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", REPORT.format(body=body)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule(tmp_path):
    assert _loaded("import corrgen", tmp_path) == ["corrgen"]


@pytest.mark.parametrize("argv, code, modules", [
    (["check", "--target", "{target}", "--schmidt", "0.5,0.5"], 0,
     ["corrgen.cli", "corrgen.conditions", "corrgen.correlation"]),
    # the seed's canonical purification needs purify, never the solver
    (["check", "--target", "{target}", "--seed", "{target}"], 0,
     ["corrgen.cli", "corrgen.conditions", "corrgen.correlation", "corrgen.purify"]),
    (["reduce", "--items", "3,1,2"], 0,
     ["corrgen.classical", "corrgen.cli", "corrgen.conditions", "corrgen.correlation",
      "corrgen.factorize"]),
], ids=["check", "check-seed", "reduce"])
def test_command_loads_only_what_it_runs(tmp_path, argv, code, modules):
    target = tmp_path / "half_id.json"
    target.write_text(json.dumps({"matrix": [[0.5, 0.0], [0.0, 0.5]]}))
    argv = [a.format(target=target) for a in argv]
    assert _loaded(RUN_CLI.format(argv=argv, code=code), tmp_path) == ["corrgen", *modules]


def test_public_names_are_their_submodules_objects():
    assert len(set(corrgen.__all__)) == len(corrgen.__all__)
    modules = [importlib.import_module(f"corrgen.{name}") for name in SUBMODULES]
    assert [getattr(corrgen, name) for name in SUBMODULES] == modules
    for name in corrgen.__all__:
        bound = [getattr(m, name) for m in modules if hasattr(m, name)]
        assert bound, name
        assert all(obj is getattr(corrgen, name) for obj in bound), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from corrgen import *", namespace)
    assert set(corrgen.__all__) <= namespace.keys()
    assert set(corrgen.__all__) <= set(dir(corrgen))


def test_unknown_name_raises_attribute_error():
    """A pin: an unknown name was an AttributeError before the names were resolved lazily."""
    with pytest.raises(AttributeError, match="no_such_name"):
        corrgen.no_such_name  # noqa: B018
    assert not hasattr(corrgen, "check")


def test_names_follow_their_submodule(monkeypatch):
    # a name is not kept in the package, so a wrapper set on the submodule, as a tracer
    # sets one, is seen through the package while it is set and gone once it is removed
    original = conditions.check_all

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(conditions, "check_all", wrapper)
    assert corrgen.check_all is wrapper
    monkeypatch.undo()
    assert corrgen.check_all is original
