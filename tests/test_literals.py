"""Every tolerance in the package is a named rule: a float literal with a
negative exponent (such as 1e-12) appears only as the value of a named
module constant or as a dataclass field default."""

import ast
from pathlib import Path
import tokenize

import pytest

import corrgen

PACKAGE = Path(corrgen.__file__).parent
# the record slack, the log-side rounding, the mass and unit-sum bounds, and
# the two step rules of a search
CONSTANTS = {"SLACK", "LOG_ROUNDING", "MASS_TOL", "UNIT_SUM_TOL", "ARMIJO", "PROGRESS_TOL"}


def _is_dataclass(decorator: ast.expr) -> bool:
    name = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(name, ast.Name) and name.id == "dataclass"


def _named_values(tree: ast.Module) -> set[tuple[int, float]]:
    """(line, value) of each named constant in ``CONSTANTS`` and each dataclass field default."""
    named = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id in CONSTANTS):
            named.add(node.value)
        elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            named.update(s.value for s in node.body if isinstance(s, ast.AnnAssign) and s.value)
    return {(v.lineno, v.value) for v in named if isinstance(v, ast.Constant)}


def _negative_exponent_literals(path: Path) -> list[tuple[int, float]]:
    with path.open("rb") as f:
        return [(tok.start[0], float(tok.string)) for tok in tokenize.tokenize(f.readline)
                if tok.type == tokenize.NUMBER and "e-" in tok.string.lower()]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_tolerance_literals_are_named(path):
    named = _named_values(ast.parse(path.read_text(encoding="utf-8")))
    stray = [site for site in _negative_exponent_literals(path) if site not in named]
    assert not stray, f"{path.name}: tolerance literals outside a named rule at {stray}"


def test_named_rules_are_found():
    # the guard sees the literals it allows, one per named constant and the τ default
    found = {(path.name, line) for path in PACKAGE.glob("*.py")
             for line, _ in _negative_exponent_literals(path)}
    assert len(found) == len(CONSTANTS) + 1
