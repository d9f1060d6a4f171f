"""The package names that README's module table cites must exist.

Each ``| `magball.X` |`` row describes one module.  A backticked token in the
row that looks like a code name is looked up: a private name (leading
underscore), a snake_case name with an underscore, or a dotted
``Class.attr`` or ``module.attr``.  The first two and ``Class.attr`` must
resolve in ``magball.X``; ``module.attr`` must resolve in
``magball.module``.  Formulas such as ``x^N = 1`` match none of these and are
left alone.
"""

import importlib
import re
from pathlib import Path

import pytest

import magball.algebra

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"\| `(magball\.\w+)` \|(.*)")
SNAKE = re.compile(r"[a-z][a-z0-9]*(?:_[a-z0-9]+)+")
DOTTED = re.compile(r"([A-Za-z]\w*)\.(\w+)")


def _rows() -> list[tuple[str, str]]:
    return [m.groups() for m in map(ROW.match, README.read_text(encoding="utf-8").splitlines()) if m]


def _cited(row: str) -> list[str]:
    return [token for token in re.findall(r"`([^`]+)`", row)
            if token.startswith("_") or SNAKE.fullmatch(token) or DOTTED.fullmatch(token)]


def _resolves(module, token: str) -> bool:
    dotted = DOTTED.fullmatch(token)
    if dotted is None:
        return hasattr(module, token)
    head, attr = dotted.groups()
    if head[0].isupper():
        return hasattr(getattr(module, head, None), attr)
    try:
        return hasattr(importlib.import_module(f"magball.{head}"), attr)
    except ModuleNotFoundError:
        return False


@pytest.mark.parametrize("name,row", _rows(), ids=[name for name, _ in _rows()])
def test_cited_names_resolve(name, row):
    module = importlib.import_module(name)
    assert [token for token in _cited(row) if not _resolves(module, token)] == []


def test_every_module_has_a_row():
    assert {name for name, _ in _rows()} >= {
        "magball.algebra", "magball.ball", "magball.splitting", "magball.lattice",
        "magball.constructions", "magball.codec", "magball.cli",
    }


# The guard flags a stale name and passes over formulas.
def test_the_guard_flags_a_bare_method_name():
    row = "`power_of_gen`, `FieldSpec.pack`, `FieldSpec.tables`, `x^N = 1`, `_field_tables`"
    assert [t for t in _cited(row) if not _resolves(magball.algebra, t)] == [
        "power_of_gen", "FieldSpec.tables", "_field_tables",
    ]
    assert _cited("`sum c_i p^i`, `Z_m1 x ... x Z_mr`, `F_{p^m}`") == []
