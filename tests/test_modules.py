"""Module boundaries: no chronomap module imports or reads a sibling's private name."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chronomap"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_uses(path):
    """``(line, name)`` for each private name of a sibling module used in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("chronomap")):
            if node.module in (None, "chronomap"):  # from . import dataio
                siblings.update(a.asname or a.name for a in node.names)
            uses += [(node.lineno, a.name) for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return uses


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert private_uses(path) == []


def test_the_check_finds_private_uses(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("from . import dataio\nfrom .transforms import _freeze, wigner\n"
                 "dataio._splits(1)\ndataio.save_map\n")
    assert private_uses(p) == [(2, "_freeze"), (3, "dataio._splits")]
