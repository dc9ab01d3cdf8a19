"""The library stays exact and portable: no float literal and no use of
``float`` in it, and no private constructor of ``Fraction``."""

import ast
from pathlib import Path

import pytest

LIBRARY = sorted((Path(__file__).resolve().parents[1] / "src" / "syncgames").glob("*.py"))


def test_the_library_modules_are_found():
    assert {"simplex.py", "morphology.py", "corrcore.py"} <= {path.name for path in LIBRARY}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda path: path.name)
def test_no_floats_in_the_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Attribute) and node.attr == "float")
    ]
    assert not found, f"float in the library at {', '.join(found)}"


@pytest.mark.parametrize("path", LIBRARY, ids=lambda path: path.name)
def test_no_private_fraction_constructor_in_the_library(path):
    # Fraction(n, d, _normalize=False) was removed in Python 3.12, and
    # Fraction._from_coprime_ints does not exist before it.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.keyword) and node.arg == "_normalize")
        or (isinstance(node, ast.Attribute) and node.attr == "_from_coprime_ints")
    ]
    assert not found, f"private Fraction constructor in the library at {', '.join(found)}"
