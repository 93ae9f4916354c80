"""Structural checks: each keeps one past refactor of the code in place.

They read the source, not its values, and mirror the structural steps of
the CI workflow.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "levyclocks"


def family_comparisons(path: Path) -> list[str]:
    """``file:line`` of each Family member that a comparison reads, in
    either operand: ``is``, ``==``, ``in (...)`` and the rest."""
    return sorted({
        f"{path.name}:{node.lineno}"
        for compare in ast.walk(ast.parse(path.read_text()))
        if isinstance(compare, ast.Compare)
        for node in ast.walk(compare)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "Family"})


def test_no_family_comparison():
    # each family is declared once, by one function in models.py's table,
    # and every module reads the declaration, not the family's name
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in family_comparisons(path)] == []
