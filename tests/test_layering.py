"""Only the cyclotomic layer reads the coordinates of a field element: every
other module hands it rational lists and gets numbers or polynomials back."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heckeperiods"


def test_only_cyclotomic_reads_coords():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        if path.name == "cyclotomic.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "coords"
        ]
    assert not found, f"coordinates read outside cyclotomic.py: {', '.join(found)}"
