"""Only the cyclotomic layer reads the coordinates of a field element: every
other module hands it rational lists and gets numbers or polynomials back."""

import ast
from pathlib import Path

from heckeperiods.cyclotomic import ExactNumber

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heckeperiods"

# the coordinate view, the integer fields behind it and every private method
# of ExactNumber, whatever they are named
INTERNALS = {"coords", *ExactNumber.__slots__} - {"level"} | {
    name for name in vars(ExactNumber) if name.startswith("_") and not name.endswith("__")
}


def test_only_cyclotomic_reads_coords():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        if path.name == "cyclotomic.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in INTERNALS
        ]
    assert not found, f"field-element internals read outside cyclotomic.py: {', '.join(found)}"
