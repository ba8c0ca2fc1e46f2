"""Only the cyclotomic layer reads the coordinates of a field element, the
factored form of a polynomial or the kept-apart constant of a number: every
other module hands it rational lists and gets numbers or polynomials back.
And no module keeps a private helper that nothing in the package reads, and
one base class alone makes values immutable."""

import ast
from pathlib import Path

from heckeperiods.cyclotomic import ExactNumber, ExactPolynomial, _TimesConstant

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heckeperiods"

# the coordinate view, the integer fields behind it and every private method
# of ExactNumber, and the factored representations of ExactPolynomial and
# _TimesConstant (their fields and private methods), whatever they are named
INTERNALS = {"coords", *ExactNumber.__slots__, *ExactPolynomial.__slots__, *_TimesConstant.__slots__} - {"level"} | {
    name
    for cls in (ExactNumber, ExactPolynomial, _TimesConstant)
    for name in vars(cls)
    if name.startswith("_") and not name.endswith("__")
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
    assert not found, f"field-element or polynomial internals read outside cyclotomic.py: {', '.join(found)}"


def _defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def test_every_private_module_name_is_read():
    # a module-level private function, class or constant must be loaded, by
    # name or as an attribute, by some statement of the package other than
    # the one that defines it: a refactor must not leave a helper behind
    defined: dict[str, str] = {}
    loaded: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = _defined_names(stmt)
            defined.update({name: path.name for name in own if name.startswith("_") and not name.startswith("__")})
            reads = {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            reads |= {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            loaded |= reads - own
    assert defined
    unread = sorted(f"{module}:{name}" for name, module in defined.items() if name not in loaded)
    assert not unread, f"private module names nothing in the package reads: {', '.join(unread)}"


def _loaders(name: str) -> list[str]:
    """module:function for every load of name, by name or as an attribute,
    in the package, under the innermost function or class around it."""
    found = []

    def visit(node: ast.AST, path: Path, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{owner}.{child.name}" if owner else child.name)
                continue
            loaded = (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            )
            if loaded and isinstance(child.ctx, ast.Load):
                found.append(f"{path.name}:{owner or '<module>'}")
            visit(child, path, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "")
    return found


def test_only_fold_reads_the_reduction_table():
    # every way into Q(zeta_L) (product, zeta, lift, Galois image, bucket
    # sum) reduces through _fold, so a new reduction replaces one function;
    # the table's one other reader is its own recursion, which hands a level
    # the table of its radical
    assert sorted(set(_loaders("_power_table"))) == ["cyclotomic.py:_fold", "cyclotomic.py:_power_table"]


def test_the_trace_double_sum_keeps_its_own_terms():
    # the trace's closed form walks the quadruples itself: if it read G_n's
    # classes, both trace routes would rest on the same G_n code
    assert sorted(set(_loaders("_quadruple_buckets"))) == [
        "periods.py:closed_form_polynomial",
        "periods.py:quadruple_sum_polynomial",
    ]
    assert "traces.py:_double_sum_polynomials" in _loaders("_quadruple_walk")


def test_the_oracle_keeps_its_own_walk():
    # case 5 reads the oracle's own walk of quadruples and Bezout residues:
    # if it, or that walk, read the closed form's walk, both sides of the
    # central oracle would rest on the same quadruple code
    assert not {"periods.py:_case_buckets", "periods.py:_case_walk"} & set(_loaders("_quadruple_walk"))
    assert sorted(set(_loaders("_case_walk"))) == ["periods.py:_case_buckets"]


def test_only_bernoulli_and_the_oracle_read_the_rows():
    # a weighted Bernoulli number carries its own denominator D * L_k, so no
    # closed form rebuilds it from a row; only the oracle's cases 1-4 read rows
    outside = {loader for loader in _loaders("_bernoulli_row") if not loader.startswith("bernoulli.py:")}
    assert outside == {"periods.py:_case_buckets"}


def _class_methods(name: str) -> list[str]:
    """module:Class for every class of the package that defines name, by a
    def or an assignment in its body."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and name in set().union(*map(_defined_names, node.body)):
                found.append(f"{path.name}:{node.name}")
    return found


def test_one_immutability_mechanism():
    # every value class refuses assignment through the one base, and the
    # records that validate compare and print through it too
    assert _class_methods("__setattr__") == ["cyclotomic.py:_Frozen"]
    records = {
        "periods.py:PeriodContext",
        "traces.py:TraceQuery",
        "eigenforms.py:RnCombination",
        "numeric.py:QExpansion",
    }
    for method in ("__eq__", "__repr__"):
        assert not records & set(_class_methods(method)), f"a validating record defines its own {method}"
