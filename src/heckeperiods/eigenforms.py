"""Eigenform fixtures: cusp forms as combinations of the period-kernel basis.

The bundled tables express Hecke eigenforms (level 1, weights 24-38) and
newforms on Gamma_0(2) (weights 14-24) as combinations sum_j c_j R_{n_j}
with coefficients in a real quadratic field.  This module supplies the
exact linear algebra to reproduce them from the bundled Hecke matrices
(characteristic polynomials, eigenvectors over Q(sqrt d)) and to push
character twists through such combinations.

Untwisted periods are never computed here; every check is arranged as a
ratio in which the untwisted factor cancels.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .characters import DirichletCharacter
from .cyclotomic import (
    ExactNumber,
    ExactPolynomial,
    QuadSurd,
    _Frozen,
    divisors,
    parse_quad_surd,
    square_and_squarefree_part,
)
from .periods import ParityError, PeriodContext, twisted_period

_ZERO = Fraction(0)


class FixtureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact matrices


class RationalMatrix(_Frozen):
    """A square matrix of rationals, of any dimension n >= 1."""

    __slots__ = _fields = ("rows",)
    __hash__ = None

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise ValueError("need a nonempty square matrix")
        super().__init__(rows)

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def transpose(self) -> "RationalMatrix":
        n = self.dimension
        return RationalMatrix([[self.rows[j][i] for j in range(n)] for i in range(n)])

    def apply(self, vector: Sequence[QuadSurd]) -> list[QuadSurd]:
        n = self.dimension
        if len(vector) != n:
            raise ValueError("dimension mismatch")
        return [
            sum((QuadSurd(self.rows[i][j], 0, 1) * vector[j] for j in range(n)), QuadSurd(0, 0, 1))
            for i in range(n)
        ]

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in row] for row in self.rows]})"


def _row_reduce(rows: Sequence[Sequence]) -> tuple[list[list], list[int], object]:
    """Gauss-Jordan elimination of Fraction or QuadSurd rows: the reduced
    row echelon form, its pivot columns and, for a square input, its
    determinant (the pivots' product signed by the row swaps, or 0)."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    det = 1
    for col in range(len(rows[0])):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            det = 0
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            det = -det
        pivot = rows[r][col]
        det = det * pivot
        rows[r] = [x / pivot for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                factor = row[col]
                rows[i] = [x - factor * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots, det


def _char_coeffs(matrix: RationalMatrix) -> list[Fraction]:
    """Ascending coefficients of det(xI - M): its values at x = 0 .. n-1,
    less the monic x^n, fix the rest through one Vandermonde solve."""
    n = matrix.dimension
    system = []
    for t in range(n):
        shifted = [[(t if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(matrix.rows)]
        value = _row_reduce(shifted)[2]
        system.append([Fraction(t) ** k for k in range(n)] + [value - t**n])
    reduced, _, _ = _row_reduce(system)
    return [row[n] for row in reduced] + [Fraction(1)]


def char_poly(matrix: RationalMatrix) -> ExactPolynomial:
    """Monic characteristic polynomial det(xI - M), exact."""
    return ExactPolynomial(_char_coeffs(matrix))


def _eval_fraction_poly(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    """Synthetic division by (x - root); root must be an exact root."""
    if _eval_fraction_poly(coeffs, root) != 0:
        raise ArithmeticError(f"{root} is not a root, deflation would be inexact")
    out = [_ZERO] * (len(coeffs) - 1)
    carry = _ZERO
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * root
        out[i - 1] = carry
    return out


def _rational_root(coeffs: list[Fraction]) -> Optional[Fraction]:
    """One rational root of a monic rational polynomial, or None; by the
    rational root theorem on its least integral multiple."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    const = int(coeffs[0] * scale)
    if const == 0:
        return _ZERO
    for q in divisors(scale):
        for p in divisors(abs(const)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _eval_fraction_poly(coeffs, cand) == 0:
                    return cand
    return None


def _quadratic_roots(c0: Fraction, c1: Fraction, c2: Fraction) -> list[QuadSurd]:
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        raise FixtureError("complex eigenvalues are out of scope")
    # sqrt(p/q) = sqrt(p*q)/q
    pq = disc.numerator * disc.denominator
    s, f = square_and_squarefree_part(pq)
    half = 1 / (2 * c2)
    base = -c1 * half
    if f == 1:
        r = Fraction(s, disc.denominator)
        return [QuadSurd(base + r * half, 0, 1), QuadSurd(base - r * half, 0, 1)]
    coeff = Fraction(s, disc.denominator) * half
    return [QuadSurd(base, coeff, f), QuadSurd(base, -coeff, f)]


def eigenvalues(matrix: RationalMatrix) -> list[QuadSurd]:
    """Eigenvalues with multiplicity; rational plus at most one quadratic pair.

    Raises FixtureError when the characteristic polynomial has an
    irreducible factor of degree 3 or more (unsupported factorization).
    """
    coeffs = _char_coeffs(matrix)
    roots: list[QuadSurd] = []
    while len(coeffs) - 1 >= 3:
        root = _rational_root(coeffs)
        if root is None:
            raise FixtureError(
                f"unsupported factorization: no rational root of a degree-{len(coeffs) - 1} factor"
            )
        roots.append(QuadSurd(root, 0, 1))
        coeffs = _deflate(coeffs, root)
    degree = len(coeffs) - 1
    if degree == 1:
        roots.append(QuadSurd(-coeffs[0] / coeffs[1], 0, 1))
    elif degree == 2:
        roots.extend(_quadratic_roots(coeffs[0], coeffs[1], coeffs[2]))
    return roots


def _nullspace(mat: list[list[QuadSurd]]) -> list[list[QuadSurd]]:
    """A basis of the kernel: one vector per free column of the reduced
    rows, with 1 in that column."""
    reduced, pivots, _ = _row_reduce(mat)
    zero, one = QuadSurd(0, 0, 1), QuadSurd(1, 0, 1)
    basis = []
    for free in range(len(mat[0])):
        if free in pivots:
            continue
        vec = [zero] * len(mat[0])
        vec[free] = one
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def _normalize_vector(vec: list[QuadSurd]) -> tuple[QuadSurd, ...]:
    """Scale to the primitive integral form with positive first coordinate."""
    first = next((x for x in vec if x), None)
    if first is None:
        raise ValueError("zero vector")
    if first.b:
        conj = first.conjugate()
        vec = [x * conj for x in vec]
    denoms = [x.a.denominator for x in vec] + [x.b.denominator for x in vec]
    scale = Fraction(math.lcm(*denoms))
    ints = [int(x.a * scale) for x in vec] + [int(x.b * scale) for x in vec]
    content = math.gcd(*ints)
    if content:
        scale /= content
    vec = [x * scale for x in vec]
    first = next(x for x in vec if x)
    if first.a < 0 or (first.a == 0 and first.b < 0):
        vec = [-x for x in vec]
    return tuple(vec)


def eigen_decompose(matrix: RationalMatrix) -> list[tuple[QuadSurd, tuple[QuadSurd, ...]]]:
    """Exact (eigenvalue, eigenvector) pairs with M v = lambda v.

    Eigenvectors are normalized to the primitive integral convention
    (smallest positive integral leading coordinate).  Eigenvalues of
    multiplicity k with a k-dimensional eigenspace yield k pairs.
    """
    n = matrix.dimension
    out: list[tuple[QuadSurd, tuple[QuadSurd, ...]]] = []
    for lam in dict.fromkeys(eigenvalues(matrix)):
        shifted = [
            [QuadSurd(matrix.rows[i][j], 0, 1) - (lam if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        for vec in _nullspace(shifted):
            out.append((lam, _normalize_vector(vec)))
    return out


# ---------------------------------------------------------------------------
# cyclotomic values with a formal adjoined square root


class SurdPair(QuadSurd):
    """u + v*sqrt(d) with u, v cyclotomic: QuadSurd over Q(zeta).

    Used when eigenform coefficients live in Q(sqrt d) for d too large to
    embed cyclotomically (144169, 18209, ...); d must not become a square
    in the cyclotomic field, which holds for all bundled fixtures.
    """

    __slots__ = ()

    def __init__(self, base: ExactNumber, radical: ExactNumber, d: int):
        # defined here, not inherited: the benchmark tracer (perfbench/tracer.py)
        # counts constructions by patching vars(SurdPair)["__init__"]
        super().__init__(base, radical, d)

    base = property(lambda self: self.a)
    radical = property(lambda self: self.b)

    @classmethod
    def zero(cls, d: int = 1) -> "SurdPair":
        return cls(ExactNumber.zero(), ExactNumber.zero(), d)

    conjugate_radical = QuadSurd.conjugate

    def numeric(self) -> complex:
        return self.base.numeric() + self.radical.numeric() * math.sqrt(self.d)

    def __repr__(self):
        return f"SurdPair(d={self.d})"

    __str__ = __repr__  # QuadSurd's text form prints rational parts only


# ---------------------------------------------------------------------------
# combinations of the period-kernel forms


class RnCombination(_Frozen):
    """A cusp form written as sum_j coeff_j * R_{n_j} on Gamma_0(level)."""

    __slots__ = _fields = ("level", "weight", "terms")

    def __init__(self, level: int, weight: int, terms: tuple[tuple[int, QuadSurd], ...]):
        w = weight - 2
        if weight % 2 or w < 2:
            raise FixtureError(f"weight must be even and >= 4, got {weight}")
        indices = [n for n, _ in terms]
        if len(set(indices)) != len(indices):
            raise FixtureError("duplicate basis indices")
        for n in indices:
            if not 0 < n < w:
                raise FixtureError(f"index {n} outside 0 < n < {w}")
        super().__init__(level, weight, terms)

    @property
    def w(self) -> int:
        return self.weight - 2

    @property
    def radicand(self) -> int:
        d = 1
        for _, coeff in self.terms:
            if coeff.d != 1:
                if d not in (1, coeff.d):
                    raise FixtureError("mixed radicands in one combination")
                d = coeff.d
        return d

    def scaled(self, factor) -> "RnCombination":
        return RnCombination(
            self.level, self.weight, tuple((n, c * factor) for n, c in self.terms)
        )

    def conjugate(self) -> "RnCombination":
        """Galois conjugate: sqrt(d) -> -sqrt(d) in every coefficient."""
        return RnCombination(
            self.level, self.weight, tuple((n, c.conjugate()) for n, c in self.terms)
        )


def twisted_period_of_combination(
    form: RnCombination, chi: DirichletCharacter, m: int
) -> SurdPair:
    """sum_j coeff_j * r_{m,chi}(R_{n_j}) by linearity, with the quadratic
    coefficients carried formally as a (base, radical) pair."""
    d = form.radicand
    total = SurdPair.zero(d)
    for n, coeff in form.terms:
        ctx = PeriodContext(form.level, form.w, n, chi)
        value = twisted_period(ctx, m)  # raises ParityError when inadmissible
        total = total + SurdPair(value * coeff.a, value * coeff.b, d)
    return total


def twisted_lambda_ratio(
    form: RnCombination, chi: DirichletCharacter, m1: int, m2: int
) -> SurdPair:
    """Ratio of completed twisted L-values at m1+1 and m2+1:
    (-D*i)^(m1-m2) * r_{m1,chi}(form) / r_{m2,chi}(form), exact."""
    num = twisted_period_of_combination(form, chi, m1)
    den = twisted_period_of_combination(form, chi, m2)
    if den.is_zero():
        raise ZeroDivisionError("central value vanishes or sign forces zero")
    base = ExactNumber.zeta(4, 1) * (-chi.modulus)
    return (num / den) * base ** (m1 - m2)


# ---------------------------------------------------------------------------
# fixture registry


class HeckeMatrixFixture(NamedTuple):
    """A Hecke-operator matrix acting on a block of the R_n basis.

    ``basis_action`` is the printed orientation: it maps the column
    (R_{n_1}, ..., R_{n_k})^T.  Eigenform coefficient rows are therefore
    right-eigenvectors of the transpose, exposed as ``coefficient_matrix``.
    """

    name: str
    weight: int
    level: int
    operator: int
    basis_indices: tuple[int, ...]
    basis_action: RationalMatrix

    @property
    def coefficient_matrix(self) -> RationalMatrix:
        return self.basis_action.transpose()


class CentralValueRow(NamedTuple):
    discriminant: int
    factored: str
    value: int


class CentralValueTable(NamedTuple):
    """sqrt(D)-normalized central twisted/untwisted completed L-value ratios."""

    weight: int
    level: int
    m: int
    newform: str
    rows: tuple[CentralValueRow, ...]

    def value(self, discriminant: int) -> int:
        for row in self.rows:
            if row.discriminant == discriminant:
                return row.value
        raise KeyError(discriminant)

    @property
    def discriminants(self) -> list[int]:
        return [row.discriminant for row in self.rows]


class FixtureRegistry(NamedTuple):
    eigenforms: dict[str, RnCombination]
    matrices: dict[str, HeckeMatrixFixture]
    central_values: CentralValueTable

    def eigenform(self, name: str) -> RnCombination:
        try:
            return self.eigenforms[name]
        except KeyError:
            raise FixtureError(f"unknown eigenform fixture {name!r}") from None

    def matrix(self, name: str) -> HeckeMatrixFixture:
        try:
            return self.matrices[name]
        except KeyError:
            raise FixtureError(f"unknown matrix fixture {name!r}") from None

    def newforms(self, level: int, weight: int) -> list[RnCombination]:
        return [
            f
            for name, f in sorted(self.eigenforms.items())
            if f.level == level and f.weight == weight
        ]


def _parse_factored(text: str) -> int:
    """Evaluate a product string like "2*(2^7*3^2)^2" to an integer: surd
    text (parse_quad_surd) restricted to digits, "*", "^" and parentheses."""
    if set(text) <= set("0123456789*^()"):
        try:
            value = parse_quad_surd(text)
        except ValueError:
            pass
        else:
            if value.b == 0 and value.a.denominator == 1:
                return value.a.numerator
    raise FixtureError(f"cannot parse factored value {text!r}")


def _load_json(name: str) -> dict:
    # imported on the first fixture read: from Python 3.12 on it loads
    # inspect, which a request that reads no fixture never needs
    from importlib import resources

    path = resources.files(__package__) / "fixtures" / name
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{name}: malformed JSON at line {exc.lineno}") from exc


def load_fixtures() -> FixtureRegistry:
    """Parse and validate the bundled fixture files."""
    eigenforms: dict[str, RnCombination] = {}
    for filename in ("sl2z_eigenforms.json", "gamma0_2_newforms.json"):
        data = _load_json(filename)
        for entry in data["forms"]:
            name = entry["name"]
            try:
                terms = tuple(
                    (term["n"], parse_quad_surd(term["coeff"])) for term in entry["terms"]
                )
                form = RnCombination(entry["level"], entry["weight"], terms)
                parity = entry["parity"]
                if any(n % 2 != (1 if parity == "odd" else 0) for n, _ in terms):
                    raise FixtureError(f"{name}: parity tag does not match indices")
            except (KeyError, ValueError) as exc:
                raise FixtureError(f"{filename}: entry {name!r}: {exc}") from exc
            eigenforms[name] = form

    matrices: dict[str, HeckeMatrixFixture] = {}
    data = _load_json("hecke_matrices.json")
    for entry in data["matrices"]:
        name = entry["name"]
        try:
            fixture = HeckeMatrixFixture(
                name=name,
                weight=entry["weight"],
                level=entry["level"],
                operator=entry["operator"],
                basis_indices=tuple(entry["basis_indices"]),
                basis_action=RationalMatrix(entry["rows"]),
            )
            w = fixture.weight - 2
            if any(not 0 < n < w for n in fixture.basis_indices):
                raise FixtureError("basis indices out of range")
            if len(fixture.basis_indices) != fixture.basis_action.dimension:
                raise FixtureError("dimension mismatch")
        except (KeyError, ValueError) as exc:
            raise FixtureError(f"hecke_matrices.json: entry {name!r}: {exc}") from exc
        matrices[name] = fixture

    data = _load_json("central_values.json")
    rows = []
    for entry in data["rows"]:
        value = _parse_factored(entry["factored"])
        if value != entry["value"]:
            raise FixtureError(
                f"central_values.json: D={entry['D']}: factored form "
                f"{entry['factored']} != stored value {entry['value']}"
            )
        rows.append(CentralValueRow(entry["D"], entry["factored"], value))
    table = CentralValueTable(
        weight=data["weight"],
        level=data["level"],
        m=data["m"],
        newform=data["newform"],
        rows=tuple(rows),
    )
    if table.newform not in eigenforms:
        raise FixtureError(f"central_values.json: unknown newform {table.newform!r}")

    return FixtureRegistry(eigenforms=eigenforms, matrices=matrices, central_values=table)
