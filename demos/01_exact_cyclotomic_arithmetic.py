"""Tour of the exact arithmetic layer: cyclotomic numbers, square roots,
quadratic-surd recognition, and polynomials.

Everything is computed over Q(zeta_M) with rational coordinates; no floats
are involved until we explicitly ask for a numerical evaluation.
"""

from fractions import Fraction

from heckeperiods import (
    ExactNumber,
    ExactPolynomial,
    recognize_surd,
    sqrt_integer,
)

# A fourth root of unity really is i: squaring gives -1, exactly.
i = ExactNumber.zeta(4, 1)
print("i * i =", (i * i).rational_value())

# Roots of unity of different levels mix freely; operands are lifted to the
# least common cyclotomic level behind the scenes.
z3 = ExactNumber.zeta(3, 1)
mixed = i * z3 + Fraction(1, 2)
print("i*zeta_3 + 1/2 lives at level", mixed.level)
print("   numerically:", mixed.numeric())

# Square roots of squarefree integers come from quadratic Gauss sums.
s3 = sqrt_integer(3)
print("sqrt(3)^2 =", (s3 * s3).rational_value(), " float:", s3.numeric().real)

# Inversion is exact: (1/x) * x == 1 even for messy elements.
x = z3 * Fraction(3, 7) + s3.lift_to(12) * Fraction(-2, 5)
print("x * x^-1 == 1:", x * x.inverse() == ExactNumber.one())

# recognize_surd writes a cyclotomic number as a + b*sqrt(d) when possible.
value = s3 * Fraction(-2359296, 5)
print("recognized:", recognize_surd(value))          # -2359296/5 * sqrt(3)
print("zeta_5 recognized:", recognize_surd(ExactNumber.zeta(5, 1)))  # None

# Polynomials carry exact coefficients; they are the output type of the
# period formulas, which do their substitutions on rational coefficient lists.
p = ExactPolynomial([Fraction(1, 6), -1, 1, 0])  # x^2 - x + 1/6; a trailing zero adds no degree
print("p has degree", p.degree(), "and coefficients", [str(c.rational_value()) for c in p.coefficients])

# Serialization round-trips bit-exactly.
print("JSON form of 1/3 at level 4:", ExactNumber.from_rational(Fraction(1, 3), 4).to_json())
