"""Exact arithmetic in cyclotomic fields Q(zeta_M).

Numbers are stored as dense coordinate vectors on the power basis
1, zeta_M, ..., zeta_M^(phi(M)-1), reduced modulo the M-th cyclotomic
polynomial: integer numerators over one common denominator.  A product
multiplies integer vectors by Kronecker substitution and folds the high
powers back with the reduction table.  Packed integers, here and in the
period routes' quadruple sums, are read back by one digit reader,
``_signed_digits``.  Binary operations
lift both operands to the least common cyclotomic level, so values born at
different levels (rationals, character values, Gauss sums, i) mix freely.
A number is read back as a rational surd a + b*sqrt(d) from one Galois
conjugate at its own level (``recognize_surd``).

Everything here is immutable and pure; the reduction tables are built
only at squarefree levels, whole on first use, and only read afterwards:
a level L shares the table of its radical r, since Phi_L(x) = Phi_r(x^(L/r)).
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

# the bound of every memo in the package
_MEMO_SIZE = 1024


# ---------------------------------------------------------------------------
# integer helpers


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(n).items())


def factorize(n: int, bound: Optional[int] = None) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division (desk-scale inputs).
    With a bound, only candidates below it are tried, and what is left, a
    number whose prime factors all lie at or above the bound, is entered
    as one factor: prime whenever it is below bound**2."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    factors: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m and (bound is None or p < bound):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def square_and_squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s**2 * f with f squarefree; returns (s, f)."""
    s, f = 1, 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    return s, f


def is_squarefree(n: int) -> bool:
    return n >= 1 and square_and_squarefree_part(n)[0] == 1


def squarefree_divisors(n: int) -> list[int]:
    """The divisors of the radical of n."""
    return divisors(math.prod(factorize(n)))


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction tables


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending: the product of
    (1 - x^(m/s))^mu(s) over squarefree s | m, as power series cut at
    degree phi(m), one in-place sweep per factor.  For m > 1 the signs of
    the factors cancel; for m = 1 the product is 1 - x = -Phi_1."""
    if m < 1:
        raise ValueError("level must be positive")
    phi = euler_phi(m)
    poly = [1] + [0] * phi
    for s in squarefree_divisors(m):
        k = m // s
        if len(factorize(s)) % 2:  # mu(s) = -1: times 1/(1 - x^k) = sum_j x^(jk)
            for i in range(k, phi + 1):
                poly[i] += poly[i - k]
        else:  # mu(s) = 1: times 1 - x^k
            for i in range(phi, k - 1, -1):
                poly[i] -= poly[i - k]
    return tuple(-c for c in poly) if m == 1 else tuple(poly)


@lru_cache(maxsize=_MEMO_SIZE)
def _power_table(level: int) -> tuple[int, int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(s, phi(r), rows) for the radical r of the level and s = level / r:
    the coordinates of zeta_r**e on the power basis of Q(zeta_r), as sparse
    (index, integer) pairs, for 0 <= e < max(r, 2*phi(r)), which covers
    every residue slice _fold reads.  Rows are built only at a squarefree
    level, whole, never extended; any other level shares its radical's."""
    radical = math.prod(factorize(level))
    if radical != level:
        _, phi, rows = _power_table(radical)
        return level // radical, phi, rows
    cyclo = cyclotomic_polynomial(level)
    phi = len(cyclo) - 1
    # x^phi = -(lower part of Phi) since Phi is monic
    x_phi = [(t, -c) for t, c in enumerate(cyclo[:-1]) if c]
    rows = [((j, 1),) for j in range(phi)]
    while len(rows) < max(level, 2 * phi):
        row: dict[int, int] = {}
        for t, r in rows[-1]:  # times x
            for s, c in x_phi if t + 1 == phi else ((t + 1, 1),):
                row[s] = row.get(s, 0) + r * c
        rows.append(tuple((t, r) for t, r in row.items() if r))
    return 1, phi, tuple(rows)


def _fold(values: Sequence, level: int) -> list:
    """Coordinates of sum_e values[e] * zeta_level**e, for
    len(values) <= max(level, 2*phi(level) - 1).  Integer values fold to
    integers: the padding is int 0.  The one reduction mod Phi_level and
    the only reader of the table.  With r the radical and s = level / r,
    Phi_level(x) = Phi_r(x**s), so the exponents t, t + s, t + 2s, ... form
    one polynomial in zeta_level**s = zeta_r, reduced by the table at r into
    the coordinates t, t + s, ..., t + s*(phi(r) - 1)."""
    step, phi, rows = _power_table(level)
    out = [0] * (step * phi)
    for t in range(step):
        part = values[t::step]
        coords = list(part[:phi]) + [0] * (phi - len(part))
        for e in range(phi, len(part)):
            q = part[e]
            if q:
                for j, r in rows[e]:
                    coords[j] += q * r
        out[t::step] = coords
    return out


def _kronecker_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two ascending integer coefficient lists by Kronecker
    substitution: each list becomes one integer in base 2**(8 * width), the
    two integers are multiplied once (a list times itself is packed once
    and squared), and _signed_digits reads the product's digits back.
    Every digit is shifted by half the base, so signed coefficients pack
    and unpack as fixed-width unsigned bytes in linear time."""
    size = len(a) + len(b) - 1
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    if not top_a or not top_b:
        return [0] * size
    # |product coefficient| <= min(len) * top_a * top_b < half
    width = (min(len(a), len(b)) * top_a * top_b).bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    packed = _kronecker_pack(a, width, half)
    product = packed * (packed if b is a else _kronecker_pack(b, width, half))
    return _signed_digits(product, width, size)


def _kronecker_pack(values: Sequence[int], width: int, half: int) -> int:
    """sum_i values[i] * 2**(8 * width * i), for |values[i]| < half."""
    shifted = int.from_bytes(b"".join((v + half).to_bytes(width, "little") for v in values), "little")
    return shifted - _half_digits(width, len(values))


def _signed_digits(value: int, width: int, count: int) -> list[int]:
    """The count balanced digits d_i of value in base 2**(8 * width), lowest
    first: value = sum_i d_i * 2**(8 * width * i) with -half <= d_i < half,
    half = 2**(8 * width - 1).  The one digit reader of packed integers.
    It is exact only when value has such digits, all below half in absolute
    value: a digit that outgrew its width carries silently into the next, so
    every caller sizes the width from a stated bound."""
    half = 1 << (8 * width - 1)
    data = (value + _half_digits(width, count)).to_bytes(width * count, "little")
    return [int.from_bytes(data[i : i + width], "little") - half for i in range(0, width * count, width)]


def _half_digits(width: int, count: int) -> int:
    """The integer whose count base-2**(8 * width) digits are all half the base."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


# ---------------------------------------------------------------------------
# field elements


class ExactNumber:
    """An element of Q(zeta_M), M = self.level.

    The coordinates on the power basis, after reduction mod Phi_M, are kept
    as integer numerators over one positive common denominator, in lowest
    terms (gcd(den, *nums) = 1), so equal numbers at one level have equal
    fields.  Two numbers at different levels compare equal iff they agree
    after lifting to the least common level.
    """

    __slots__ = ("level", "_den", "_nums")

    def __init__(self, level: int, coords: Iterable[Fraction]):
        coords = [Fraction(c) for c in coords]
        if len(coords) != euler_phi(level):
            raise ValueError(
                f"need {euler_phi(level)} coordinates at level {level}, got {len(coords)}"
            )
        den, (nums,) = _cleared([[(q.numerator, q.denominator) for q in coords]])
        _store(self, level, den, nums)

    @classmethod
    def _make(cls, level: int, den: int, nums: Sequence[int]) -> "ExactNumber":
        """The number sum_j nums[j]/den * zeta_level**j, for phi(level)
        integers nums and a nonzero integer den: how every result is built."""
        self = object.__new__(cls)
        _store(self, level, den, nums)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ExactNumber is immutable")

    # -- constructors

    @classmethod
    def from_rational(cls, q, level: int = 1) -> "ExactNumber":
        q = Fraction(q)
        return cls._make(level, q.denominator, [q.numerator] + [0] * (euler_phi(level) - 1))

    @classmethod
    def zeta(cls, level: int, k: int = 1) -> "ExactNumber":
        return _bucket_sum([0] * (k % level) + [1], level)

    @classmethod
    def zero(cls, level: int = 1) -> "ExactNumber":
        return cls.from_rational(0, level)

    @classmethod
    def one(cls, level: int = 1) -> "ExactNumber":
        return cls.from_rational(1, level)

    # -- structure

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The rational coordinates on the power basis."""
        return tuple(Fraction(n, self._den) for n in self._nums)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_rational(self) -> bool:
        return not any(self._nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self._nums[0], self._den)

    def _map_exponents(self, level: int, k: int) -> "ExactNumber":
        """sum_j coords[j] * zeta_level**(j*k mod level), at the given level.
        When no exponent wraps (a lift), the list ends at the largest one,
        so _fold walks no zeros above it."""
        k %= level
        out = [0] * min(level, (len(self._nums) - 1) * k + 1)
        for j, c in enumerate(self._nums):
            out[j * k % level] = c
        return _bucket_sum(out, level, self._den)

    def lift_to(self, level: int) -> "ExactNumber":
        if level == self.level:
            return self
        if level % self.level != 0:
            raise ValueError(f"cannot lift level {self.level} into level {level}")
        return self._map_exponents(level, level // self.level)

    def galois(self, a: int) -> "ExactNumber":
        """The automorphism sigma_a: zeta -> zeta**a of Q(zeta_level)."""
        if math.gcd(a, self.level) != 1:
            raise ValueError(f"{a} is not a unit mod {self.level}")
        return self._map_exponents(self.level, a)

    def conjugate(self) -> "ExactNumber":
        """Complex conjugation zeta -> zeta^(-1)."""
        return self.galois(-1)

    def _common(self, other: "ExactNumber") -> tuple["ExactNumber", "ExactNumber"]:
        if self.level == other.level:
            return self, other
        lv = math.lcm(self.level, other.level)
        return self.lift_to(lv), other.lift_to(lv)

    # -- arithmetic

    @staticmethod
    def _coerce(value) -> "ExactNumber":
        if isinstance(value, ExactNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactNumber.from_rational(value)
        return NotImplemented  # type: ignore[return-value]

    def _scale(self, num: int, den: int) -> "ExactNumber":
        """self * num/den, for integers num and den != 0."""
        return ExactNumber._make(self.level, self._den * den, [x * num for x in self._nums])

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        den = math.lcm(a._den, b._den)
        ka, kb = den // a._den, den // b._den
        return ExactNumber._make(a.level, den, [x * ka + y * kb for x, y in zip(a._nums, b._nums)])

    __radd__ = __add__

    def __neg__(self):
        return ExactNumber._make(self.level, self._den, [-c for c in self._nums])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        if a.is_rational():
            return b._scale(a._nums[0], a._den)
        if b.is_rational():
            return a._scale(b._nums[0], b._den)
        # both operands have phi(level) coordinates
        return _bucket_sum(_kronecker_mul(a._nums, b._nums), a.level, a._den * b._den)

    __rmul__ = __mul__

    def inverse(self) -> "ExactNumber":
        """alpha^-1 = cofactor / (alpha * cofactor), taking the norm one cyclic
        Galois orbit at a time: for each unit a that moves P = alpha *
        cofactor, the images sigma_a**i(P), i < ord(a), join the cofactor,
        and P is then fixed by sigma_a as well.  The loop stops as soon as P
        is rational.  A Gauss sum of a primitive character takes one image:
        its conjugate (P = +-D), or for a real one, sqrt(D), -sqrt(D)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        product, cofactor = self, []
        for a in (-1, *range(2, self.level)):
            if product.is_rational():
                break
            if math.gcd(a, self.level) != 1:
                continue
            image = product.galois(a)
            if image == product:
                continue
            order = next(k for k in range(2, self.level) if pow(a, k, self.level) == 1)
            for i in range(1, order):
                if i > 1:
                    image = image.galois(a)
                cofactor.append(image)
                product = product * image
                if product.is_rational():
                    break
        result = math.prod(cofactor[1:], start=cofactor[0]) if cofactor else ExactNumber.one(self.level)
        return result._scale(product._den, product._nums[0])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return self._scale(other.denominator, other.numerator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse()._scale(other.numerator, other.denominator)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ExactNumber.one(self.level)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a._den == b._den and a._nums == b._nums

    __hash__ = None  # mutable-free but not canonical across levels

    # -- output

    def numeric(self) -> complex:
        den, level = self._den, self.level
        return sum((n / den * cmath.exp(2j * cmath.pi * j / level) for j, n in enumerate(self._nums) if n), 0j)

    def to_json(self) -> dict:
        return {"level": self.level, "coords": [_fmt_rational(c) for c in self.coords]}

    @classmethod
    def from_json(cls, data: dict) -> "ExactNumber":
        return cls(data["level"], [Fraction(c) for c in data["coords"]])

    def __repr__(self):
        if self.is_rational():
            return f"ExactNumber({self.rational_value()})"
        return f"ExactNumber(level={self.level}, coords={[str(c) for c in self.coords]})"


def _store(number: ExactNumber, level: int, den: int, nums: Sequence[int]) -> None:
    """Set the fields of a new number, in lowest terms with den > 0."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    object.__setattr__(number, "level", level)
    object.__setattr__(number, "_den", den)
    object.__setattr__(number, "_nums", tuple(nums))


@lru_cache(maxsize=_MEMO_SIZE)
def sqrt_integer(n: int) -> ExactNumber:
    """Exact square root of a squarefree positive integer, living at level 4n.

    Built from quadratic Gauss sums (sqrt2 = zeta8 + zeta8^-1; for odd prime
    p the Legendre-symbol sum gives sqrt(p) or i*sqrt(p) according to
    p mod 4).  The positive branch is fixed by floating evaluation rather
    than by sign theory, then confirmed by squaring.
    """
    if n < 1:
        raise ValueError("need a positive integer")
    if not is_squarefree(n):
        raise ValueError(f"{n} is not squarefree")
    level = 4 * n
    result = ExactNumber.one(level)
    for p in factorize(n):
        if p == 2:
            factor = _bucket_sum([0, 1, 0, 0, 0, 0, 0, 1], 8)  # zeta8 + zeta8^7
        else:
            factor = _bucket_sum([_legendre(a, p) for a in range(p)], p)
            if p % 4 == 3:
                # gauss sum is i*sqrt(p); divide out i
                factor = factor.lift_to(4 * p) * ExactNumber.zeta(4, 3)
        result = result * factor.lift_to(level)
    if result.numeric().real < 0:
        result = -result
    if result * result != ExactNumber.from_rational(n):
        raise ArithmeticError(f"square root construction failed for {n}")
    return result


def sqrt_positive_integer(n: int) -> ExactNumber:
    """sqrt(n) for any positive integer: square part comes out rationally."""
    s, f = square_and_squarefree_part(n)
    if f == 1:
        return ExactNumber.from_rational(s)
    return sqrt_integer(f) * s


def _is_zero(x) -> bool:
    """Zero test for a Fraction or an ExactNumber, without lifting a 0."""
    return x.is_zero() if isinstance(x, ExactNumber) else x == 0


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r > 1 else r


# ---------------------------------------------------------------------------
# quadratic extensions and surd recognition


class QuadSurd:
    """A number a + b*sqrt(d) with squarefree d >= 1 and parts a, b either
    both rational (Fraction) or cyclotomic (ExactNumber), the root adjoined
    formally.  Normalized: b = 0 sets d = 1, and for d = 1 the radical part
    is folded into a."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        a = a if isinstance(a, ExactNumber) else Fraction(a)
        b = b if isinstance(b, ExactNumber) else Fraction(b)
        if d < 1 or not is_squarefree(d):
            raise ValueError("radicand must be a squarefree positive integer")
        self._store(a, b, d)

    @classmethod
    def _make(cls, a, b, d: int) -> "QuadSurd":
        """a + b*sqrt(d) from Fraction or ExactNumber parts and a radicand
        already checked: how every arithmetic result is built."""
        self = object.__new__(cls)
        self._store(a, b, d)
        return self

    def _store(self, a, b, d: int) -> None:
        if _is_zero(b):
            d = 1
        elif d == 1:
            a, b = a + b, b * 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    # -- field arithmetic in K(sqrt d); rationals (d = 1) mix with anything

    @staticmethod
    def _coerce(value):
        if isinstance(value, QuadSurd):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadSurd._make(Fraction(value), Fraction(0), 1)
        return NotImplemented

    def _join(self, other: "QuadSurd") -> int:
        if self.d == 1:
            return other.d
        if other.d == 1 or other.d == self.d:
            return self.d
        raise ValueError(f"incompatible radicands {self.d} and {other.d}")

    def is_zero(self) -> bool:
        return _is_zero(self.a) and _is_zero(self.b)

    def __bool__(self):
        return not self.is_zero()

    def conjugate(self) -> "QuadSurd":
        """The image under sqrt(d) -> -sqrt(d)."""
        return self._make(self.a, -self.b, self.d)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._make(self.a + other.a, self.b + other.b, self._join(other))

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactNumber)):
            return self._make(self.a * other, self.b * other, self.d)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        return self._make(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadSurd":
        norm = self.a * self.a - self.b * self.b * self.d
        if _is_zero(norm):
            raise ZeroDivisionError("inverse of zero surd")
        inv = 1 / norm
        return self._make(self.a * inv, -self.b * inv, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.inverse() * other

    def numeric(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self):
        return _surd_text(self, _fmt_rational, _fmt_rational)

    def __repr__(self):
        return f"QuadSurd({self.a}, {self.b}, {self.d})"


def _surd_text(surd: QuadSurd, signed: Callable[[Fraction], str], unsigned: Callable[[Fraction], str]) -> str:
    """The a + b*sqrt(d) layout of a rational surd: signed(q) prints any
    rational, unsigned(q) a positive coefficient of the root."""
    if surd.b == 0:
        return signed(surd.a)
    root = f"sqrt({surd.d})"
    babs = root if abs(surd.b) == 1 else f"{unsigned(abs(surd.b))}*{root}"
    if surd.a == 0:
        return babs if surd.b > 0 else f"-{babs}"
    return f"{signed(surd.a)} {'+' if surd.b > 0 else '-'} {babs}"


# the grammar of surd text: characters first, then these operators, keyed
# by the name of their ast node class
_SURD_CHARS = frozenset("0123456789+-*/^() sqrt")

_SURD_OPS = {
    "Add": operator.add,
    "Sub": operator.sub,
    "Mult": operator.mul,
    "Div": operator.truediv,
    "Pow": operator.pow,
}


def parse_quad_surd(text: str) -> QuadSurd:
    """Evaluate surd text such as "1135193+19*sqrt(144169)": integers,
    + - * / ^ and parentheses, read by Python's parser with ^ as **, and
    sqrt(<integer>) with one radicand in all."""
    # imported here: a request that reads no surd text (theorem1, trace,
    # verify-numeric) never loads the parser's module
    import ast

    if not set(text) <= _SURD_CHARS:
        raise ValueError(f"unexpected characters in surd {text!r}")

    def evaluate(node: ast.AST):
        match node:
            case ast.Constant(value=int(n)):
                return Fraction(n)
            case ast.BinOp(left, op, right) if type(op).__name__ in _SURD_OPS:
                return _SURD_OPS[type(op).__name__](evaluate(left), evaluate(right))
            case ast.UnaryOp(ast.USub(), operand):
                return -evaluate(operand)
            case ast.UnaryOp(ast.UAdd(), operand):
                return evaluate(operand)
            case ast.Call(ast.Name("sqrt"), [ast.Constant(value=int(n))], []):
                s, f = square_and_squarefree_part(n)
                return QuadSurd._make(Fraction(0), Fraction(s), f)
        raise ValueError("unsupported expression")

    try:
        value = evaluate(ast.parse(text.replace("^", "**"), mode="eval").body)
    except (SyntaxError, ZeroDivisionError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot parse surd {text!r}: {exc}") from None
    if not isinstance(value, (Fraction, QuadSurd)):
        raise ValueError(f"cannot parse surd {text!r}: not in Q(sqrt d)")
    return QuadSurd._coerce(value)


def recognize_surd(x: ExactNumber) -> Optional[QuadSurd]:
    """Write x as a + b*sqrt(d) with rational a, b and squarefree d if
    possible; None when x is not such a surd.

    One Galois conjugate decides.  Any sigma_c that moves a surd negates
    sqrt(d), so take the first unit c of x's own level, counting from -1,
    with sigma_c(x) != x: x is a surd exactly when a = (x + sigma_c x)/2 is
    rational and q = (x - a)**2 = b**2 d is a positive rational.  Then d is
    the one squarefree divisor of the level with q*d a rational square
    (sqrt(d) lies in Q(zeta_level), so d divides the level), found by
    integer square roots without factoring q.  One exact comparison of
    x - a with |b| sqrt(d), at lcm(level, 4d), gives the sign of b."""
    if x.is_rational():
        return QuadSurd(x.rational_value(), 0, 1)
    level = x.level
    units = (c for c in range(-1, level) if c != 1 and math.gcd(c, level) == 1)
    image = next(y for c in units if (y := x.galois(c)) != x)
    half_trace = (x + image) * Fraction(1, 2)
    if not half_trace.is_rational():
        return None
    a = half_trace.rational_value()
    radical = x - a
    square = radical * radical
    q = square.rational_value() if square.is_rational() else 0
    if q <= 0:
        return None
    # q*d is a rational square exactly when the integer n*d is a square;
    # the least divisor of the level that passes is the squarefree one
    n = q.numerator * q.denominator
    d = next(d for d in range(2, level + 1) if level % d == 0 and math.isqrt(n * d) ** 2 == n * d)
    b = Fraction(math.isqrt(n * d), q.denominator * d)
    return QuadSurd._make(a, b if radical == sqrt_integer(d) * b else -b, d)


# ---------------------------------------------------------------------------
# polynomials over ExactNumber: an output record, built once from buckets


class ExactPolynomial:
    """Univariate polynomial with ExactNumber coefficients, the output of the
    period and Bernoulli routes; it has no ring arithmetic, only a scalar
    product.

    Internally ascending coefficients times one nonzero constant factor,
    kept apart (None for 1): the period routes hold their coefficients in
    Q(zeta_R) and the shared constant at its own, much larger level.  Every
    public view multiplies the factor in as it reads a coefficient; the
    `coefficients` view is degree-descending with a nonzero leading
    coefficient (empty for the zero polynomial).
    """

    __slots__ = ("_asc", "_factor")

    def __init__(self, ascending: Iterable):
        coeffs = [c if isinstance(c, ExactNumber) else ExactNumber.from_rational(c) for c in ascending]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "_asc", tuple(coeffs))
        object.__setattr__(self, "_factor", None)

    @classmethod
    def _make(cls, ascending: Iterable, factor: ExactNumber) -> "ExactPolynomial":
        """factor * sum_k ascending[k] * x**k, for a nonzero factor, which is
        kept apart."""
        self = cls(ascending)
        object.__setattr__(self, "_factor", factor)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ExactPolynomial is immutable")

    # -- views

    def _expanded(self) -> tuple:
        """The ascending coefficients with the factor multiplied in."""
        if self._factor is None:
            return self._asc
        factor = _monomials(self._factor)
        return tuple(self._times_factor(c, factor) for c in self._asc)

    def _times_factor(self, c: ExactNumber, factor: tuple[int, tuple[tuple[int, int], ...]]) -> ExactNumber:
        """c times the factor at their common level, as c * factor: c's
        nonzero terms meet the factor's monomials (_monomials of the factor)
        in one fold, with no lift of c and no dense product at the factor's
        level."""
        den, monomials = factor
        level = math.lcm(c.level, self._factor.level)
        step = level // self._factor.level
        if step > 1:
            monomials = [(t * step, x) for t, x in monomials]
        c_den, terms = _monomials(c)
        return _monomial_product(terms, c.level, 1, c_den * den, monomials, level)

    @property
    def coefficients(self) -> tuple:
        return tuple(reversed(self._expanded()))

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._asc) - 1

    def is_zero(self) -> bool:
        return not self._asc

    def coefficient(self, k: int) -> ExactNumber:
        """Coefficient of x**k."""
        if 0 <= k < len(self._asc) and self._factor is not None:
            return self._times_factor(self._asc[k], _monomials(self._factor))
        return self.unscaled_coefficient(k)

    def unscaled_coefficient(self, k: int) -> ExactNumber:
        """Coefficient of x**k before the constant factor: what a caller
        that already holds a multiple of that factor multiplies by."""
        if 0 <= k < len(self._asc):
            return self._asc[k]
        return ExactNumber.zero()

    def scale(self, factor) -> "ExactPolynomial":
        """The polynomial times a rational or ExactNumber: one product, into
        the constant factor."""
        if _is_zero(factor):
            return ExactPolynomial([])
        kept = ExactNumber.one() if self._factor is None else self._factor
        return ExactPolynomial._make(self._asc, kept * factor)

    def __eq__(self, other):
        """Equal factors (as numbers) compare the coefficients before the
        factor, so two routes that share a constant compare below its level;
        anything else compares expanded coefficients."""
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        if len(self._asc) != len(other._asc):
            return False
        f, g = self._factor, other._factor
        if f is g or (f is not None and g is not None and f == g):
            return self._asc == other._asc
        return self._expanded() == other._expanded()

    __hash__ = None

    def to_json(self) -> dict:
        return {"degree": self.degree(), "coefficients": [c.to_json() for c in self.coefficients]}

    def __repr__(self):
        if self.is_zero():
            return "ExactPolynomial(0)"
        return f"ExactPolynomial(degree={self.degree()})"


# ---------------------------------------------------------------------------
# rational polynomial helpers (shared by the Bernoulli, period and trace modules)


def _bucket_sum(nums: Sequence[int], order: int, den: int = 1) -> ExactNumber:
    """sum_e nums[e]/den * zeta_order**e, for one integer per exponent class
    over one common denominator: the only division."""
    return ExactNumber._make(order, den, _fold(nums, order))


def _monomial_product(
    terms: Iterable[tuple[int, int]], order: int, num: int, den: int, monomials: Sequence[tuple[int, int]], level: int
) -> ExactNumber:
    """num/den * sum_(j, x) x * zeta_order**j times sum_(t, c) c * zeta_level**t,
    for integer terms and monomials, order | level and 0 <= t < level: every
    product of a term and a monomial adds into one integer list per power of
    zeta_level, which is folded once.  A sparse constant (a Gauss sum before
    reduction) meets a number of Q(zeta_order) with no dense product."""
    step = level // order
    out = [0] * level
    for j, x in terms:
        if x:
            x *= num
            base = j * step
            for t, c in monomials:
                out[(base + t) % level] += x * c
    return _bucket_sum(out, level, den)


def _monomials(x: ExactNumber) -> tuple[int, tuple[tuple[int, int], ...]]:
    """x as integer monomials over one denominator: (den, ((j, numerator), ...))
    with x = sum numerator/den * zeta_level**j over its nonzero coordinates."""
    return x._den, tuple((j, n) for j, n in enumerate(x._nums) if n)


def _bucket_poly(
    buckets: Sequence[Sequence[int]], order: int, den: int = 1, factor: Optional[ExactNumber] = None
) -> ExactPolynomial:
    """factor * sum_e buckets[e](x)/den * zeta_order**e, each coefficient the
    _bucket_sum of the ascending integer polynomials of the exponent classes,
    and a nonzero factor kept apart, not multiplied in."""
    top = max((len(b) for b in buckets), default=0)
    coeffs = [_bucket_sum([b[i] if i < len(b) else 0 for b in buckets], order, den) for i in range(top)]
    return ExactPolynomial(coeffs) if factor is None else ExactPolynomial._make(coeffs, factor)


def _cleared(rows: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, list[list[int]]]:
    """One common denominator of rows of rationals, each an integer pair
    (numerator, nonzero denominator) in any terms, and their integer
    numerators over it, row by row."""
    den = math.lcm(*(q for row in rows for _, q in row))
    return den, [[p * (den // q) for p, q in row] for row in rows]


def _add_into(bucket: list, coeffs: Sequence) -> None:
    """bucket += coeffs in place, extending the bucket with zeros as needed.
    Integer buckets stay integers: the padding is int 0."""
    if len(bucket) < len(coeffs):
        bucket.extend([0] * (len(coeffs) - len(bucket)))
    for i, c in enumerate(coeffs):
        bucket[i] += c


def _fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
