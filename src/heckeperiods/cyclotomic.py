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
conjugate at its own level (``recognize_surd``).  A number of a small field
times a large constant, given as integer monomials, keeps the constant
apart (``_TimesConstant``) until its coordinates are read; a polynomial of
the period and Bernoulli routes (``ExactPolynomial``) is the tuple of such
numbers, one per coefficient, sharing one constant.  The small-field part
is kept as the unreduced sums of its exponent classes, one integer per
power of zeta_R over one denominator: it is reduced mod Phi_R only when it
is read, and two numbers with one order and one constant compare by
their cross-multiplied difference: with no fold when it is zero entry by
entry, by reducing it in one fold otherwise.

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
from itertools import zip_longest
from typing import Callable, Iterable, Optional, Sequence

# the bound of every memo in the package
_MEMO_SIZE = 1024

# a nonzero constant kept apart, as integer monomials over one denominator:
# (level, ((t, c), ...), den) for sum_t c/den * zeta_level**t
_Monomials = tuple[int, tuple[tuple[int, int], ...], int]

# the constant 1 as _Monomials: what a polynomial with no constant keeps apart
_UNIT: _Monomials = (1, ((0, 1),), 1)

# a number of Q(zeta_R) as the unreduced sums of its exponent classes, one
# integer per power of zeta_R over one denominator:
# (R, den, (n_0, n_1, ...)) for sum_e n_e/den * zeta_R**e
_ClassSums = tuple[int, int, Sequence[int]]


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
# immutable values


class _Frozen:
    """The base of every immutable value class of the package: assignment
    raises.  A subclass that names its _fields has them set once, in order,
    by __init__, and compares, hashes and prints by them as
    Name(field=value, ...); one with a _hash slot stores its hash there at
    construction, for a value that keys memos."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hash: Optional[int] = None  # shadowed by a subclass's _hash slot

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)
        if type(self)._hash is not None:
            object.__setattr__(self, "_hash", hash(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        for name in self._fields:  # a loop, not a generator: characters compare on the memo paths
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self):
        if self._hash is None:
            return hash(tuple(getattr(self, name) for name in self._fields))
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# field elements


class ExactNumber(_Frozen):
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
        den = math.lcm(*(q.denominator for q in coords))
        _store(self, level, den, [q.numerator * (den // q.denominator) for q in coords])

    @classmethod
    def _make(cls, level: int, den: int, nums: Sequence[int]) -> "ExactNumber":
        """The number sum_j nums[j]/den * zeta_level**j, for phi(level)
        integers nums and a nonzero integer den: how every result is built."""
        self = object.__new__(cls)
        _store(self, level, den, nums)
        return self

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
        # each coordinate in lowest terms, printed as _fmt_rational prints it
        den = self._den
        coords = [str(n // g) if (g := math.gcd(n, den)) == den else f"{n // g}/{den // g}" for n in self._nums]
        return {"level": self.level, "coords": coords}

    @classmethod
    def from_json(cls, data: dict) -> "ExactNumber":
        return cls(data["level"], [Fraction(c) for c in data["coords"]])

    def __repr__(self):
        if self.is_rational():
            return f"ExactNumber({self.rational_value()})"
        return f"ExactNumber(level={self.level}, coords={[str(c) for c in self.coords]})"


class _TimesConstant(ExactNumber):
    """part * constant with the constant kept apart: an ExactNumber to every
    caller, whose level and coordinates are made on their first read.

    The part is a number of a small field (Q(zeta_R) on the period,
    Bernoulli and trace routes), given as its unreduced exponent-class sums
    (_ClassSums: an order R, one denominator and one integer per power of
    zeta_R), and the constant a nonzero number given as _Monomials.  Nothing
    is reduced at construction, and a rational multiple (_scale) stays in
    this form.  The part is reduced mod Phi_R (one _bucket_sum) on the first
    read that needs it, is_zero of sums not all 0 or the expansion, and the
    coordinates (_den, _nums) on their first read, by expanding the product
    once (_expand; with the unit constant they are the part's own).  Since
    the constant is nonzero, two such numbers of one order with equal
    constants compare by the cross-multiplied difference of their class
    sums, with no number built: a difference that is zero entry by entry
    decides equality with no fold, and any other is folded once.  This is
    the one comparison of class sums, of polynomial coefficients and of
    traces.  Any other comparison reads the coordinates."""

    __slots__ = ("_sums", "_constant", "_part")

    def __init__(self, sums: _ClassSums, constant: _Monomials):
        object.__setattr__(self, "_sums", sums)
        object.__setattr__(self, "_constant", constant)

    def __getattr__(self, name):
        # called only for an attribute that is not set: the level, the
        # reduced part and the coordinates, before their first read
        if name == "level":
            object.__setattr__(self, "level", math.lcm(self._sums[0], self._constant[0]))
        elif name == "_part":
            order, den, nums = self._sums
            object.__setattr__(self, "_part", _bucket_sum(nums, order, den))
        elif name in ("_den", "_nums"):
            expanded = _expand(self._part, self._constant)
            object.__setattr__(self, "_den", expanded._den)
            object.__setattr__(self, "_nums", expanded._nums)
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def _scale(self, num: int, den: int) -> "_TimesConstant":
        """self * num/den in the class sums, the constant still apart."""
        order, own_den, nums = self._sums
        return _TimesConstant((order, own_den * den, [x * num for x in nums]), self._constant)

    def is_zero(self) -> bool:
        return not any(self._sums[2]) or self._part.is_zero()

    def __eq__(self, other):
        if not (
            isinstance(other, _TimesConstant)
            and self._sums[0] == other._sums[0]
            and (other._constant is self._constant or other._constant == self._constant)
        ):
            return ExactNumber.__eq__(self, other)
        (order, den, nums), (_, other_den, other_nums) = self._sums, other._sums
        if not (any(nums) or any(other_nums)):  # half a symmetrized polynomial: no gcd
            return True
        g = math.gcd(den, other_den)
        ka, kb = other_den // g, den // g
        difference = [p * ka - q * kb for p, q in zip_longest(nums, other_nums, fillvalue=0)]
        return not any(difference) or not any(_fold(difference, order))


def _expand(part: ExactNumber, constant: _Monomials) -> ExactNumber:
    """part times a constant given as monomials, at their common level M:
    the _monomial_product of part's nonzero terms and the constant, folded
    once, with no lift of part and no dense product at the constant's
    level.  The one expansion of a kept-apart constant; the unit constant
    leaves part as it is."""
    if constant == _UNIT:
        return part
    level, terms, den = _monomial_product(_monomials(part), constant)
    out = [0] * level
    for t, c in terms:
        out[t] = c
    return _bucket_sum(out, level, den)


def _monomial_product(a: _Monomials, b: _Monomials) -> _Monomials:
    """a times b at the lcm of their levels, left unreduced: each pair of
    terms adds into one integer per power of zeta_lcm, and the powers with
    a nonzero sum are the product's monomials, with no fold.  How a
    kept-apart constant is built from its factors, and expanded."""
    (level_a, terms_a, den_a), (level_b, terms_b, den_b) = a, b
    top = math.lcm(level_a, level_b)
    step_a, step_b = top // level_a, top // level_b
    out = [0] * top
    for s, x in terms_a:
        base = s * step_a
        for t, c in terms_b:
            out[(base + t * step_b) % top] += x * c
    return top, tuple((t, c) for t, c in enumerate(out) if c), den_a * den_b


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

    The product of one quadratic Gauss sum per prime p | n: zeta8 + zeta8^7
    = sqrt2, and for odd p the Legendre-symbol sum sum_a (a/p) zeta_p^a,
    which by Gauss's theorem on its sign is sqrt(p) when p = 1 (mod 4) and
    i*sqrt(p) when p = 3 (mod 4).  One zeta4^3 = -i per prime of the latter
    kind makes the product +sqrt(n), and puts it at level 4n.  The factors
    are multiplied as _Monomials and folded once; squaring confirms the
    result.
    """
    if n < 1:
        raise ValueError("need a positive integer")
    if not is_squarefree(n):
        raise ValueError(f"{n} is not squarefree")
    primes = factorize(n)
    root: _Monomials = (4, ((3 * sum(p % 4 == 3 for p in primes) % 4, 1),), 1)
    for p in primes:
        if p == 2:
            factor = (8, ((1, 1), (7, 1)), 1)
        else:  # (a/p) by Euler's criterion
            factor = (p, tuple((a, 1 if pow(a, p // 2, p) == 1 else -1) for a in range(1, p)), 1)
        root = _monomial_product(root, factor)
    result = _expand(ExactNumber.one(), root)
    square = result * result
    if not (square.is_rational() and square.rational_value() == n):
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


# ---------------------------------------------------------------------------
# quadratic extensions and surd recognition


class QuadSurd(_Frozen):
    """A number a + b*sqrt(d) with squarefree d >= 1 and parts a, b either
    both rational (Fraction) or cyclotomic (ExactNumber), the root adjoined
    formally.  Normalized: b = 0 sets d = 1, and for d = 1 the radical part
    is folded into a, so d = 1 exactly when b = 0."""

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

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self):
        # a surd with d = 1 equals its part a, and so does its hash
        return hash(self.a) if self.d == 1 else hash((self.a, self.b, self.d))

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
    sqrt(d), so take the first unit c of x's own level with sigma_c(x) !=
    x, counting from 2 up to level - 1 (sigma_{-1}, which fixes every real
    number), or from -1 when x is numerically non-real: x is a surd
    exactly when a = (x + sigma_c x)/2 is rational and q = (x - a)**2 =
    b**2 d is a positive rational.  Then d is
    the one squarefree divisor of the level with q*d a rational square
    (sqrt(d) lies in Q(zeta_level), so d divides the level), found by
    integer square roots without factoring q.  One exact comparison of
    x - a with |b| sqrt(d), at lcm(level, 4d), gives the sign of b."""
    if x.is_rational():
        return QuadSurd(x.rational_value(), 0, 1)
    level = x.level
    # x's direction, scaled so that no coordinate overflows a float
    top = max(map(abs, x._nums))
    z = sum(n / top * cmath.exp(2j * cmath.pi * j / level) for j, n in enumerate(x._nums) if n)
    candidates = range(2, level) if abs(z.imag) <= 1e-9 * abs(z) else (-1, *range(2, level - 1))
    units = (c for c in candidates if math.gcd(c, level) == 1)
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
    d = next(d for d in divisors(level)[1:] if math.isqrt(n * d) ** 2 == n * d)
    b = Fraction(math.isqrt(n * d), q.denominator * d)
    return QuadSurd._make(a, b if radical == sqrt_integer(d) * b else -b, d)


# ---------------------------------------------------------------------------
# polynomials over ExactNumber: an output record, the tuple of its coefficients


class ExactPolynomial(_Frozen):
    """Univariate polynomial with ExactNumber coefficients, the output of the
    period and Bernoulli routes; it has no ring arithmetic, only a scalar
    product.

    It is the tuple of its ascending coefficients, stored as given.  A
    route's coefficients (_bucket_poly) are _TimesConstant numbers, one
    column of its exponent-class sums each, all sharing one constant kept
    apart, so two routes that keep one constant compare coefficient by
    coefficient in Q(zeta_R), one fold each, and build no number.
    Construction trims no trailing zeros: the degree is the highest power
    whose coefficient is not zero, found on its first read.  The
    `coefficients` view is degree-descending with a nonzero leading
    coefficient (empty for the zero polynomial).
    """

    __slots__ = ("_coeffs", "_degree")

    def __init__(self, ascending: Iterable):
        coeffs = tuple(c if isinstance(c, ExactNumber) else ExactNumber.from_rational(c) for c in ascending)
        object.__setattr__(self, "_coeffs", coeffs)

    # -- views

    def class_sums(self, k: int, num: int = 1, den: int = 1) -> _ClassSums:
        """num/den times the coefficient of x**k before its constant, for
        integers num and den != 0 and a coefficient a route built, as its
        unreduced exponent-class sums (order, den, integers): what a caller
        that keeps its own multiple of the constant apart hands to a
        _TimesConstant, with no reduction."""
        order, own_den, nums = self._coeffs[k]._sums
        return order, own_den * den, [num * x for x in nums]

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial.  Found on the first call and
        kept: a concurrent first call stores the same value."""
        top = getattr(self, "_degree", None)
        if top is None:
            top = len(self._coeffs) - 1
            while top >= 0 and self._coeffs[top].is_zero():
                top -= 1
            object.__setattr__(self, "_degree", top)
        return top

    def is_zero(self) -> bool:
        return self.degree() < 0

    def coefficient(self, k: int) -> ExactNumber:
        """Coefficient of x**k (a level-1 zero past the degree)."""
        return self._coeffs[k] if 0 <= k <= self.degree() else ExactNumber.zero()

    @property
    def coefficients(self) -> tuple:
        return self._coeffs[: self.degree() + 1][::-1]

    def scale(self, factor) -> "ExactPolynomial":
        """The polynomial times a rational or an ExactNumber, coefficient by
        coefficient: a rational stays in a kept-apart coefficient's form."""
        if not isinstance(factor, (int, Fraction, ExactNumber)):
            raise TypeError("a polynomial scales by a rational or an ExactNumber")
        return ExactPolynomial([c * factor for c in self._coeffs])

    def __eq__(self, other):
        """Coefficient by coefficient, the longer tail zero."""
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        short, long = sorted((self._coeffs, other._coeffs), key=len)
        return all(map(operator.eq, short, long)) and all(c.is_zero() for c in long[len(short) :])

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


def _monomials(x: ExactNumber) -> _Monomials:
    """x as the _Monomials of its nonzero coordinates: (level, ((j, num),
    ...), den) with x = sum num/den * zeta_level**j."""
    return x.level, tuple((j, n) for j, n in enumerate(x._nums) if n), x._den


def _bucket_poly(
    buckets: Sequence[Sequence[int]], order: int, den: int = 1, constant: _Monomials = _UNIT
) -> ExactPolynomial:
    """constant * sum_e buckets[e](x)/den * zeta_order**e, for the
    ascending integer polynomials of the exponent classes and a nonzero
    constant (_Monomials, 1 by default) kept apart: coefficient k is the
    _TimesConstant of the classes' entries k, all sharing the constant,
    reduced only when it is read."""
    poly = object.__new__(ExactPolynomial)
    columns = zip_longest(*buckets, fillvalue=0)
    object.__setattr__(poly, "_coeffs", tuple(_TimesConstant((order, den, column), constant) for column in columns))
    return poly


def _fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
