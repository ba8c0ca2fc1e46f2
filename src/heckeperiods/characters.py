"""Primitive Dirichlet characters with exact cyclotomic values.

A character mod D is stored as a table of root-of-unity exponents: on units
h the value is zeta_R**e(h) where R is the character's order, elsewhere 0.
Enumeration reads each unit's logarithms off its residues mod the prime
powers of D; multiplicativity (against the generators of the unit group) and
the conductor are validated on every constructor path.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional, Sequence

from .cyclotomic import _MEMO_SIZE, ExactNumber, _bucket_sum, divisors, factorize


# largest modulus enumerate_primitive_characters walks
_ENUMERATION_BOUND = 100


class CharacterError(ValueError):
    pass


class DirichletCharacter:
    """A Dirichlet character mod D > 1 with values as exact roots of unity."""

    __slots__ = ("modulus", "order", "exponents", "conductor")

    def __init__(self, modulus: int, order: int, exponents: Sequence[Optional[int]]):
        """Character with chi(h) = zeta_order**exponents[h] (None off the units).

        The stored order is shrunk to the subgroup actually generated by the
        values, so equal characters always normalize identically.
        """
        if modulus < 2:
            raise CharacterError("modulus must exceed 1")
        if order < 1:
            raise CharacterError("order must be positive")
        if len(exponents) != modulus:
            raise CharacterError("exponent table must have one entry per residue")
        g = order
        for e in exponents:
            if e is not None:
                g = math.gcd(g, e % order)
        exps = tuple(None if e is None else (e % order) // g for e in exponents)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "order", order // g)
        object.__setattr__(self, "exponents", exps)
        self._validate()
        object.__setattr__(self, "conductor", self._compute_conductor())

    def __setattr__(self, name, value):
        raise AttributeError("DirichletCharacter is immutable")

    def _validate(self) -> None:
        d = self.modulus
        exps = self.exponents
        if exps[1 % d] != 0:
            raise CharacterError("character must send 1 to 1")
        for h in range(d):
            if (math.gcd(h, d) > 1) != (exps[h] is None):
                raise CharacterError("support must be exactly the units")
        # chi(h*g) = chi(h)*chi(g) for every unit h and generator g of the
        # unit group gives chi(ab) = chi(a)*chi(b) for all units: O(phi(D)*r)
        orders, units = _unit_logs(d)
        by_vector = {vec: h for h, vec in units.items()}
        r = len(orders)
        gens = [by_vector[tuple(int(j == i) for j in range(r))] for i in range(r)]
        for h in units:
            for g in gens:
                if (exps[h] + exps[g]) % self.order != exps[h * g % d]:
                    raise CharacterError(f"multiplicativity fails at ({min(h, g)},{max(h, g)})")

    def _compute_conductor(self) -> int:
        d = self.modulus
        for f in divisors(d):
            if all(
                self.exponents[u] == 0
                for u in range(1, d)
                if u % f == 1 % f and math.gcd(u, d) == 1
            ):
                return f
        return d

    # -- values

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def is_trivial(self) -> bool:
        return self.order == 1

    def value_exponent(self, h: int) -> Optional[int]:
        """Exponent e with chi(h) = zeta_order**e, or None when chi(h) = 0."""
        return self.exponents[h % self.modulus]

    def value(self, h: int) -> ExactNumber:
        e = self.value_exponent(h)
        if e is None:
            return ExactNumber.zero(self.order)
        return ExactNumber.zeta(self.order, e)

    __call__ = value

    @property
    def values(self) -> tuple[ExactNumber, ...]:
        return tuple(self.value(h) for h in range(self.modulus))

    def sign_at_minus_one(self) -> int:
        e = self.exponents[self.modulus - 1]
        return 1 if e == 0 else -1

    def is_odd(self) -> bool:
        return self.sign_at_minus_one() == -1

    def is_even(self) -> bool:
        return not self.is_odd()

    def conjugate(self) -> "DirichletCharacter":
        return _conjugate(self)

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        if other.modulus != self.modulus:
            raise CharacterError("moduli differ")
        r = math.lcm(self.order, other.order)
        exps = [
            None
            if a is None
            else (a * (r // self.order) + b * (r // other.order)) % r
            for a, b in zip(self.exponents, other.exponents)
        ]
        return DirichletCharacter(self.modulus, r, exps)

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.order == other.order
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.modulus, self.order, self.exponents))

    def __repr__(self):
        kind = "primitive" if self.is_primitive else f"conductor {self.conductor}"
        return f"DirichletCharacter(mod {self.modulus}, order {self.order}, {kind})"


@lru_cache(maxsize=_MEMO_SIZE)
def _conjugate(chi: DirichletCharacter) -> DirichletCharacter:
    """conj chi, validated once per character."""
    return DirichletCharacter(
        chi.modulus,
        chi.order,
        [None if e is None else (-e) % chi.order for e in chi.exponents],
    )


# ---------------------------------------------------------------------------
# unit group structure


def _primitive_root_prime(p: int) -> int:
    order = p - 1
    prime_factors = list(factorize(order))
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")


def _unit_logs(modulus: int) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Generator orders of (Z/modulus)* and every unit's exponent vector.

    (Z/modulus)* is the product over p^e || modulus of (Z/p^e)*: cyclic for
    odd p (primitive root g, or g + p when g^(p-1) = 1 mod p^2) and for 4
    (generator 3), trivial for 2, and <-1> x <5> for 2^e with e >= 3.  A
    unit's vector concatenates the local vectors of its residues mod each
    p^e, which is its vector for the CRT lifts of the local generators."""
    orders: list[int] = []
    local: list[tuple[int, dict[int, tuple[int, ...]]]] = []
    for p, e in factorize(modulus).items():
        q = p**e
        if p == 2:
            gens = [] if e == 1 else [(3, 2)] if e == 2 else [(q - 1, 2), (5, q // 4)]
        else:
            g = _primitive_root_prime(p)
            if e > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            gens = [(g, q - q // p)]
        logs: dict[int, tuple[int, ...]] = {1 % q: ()}
        for g, s in gens:
            logs = {u * pow(g, x, q) % q: vec + (x,) for u, vec in logs.items() for x in range(s)}
            orders.append(s)
        local.append((q, logs))
    units = {
        h: sum((table[h % q] for q, table in local), ())
        for h in range(modulus)
        if math.gcd(h, modulus) == 1
    }
    return orders, units


def enumerate_characters(modulus: int) -> Iterator[DirichletCharacter]:
    """All Dirichlet characters mod modulus, trivial one included: the i-th
    generator goes to each power of zeta_{s_i}, the first varying fastest."""
    orders, units = _unit_logs(modulus)
    r0 = math.lcm(*orders)
    for images in product(*(range(s) for s in reversed(orders))):
        weights = [t * (r0 // s) for t, s in zip(reversed(images), orders)]
        raw: list[Optional[int]] = [None] * modulus
        for u, vec in units.items():
            raw[u] = sum(x * c for x, c in zip(vec, weights)) % r0
        yield DirichletCharacter(modulus, r0, raw)


def enumerate_primitive_characters(modulus: int) -> list[DirichletCharacter]:
    """Every primitive character mod modulus exactly once (empty when none exist)."""
    if modulus > _ENUMERATION_BOUND:
        raise CharacterError(
            f"modulus {modulus} exceeds the enumeration bound {_ENUMERATION_BOUND}"
        )
    if modulus < 2:
        return []
    found = [chi for chi in enumerate_characters(modulus) if chi.is_primitive]
    found.sort(key=lambda chi: (chi.order, [e if e is not None else -1 for e in chi.exponents]))
    return found


# ---------------------------------------------------------------------------
# Kronecker characters


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e and a % 2 == 0:
        return 0
    two_part = 1
    if e % 2:
        two_part = 1 if a % 8 in (1, 7) else -1
    return two_part * _jacobi(a, n)


def kronecker_character(d: int) -> DirichletCharacter:
    """The quadratic character (d/.) as a primitive character mod |d|.

    Raises when d is not a fundamental discriminant: when d = 2, 3 mod 4,
    and when the symbol is induced from a smaller modulus (naming the actual
    conductor).  For d = 0, 1 mod 4 the symbol is a character mod |d| that
    vanishes exactly off the units, with (d/-1) the sign of d.
    """
    m = abs(d)
    if m < 2:
        raise CharacterError("need |d| > 1")
    if d % 4 in (2, 3):
        raise CharacterError(f"{d} is {d % 4} mod 4: not a fundamental discriminant")
    raw: list[Optional[int]] = []
    for h in range(m):
        v = kronecker_symbol(d, h)
        raw.append(None if v == 0 else (0 if v == 1 else 1))
    chi = DirichletCharacter(m, 2, raw)
    if not chi.is_primitive:
        raise CharacterError(
            f"({d}/.) is induced from modulus {chi.conductor}; not primitive mod {m}"
        )
    return chi


# ---------------------------------------------------------------------------
# Gauss sums and the four-argument character


@lru_cache(maxsize=_MEMO_SIZE)
def gauss_sum(chi: DirichletCharacter) -> ExactNumber:
    """tau(chi) = sum_h chi(h) zeta_D**h, exactly."""
    level, counts = _gauss_counts(chi)
    return _bucket_sum(counts, level)


def _gauss_counts(chi: DirichletCharacter) -> tuple[int, list[int]]:
    """tau(chi) before reduction: the level L = lcm(ord chi, D) and, for each
    t < L, the number of h with chi(h) zeta_D**h = zeta_L**t."""
    d = chi.modulus
    level = math.lcm(chi.order, d)
    counts = [0] * level
    for h in range(d):
        e = chi.exponents[h]
        if e is not None:
            counts[(e * (level // chi.order) + h * (level // d)) % level] += 1
    return level, counts


def chi_four_tuple(chi: DirichletCharacter, a: int, c: int, k: int, ell: int) -> ExactNumber:
    """chi(a,c,k,ell) = chi(k*b + ell*d) for any b, d with a*d - b*c = 1; the
    value does not depend on the pair, since (b,d) + t*(a,c) adds t*modulus."""
    e = chi_four_tuple_exponent(chi, a, c, k, ell)
    return ExactNumber.zero(chi.order) if e is None else ExactNumber.zeta(chi.order, e)


def chi_four_tuple_exponent(chi: DirichletCharacter, a: int, c: int, k: int, ell: int) -> Optional[int]:
    """Exponent form of chi_four_tuple (None when the value is 0), for
    positive arguments with gcd(a,c) = 1 and k*a + ell*c = modulus."""
    if min(a, c, k, ell) < 1:
        raise CharacterError("all four arguments must be positive")
    if math.gcd(a, c) != 1:
        raise CharacterError(f"gcd({a},{c}) != 1")
    if k * a + ell * c != chi.modulus:
        raise CharacterError(f"{k}*{a} + {ell}*{c} != {chi.modulus}")
    b, d = bezout_pair(a, c)
    return chi.value_exponent((k * b + ell * d) % chi.modulus)


def bezout_pair(a: int, c: int) -> tuple[int, int]:
    """Some (b, d) with a*d - b*c = 1, for coprime a and c >= 1:
    d = a^-1 mod c and b = (a*d - 1)/c."""
    if math.gcd(a, c) != 1:
        raise CharacterError(f"gcd({a},{c}) != 1")
    d = pow(a, -1, c)
    return (a * d - 1) // c, d
