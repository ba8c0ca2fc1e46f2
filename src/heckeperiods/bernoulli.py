"""Bernoulli numbers and polynomials, plain and character-weighted.

Conventions follow the generating function t*e^(x*t)/(e^t - 1), so B_1 is
-1/2, and B_k(x) is the zero polynomial for negative k.  The numbers B_k
come from the tangent numbers, built in integers by the recurrence of
Brent and Harvey (2013), with one division per number.

Sums of Bernoulli values over residues run in integers.  Let L_j be the
least common multiple of the denominators of B_0..B_j (by von
Staudt-Clausen, the product of the primes p <= j + 1).  Then
D^j * L_j * B_j(r/D) is an integer for every integer r, and
``_bernoulli_row(j, D)`` holds these integers for r = 0..D-1 over the stated
denominator D^j * L_j.  Each row is built once per (j, D) from the addition
formula and memoized, so every k that reads B_j(r/D) reuses it.  The period
routes read the rows, add integers and divide once at the end.

The character-weighted polynomials are computed from both defining
expressions (the level-power residue sum and the binomial expansion in the
weighted Bernoulli numbers) and the two must agree exactly; a mismatch is a
hard internal error, not a recoverable condition.  Both are unreduced
exponent-class sums over D * L_k, one integer polynomial per power of
zeta_R (R = ord chi), compared entry by entry with no reduction mod Phi_R:
the layer folds nothing, and the routes that read it add entry j into
class j + shift.  The two share the rows and nothing else: the residue
sum adds one integer polynomial per residue, the binomial expansion adds
one integer number per index and spreads it with binomial coefficients.
The rows themselves are checked against a rational reference in the
tests.  At x^0 both expressions are the
weighted number of ``_weighted_number_direct``, over its own denominator
D * L_k.  The trace reads its Bernoulli terms as coefficients of these
checked polynomials: C(K - 1, i) / (K - i) * B_{K-i,chi} = [x^i] B_{K,chi}(x) / K.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .characters import DirichletCharacter
from .cyclotomic import _MEMO_SIZE, ExactNumber, ExactPolynomial, _bucket_poly

_ZERO = Fraction(0)
# Bernoulli numbers are memoized in rows of this length: a short row wastes
# little on a cold start, and a context reads at most a few rows
_ROW = 8


def bernoulli_number(k: int) -> Fraction:
    """B_k; 0 for negative k."""
    return _bernoulli_numbers(k // _ROW)[k] if k >= 0 else _ZERO


@lru_cache(maxsize=_MEMO_SIZE)
def _bernoulli_numbers(row: int) -> tuple[Fraction, ...]:
    """B_0..B_m for m = _ROW*(row + 1) - 1, from the tangent numbers
    T_1..T_n, n = m // 2, by the integer recurrence of Brent and Harvey:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), B_1 = -1/2 and the odd B_k
    with k >= 3 vanish.  One Fraction per number, no Fraction sum."""
    n = (_ROW * (row + 1) - 1) // 2
    tangent = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        tangent[j] = (j - 1) * tangent[j - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    numbers = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, n + 1):
        numbers += [Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4**k * (4**k - 1)), _ZERO]
    return tuple(numbers)


def _numerators(j: int, q: int, ps: Iterable[int]) -> tuple[int, list[int]]:
    """q^j * L_j and the integers q^j * L_j * B_j(p/q) for each p: the
    addition formula B_j(p/q) = sum_i C(j,i) B_(j-i) (p/q)^i, cleared of
    denominators and evaluated by Horner's rule in p."""
    lcm = math.lcm(*(bernoulli_number(i).denominator for i in range(j + 1)))
    descending = []
    for i in range(j, -1, -1):
        b = bernoulli_number(j - i)
        descending.append(math.comb(j, i) * b.numerator * (lcm // b.denominator) * q ** (j - i))
    values = []
    for p in ps:
        acc = 0
        for c in descending:
            acc = acc * p + c
        values.append(acc)
    return q**j * lcm, values


@lru_cache(maxsize=_MEMO_SIZE)
def _bernoulli_row(j: int, d: int) -> tuple[int, tuple[int, ...]]:
    """The stated denominator D^j * L_j and the integer numerators of
    B_j(r/D) over it, for r = 0..D-1."""
    den, values = _numerators(j, d, range(d))
    return den, tuple(values)


def bernoulli_shifted_coeffs(k: int, a: Fraction) -> list[Fraction]:
    """Ascending coefficients of B_k(a + x) via the addition formula."""
    if k < 0:
        return []
    a = Fraction(a)
    coeffs = []
    for j in range(k, -1, -1):
        den, (num,) = _numerators(j, a.denominator, (a.numerator,))
        coeffs.append(math.comb(k, j) * Fraction(num, den))
    return coeffs


# ---------------------------------------------------------------------------
# character-weighted versions


class BernoulliSelfCheckError(ArithmeticError):
    """The two defining expressions of B_{k,chi}(x) disagreed (should never happen)."""


def generalized_bernoulli_poly(k: int, chi: DirichletCharacter) -> ExactPolynomial:
    """The chi-weighted Bernoulli polynomial of degree index k, built once
    from its checked class sums (the zero polynomial for k < 0)."""
    den, sums = _weighted_coordinates(k, chi)
    return _bucket_poly(sums, chi.order, den)


def generalized_bernoulli_number(k: int, chi: DirichletCharacter) -> ExactNumber:
    """Constant term of the weighted polynomial; 0 for k < 0."""
    return generalized_bernoulli_poly(k, chi).coefficient(0)


@lru_cache(maxsize=_MEMO_SIZE)
def _weighted_coordinates(k: int, chi: DirichletCharacter) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The unreduced exponent-class sums of the chi-weighted Bernoulli
    polynomial at level R = ord chi, as a common denominator and integer
    numerators over it: entry j, for j in 0..R-1, is the ascending integer
    polynomial that multiplies zeta_R**j, with no reduction mod Phi_R.

    Both defining expressions are evaluated:
      (a) D^(k-1) * sum_h chi(h) B_k((h+x)/D)
      (b) sum_j C(k,j) * (weighted Bernoulli number)_j * x^(k-j)
    and must agree exactly, entry by entry before any reduction, which also
    catches a difference that a reduction would fold to zero.  For k < 0
    every polynomial is empty, matching the plain-Bernoulli convention
    (needed so that out-of-range trace terms vanish).
    """
    if k < 0:
        return 1, ((),) * chi.order
    via_sum = _via_residue_sum(k, chi)
    if via_sum != _via_binomial(k, chi):
        raise BernoulliSelfCheckError(f"defining expressions disagree at k={k}, chi mod {chi.modulus}")
    return _weighted_number_direct(k, chi)[0], via_sum


def _via_residue_sum(k: int, chi: DirichletCharacter) -> tuple[tuple[int, ...], ...]:
    """D * L_k * D^(k-1) * sum_h chi(h) B_k((h+x)/D), one integer polynomial
    per value-exponent class, unreduced."""
    d = chi.modulus
    top = _bernoulli_row(k, d)[0] // d**k
    # B_k((h+x)/D) = sum_i C(k,i) B_(k-i)(h/D) (x/D)^i, and row k-i states
    # B_(k-i)(h/D) over D^(k-i) * L_(k-i)
    weights, rows = [], []
    for i in range(k + 1):
        den, row = _bernoulli_row(k - i, d)
        weights.append(math.comb(k, i) * top * d ** (k - i) // den)
        rows.append(row)
    buckets = [[0] * (k + 1) for _ in range(chi.order)]
    for h in range(d):
        e = chi.exponents[h]
        if e is None:
            continue
        bucket = buckets[e]
        for i, (weight, row) in enumerate(zip(weights, rows)):
            bucket[i] += weight * row[h]
    return tuple(map(tuple, buckets))


def _via_binomial(k: int, chi: DirichletCharacter) -> tuple[tuple[int, ...], ...]:
    # the coefficient of x^i is C(k, k-i) times the weighted number at k-i,
    # brought from its denominator D * L_(k-i) to D * L_k
    top = _weighted_number_direct(k, chi)[0]
    columns = []
    for j in range(k, -1, -1):
        den, sums = _weighted_number_direct(j, chi)
        columns.append([math.comb(k, j) * (top // den) * c for c in sums])
    return tuple(zip(*columns))


@lru_cache(maxsize=_MEMO_SIZE)
def _weighted_number_direct(j: int, chi: DirichletCharacter) -> tuple[int, tuple[int, ...]]:
    """The weighted Bernoulli number D^(j-1) * sum_h chi(h) B_j(h/D) as its
    denominator D * L_j (row j's D^j * L_j over D^(j-1)) and its unreduced
    integer class sums over it, one per power of zeta_R, R = ord chi."""
    d = chi.modulus
    buckets = [0] * chi.order
    den, row = _bernoulli_row(j, d)
    for h in range(d):
        e = chi.exponents[h]
        if e is not None:
            buckets[e] += row[h]
    return den * d // d**j, tuple(buckets)
