"""Bernoulli numbers and polynomials, plain and character-weighted.

Conventions follow the generating function t*e^(x*t)/(e^t - 1), so B_1 is
-1/2, and B_k(x) is the zero polynomial for negative k.  The
character-weighted polynomials are computed from both defining expressions
(the level-power residue sum and the binomial expansion in the weighted
Bernoulli numbers) and the two must agree exactly; a mismatch is a hard
internal error, not a recoverable condition.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .characters import DirichletCharacter
from .cyclotomic import _MEMO_SIZE, ExactNumber, ExactPolynomial, _add_into, _bucket_poly, _fold, euler_phi

_ZERO = Fraction(0)
# Bernoulli numbers are memoized in rows of this length: a short row wastes
# little on a cold start, and the recursion over rows stays shallow
_ROW = 8


def bernoulli_number(k: int) -> Fraction:
    """B_k; 0 for negative k."""
    return _bernoulli_numbers(k // _ROW)[k] if k >= 0 else _ZERO


@lru_cache(maxsize=_MEMO_SIZE)
def _bernoulli_numbers(row: int) -> tuple[Fraction, ...]:
    """B_0..B_m for m = _ROW*(row + 1) - 1: the numbers of the rows below,
    extended by the recurrence sum_{j <= m} C(m+1, j) B_j = 0."""
    numbers = list(_bernoulli_numbers(row - 1)) if row else [Fraction(1)]
    for m in range(len(numbers), _ROW * (row + 1)):
        numbers.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(numbers)) / (m + 1))
    return tuple(numbers)


def bernoulli_poly(k: int) -> ExactPolynomial:
    """B_k(x) as an exact polynomial; the zero polynomial for k < 0."""
    return ExactPolynomial(bernoulli_shifted_coeffs(k, _ZERO))


def bernoulli_shifted_coeffs(k: int, a: Fraction) -> list[Fraction]:
    """Ascending coefficients of B_k(a + x) via the addition formula."""
    if k < 0:
        return []
    return [math.comb(k, j) * _bernoulli_at(j, a) for j in range(k, -1, -1)]


# typed: a float argument equal to a Fraction key must not share its entry
@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _bernoulli_at(k: int, a: Fraction) -> Fraction:
    acc = _ZERO
    power = Fraction(1)
    # B_k(a) = sum_j C(k,j) B_{k-j} a^j
    for j in range(k + 1):
        acc += math.comb(k, j) * bernoulli_number(k - j) * power
        power *= a
    return acc


def bernoulli_frac(k: int, x) -> Fraction:
    """B_k({x}) with {x} the fractional part; 0 when k = 1 and x is integral."""
    if k < 1:
        raise ValueError("bernoulli_frac needs k >= 1")
    x = Fraction(x)
    frac = x - math.floor(x)
    if k == 1 and frac == 0:
        return _ZERO
    return _bernoulli_at(k, frac)


# ---------------------------------------------------------------------------
# character-weighted versions


class BernoulliSelfCheckError(ArithmeticError):
    """The two defining expressions of B_{k,chi}(x) disagreed (should never happen)."""


def generalized_bernoulli_poly(k: int, chi: DirichletCharacter) -> ExactPolynomial:
    """The chi-weighted Bernoulli polynomial of degree index k, built once
    from its checked coordinates (the zero polynomial for k < 0)."""
    return _bucket_poly(_weighted_coordinates(k, chi), chi.order)


def generalized_bernoulli_number(k: int, chi: DirichletCharacter) -> ExactNumber:
    """Constant term of the weighted polynomial; 0 for k < 0."""
    return generalized_bernoulli_poly(k, chi).coefficient(0)


@lru_cache(maxsize=_MEMO_SIZE)
def _weighted_coordinates(k: int, chi: DirichletCharacter) -> tuple[tuple[Fraction, ...], ...]:
    """Power-basis coordinates of the chi-weighted Bernoulli polynomial at
    level R = ord chi: entry j is the ascending rational polynomial that
    multiplies zeta_R**j.

    Both defining expressions are evaluated:
      (a) D^(k-1) * sum_h chi(h) B_k((h+x)/D)
      (b) sum_j C(k,j) * (weighted Bernoulli number)_j * x^(k-j)
    and must agree exactly.  For k < 0 every polynomial is empty, matching
    the plain-Bernoulli convention (needed so that out-of-range trace terms
    vanish).
    """
    if k < 0:
        return ((),) * euler_phi(chi.order)
    via_sum = _via_residue_sum(k, chi)
    if via_sum != _via_binomial(k, chi):
        raise BernoulliSelfCheckError(f"defining expressions disagree at k={k}, chi mod {chi.modulus}")
    return via_sum


def _via_residue_sum(k: int, chi: DirichletCharacter) -> tuple[tuple[Fraction, ...], ...]:
    """D^(k-1) * sum_h chi(h) B_k((h+x)/D), one rational polynomial per
    value-exponent class, folded to coordinates at level ord chi."""
    d = chi.modulus
    scale = Fraction(d) ** (k - 1)
    inv = Fraction(1, d)
    buckets: list[list[Fraction]] = [[] for _ in range(chi.order)]
    for h in range(d):
        e = chi.exponents[h]
        if e is None:
            continue
        # B_k((h+x)/D) = sum_j C(k,j) B_j(h/D) (x/D)^(k-j)
        shifted = bernoulli_shifted_coeffs(k, Fraction(h, d))
        _add_into(buckets[e], [c * inv**i * scale for i, c in enumerate(shifted)])
    columns = [_fold([b[i] if i < len(b) else _ZERO for b in buckets], chi.order) for i in range(k + 1)]
    return tuple(zip(*columns))


def _via_binomial(k: int, chi: DirichletCharacter) -> tuple[tuple[Fraction, ...], ...]:
    # the coefficient of x^i is C(k, k-i) times the weighted number at k-i
    columns = [[math.comb(k, j) * c for c in _weighted_number_direct(j, chi)] for j in range(k, -1, -1)]
    return tuple(zip(*columns))


@lru_cache(maxsize=_MEMO_SIZE)
def _weighted_number_direct(j: int, chi: DirichletCharacter) -> tuple[Fraction, ...]:
    """Coordinates of the weighted Bernoulli number at level ord chi."""
    d = chi.modulus
    scale = Fraction(d) ** (j - 1)
    buckets = [_ZERO] * chi.order
    for h in range(d):
        e = chi.exponents[h]
        if e is not None:
            buckets[e] += _bernoulli_at(j, Fraction(h, d)) * scale
    return tuple(_fold(buckets, chi.order))
