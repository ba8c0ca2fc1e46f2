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
import threading
from fractions import Fraction
from functools import lru_cache

from .characters import DirichletCharacter
from .cyclotomic import _MEMO_SIZE, ExactNumber, ExactPolynomial, _add_into, _bucket_poly, _fold, euler_phi

_ZERO = Fraction(0)

_numbers: list[Fraction] = [Fraction(1)]
_numbers_lock = threading.Lock()


def bernoulli_number(k: int) -> Fraction:
    """B_k, memoized; 0 for negative k."""
    if k < 0:
        return _ZERO
    if k >= len(_numbers):
        with _numbers_lock:
            while len(_numbers) <= k:
                m = len(_numbers)
                acc = _ZERO
                for j in range(m):
                    acc += math.comb(m + 1, j) * _numbers[j]
                _numbers.append(-acc / (m + 1))
    return _numbers[k]


def bernoulli_poly_coeffs(k: int) -> list[Fraction]:
    """Ascending rational coefficients of B_k(x); empty list for k < 0."""
    if k < 0:
        return []
    return [math.comb(k, j) * bernoulli_number(j) for j in range(k, -1, -1)]


def bernoulli_poly(k: int) -> ExactPolynomial:
    """B_k(x) as an exact polynomial; the zero polynomial for k < 0."""
    return ExactPolynomial.from_rational_coeffs(bernoulli_poly_coeffs(k))


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
    if k < 0:
        return ExactNumber.zero()
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


def _weighted_rational_polys(k: int, chi: DirichletCharacter) -> list[list[Fraction]]:
    """For each value-exponent class e, the rational polynomial multiplying
    zeta_order**e in D^(k-1) * sum_h chi(h) B_k((h+x)/D)."""
    d = chi.modulus
    scale = Fraction(d) ** (k - 1)
    buckets: list[list[Fraction]] = [[] for _ in range(chi.order)]
    for h in range(d):
        e = chi.exponents[h]
        if e is None:
            continue
        # B_k((h+x)/D) = sum_j C(k,j) B_j(h/D) (x/D)^(k-j)
        shifted = bernoulli_shifted_coeffs(k, Fraction(h, d))
        inv = Fraction(1, d)
        _add_into(buckets[e], [c * inv**i * scale for i, c in enumerate(shifted)])
    return buckets


def _via_residue_sum(k: int, chi: DirichletCharacter) -> tuple[tuple[Fraction, ...], ...]:
    buckets = _weighted_rational_polys(k, chi)
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
