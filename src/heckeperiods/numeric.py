"""Floating-point reproduction of the level-one numeric checks.

Everything here is double precision: the periods of the discriminant form
as one path integral split at a height (its completed L-values are the
periods at the cusp 0/1), and its Petersson norm via the zeta-ratio
formula.  The Petersson sum reads the fixed TRUNCATION terms.  A split sum
at the cusp h/d stops at its own 1e-20 test and reads at most a length
proportional to d, never below TRUNCATION: at height 1/d its terms fall
like exp(-2 pi n / d), so a fixed length fails at large d.  These are
sanity anchors for the exact machinery, not high-precision evaluators.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

from .characters import DirichletCharacter, gauss_sum
from .cyclotomic import _MEMO_SIZE, _Frozen
from .periods import ContextError, _require_primitive
from .traces import TraceQuery, trace_closed_form

# terms summed by zeta_value before its Euler-Maclaurin tail correction
_ZETA_TERMS = 100000
# relative error below which verify_trace_numeric passes
_TRACE_TOLERANCE = 1e-5
# q-expansion terms every numeric sum reads at least; the lambda values and
# 1/||Delta||^2 are bit-identical from here to 10^4 terms
TRUNCATION = 300
# terms per unit of d a split sum at the cusp h/d may read: at height 1/d
# its terms fall like exp(-2 pi n / d), and its own 1e-20 test stops it
# between 10 d and 13 d for every d up to 1003
_TERMS_PER_MODULUS = 16


class QExpansion(_Frozen):
    """Integer Fourier coefficients a(1..M) of a normalized form."""

    __slots__ = _fields = ("coefficients", "weight", "level")

    def __init__(self, coefficients: tuple[int, ...], weight: int, level: int):
        if coefficients and coefficients[0] != 1:
            raise ValueError("normalized forms start with a(1) = 1")
        super().__init__(coefficients, weight, level)

    def a(self, n: int) -> int:
        return self.coefficients[n - 1]

    def truncation(self) -> int:
        return len(self.coefficients)


# ---------------------------------------------------------------------------
# tau coefficients via the eta product


def _pentagonal_terms(m: int) -> list[tuple[int, int]]:
    """(exponent, sign) of the nonzero terms of prod (1 - q^n) below q^m,
    ascending, without the constant 1: Euler's pentagonal number theorem
    puts (-1)^k at the exponents k(3k - 1)/2 and k(3k + 1)/2."""
    terms = []
    k = 1
    while k * (3 * k - 1) // 2 < m:
        sign = -1 if k % 2 else 1
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < m:
                terms.append((e, sign))
        k += 1
    return terms


@lru_cache(maxsize=_MEMO_SIZE)
def tau_coefficients(m: int) -> QExpansion:
    """tau(1..m), exact, as the coefficients of g = f^24 for the pentagonal
    series f, by the power recurrence n g_n = sum_j (25j - n) f_j g_(n-j)."""
    if m < 1:
        raise ContextError("need at least one tau coefficient")
    if m > 10**6:
        raise ContextError("truncation capped at 10^6")
    terms = _pentagonal_terms(m)
    g = [1]
    for n in range(1, m):
        acc = 0
        for j, sign in terms:
            if j > n:
                break
            acc += sign * (25 * j - n) * g[n - j]
        value, remainder = divmod(acc, n)
        if remainder:
            raise ArithmeticError(f"power recurrence not exact at q^{n}")
        g.append(value)
    return QExpansion(tuple(g), weight=12, level=1)


# ---------------------------------------------------------------------------
# completed L-values of the discriminant form


def incomplete_gamma_integer(k: int, x: float) -> float:
    """Gamma(k, x) for integer k >= 1 as the finite exponential sum."""
    if k < 1:
        raise ValueError("need k >= 1")
    acc = 0.0
    term = 1.0
    for j in range(k):
        if j:
            term *= x / j
        acc += term
    return math.factorial(k - 1) * math.exp(-x) * acc


def _split_lambda(s: int, height: float) -> float:
    """Completed L-value of the discriminant form, Lambda(Delta, s) =
    (-i)^s r_{s-1}: the untwisted period at the cusp 0/1 split at the height."""
    return ((-1j) ** s * _split_period(s - 1, 0, 1, height)).real


def lambda_delta(s: int) -> float:
    """Completed L-value of the discriminant form at integer s in 1..11."""
    if not 1 <= s <= 11:
        raise ContextError("s must lie in 1..11")
    return _split_lambda(s, 1.0)


def zeta_value(s: int) -> float:
    """Zeta by direct summation plus the integral-plus-half tail correction."""
    if s < 2:
        raise ValueError("need s >= 2")
    total = 0.0
    n = 0
    for n in range(1, _ZETA_TERMS + 1):
        term = 1.0 / float(n) ** s
        total += term
        if term < 1e-18:
            return total
    # sum_{k > n} k^-s ~ n^(1-s)/(s-1) + n^-s/2 (Euler-Maclaurin)
    total += float(n) ** (1 - s) / (s - 1) + 0.5 / float(n) ** s
    return total


def petersson_delta_inverse() -> float:
    """1 / ||Delta||^2 by inverting the zeta-ratio identity for the
    weighted sum of squared tau values."""
    tau = tau_coefficients(TRUNCATION)
    weighted = 0.0
    for n in range(1, TRUNCATION + 1):
        weighted += float(tau.a(n)) ** 2 / float(n) ** 20
    constant = (
        2.0 / 245.0 * 4.0**20 * math.pi**29 / math.factorial(20)
        * zeta_value(9) / zeta_value(18)
    )
    return constant / weighted


# ---------------------------------------------------------------------------
# periods as path integrals


def _split_period(m: int, h: int, d: int, height: float) -> complex:
    """r_{m, h/d} of the discriminant form: the path integral from h/d to
    i*infinity split at the given height above h/d, the lower piece mapped
    above 1/(d^2 height) through the cusp matrix.  The value does not depend
    on the height, the terms do: they fall like exp(-2 pi n y) for the
    smaller of the two heights y, and the sum stops once a term pair drops
    below 1e-20, at the latest after max(TRUNCATION, 16 d) terms (before
    TRUNCATION for d <= 23 at height 1/d)."""
    length = max(TRUNCATION, _TERMS_PER_MODULUS * d)
    tau = tau_coefficients(length)
    h_inv = pow(h, -1, d)
    low_height = 1.0 / (d * d * height)
    upper = lower = 0j
    for n in range(1, length + 1):
        x = 2 * math.pi * n
        up = (
            tau.a(n)
            * cmath.exp(2j * math.pi * n * h / d)
            * incomplete_gamma_integer(m + 1, x * height)
            / x ** (m + 1)
        )
        low = (
            tau.a(n)
            * cmath.exp(-2j * math.pi * n * h_inv / d)
            * incomplete_gamma_integer(11 - m, x * low_height)
            / x ** (11 - m)
        )
        upper += up
        lower += low
        if abs(up) + abs(low) < 1e-20 and n > 8:
            break
    return 1j ** (m + 1) * upper + (-1) ** (m + 1) * 1j ** (11 - m) * float(d) ** (10 - 2 * m) * lower


def numeric_twisted_period(m: int, h: int, d: int) -> complex:
    """r_{m, h/d} of the discriminant form, the path integral split at height 1/d."""
    if math.gcd(h, d) != 1:
        raise ValueError(f"residue {h} not coprime to {d}")
    if not 0 <= m <= 10:
        raise ValueError("m must lie in 0..10")
    return _split_period(m, h, d, 1.0 / d)


def assembled_twisted_lambda(m: int, chi: DirichletCharacter) -> complex:
    """Lambda(Delta, chi, m+1) numerically: (-D i)^(m+1) / tau(conj chi)
    times the conj(chi)-weighted sum of residue periods."""
    return _twisted_lambda(m, chi)[0]


def _twisted_lambda(m: int, chi: DirichletCharacter) -> tuple[complex, float]:
    """assembled_twisted_lambda and the magnitude its rounding scales with,
    D^m sqrt(D) sum_h |r_{m,h/D}|, by |tau(conj chi)| = sqrt(D).  The
    assembly needs a primitive chi."""
    _require_primitive(chi)
    d = chi.modulus
    chibar = chi.conjugate()
    total = 0j
    magnitude = 0.0
    for h in range(1, d):
        if math.gcd(h, d) != 1:
            continue
        period = numeric_twisted_period(m, h, d)
        total += chibar.value(h).numeric() * period
        magnitude += abs(period)
    total /= gauss_sum(chibar).numeric()
    return (-d * 1j) ** (m + 1) * total, d**m * math.sqrt(d) * magnitude


# ---------------------------------------------------------------------------
# end-to-end check against the exact trace


def _float_json(z: complex):
    """z as JSON: re alone when |im| < 1e-9 * max(1, |re|), else [re, im]."""
    return z.real if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)) else [z.real, z.imag]


class NumericCheck(NamedTuple):
    expected: complex
    computed: complex
    abs_err: float
    rel_err: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "expected": _float_json(self.expected),
            "computed": _float_json(self.computed),
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "pass": self.passed,
        }


def verify_trace_numeric(query: TraceQuery) -> NumericCheck:
    """Compare the exact trace (evaluated as a float) against the numeric
    product Lambda(Delta, chi, m+1) * Lambda(Delta, n+1) / ||Delta||^2.

    The error is relative to max(|exact|, |numeric|, 1), or, for an exact 0,
    to the magnitude its rounding scales with: that of _twisted_lambda times
    |Lambda(Delta, n+1)| / ||Delta||^2.
    Only the one-dimensional level-one case is supported (f = Delta).
    """
    ctx = query.ctx
    if ctx.level != 1 or ctx.w != 10:
        raise ContextError("numeric verification covers level 1, weight 12 only")
    trace = trace_closed_form(query)
    exact = trace.numeric()
    twisted, magnitude = _twisted_lambda(query.m, ctx.chi)
    untwisted, norm_inverse = lambda_delta(ctx.n + 1), petersson_delta_inverse()
    numeric = twisted * untwisted * norm_inverse
    abs_err = abs(exact - numeric)
    scale = magnitude * abs(untwisted) * norm_inverse if trace.is_zero() else max(abs(exact), abs(numeric), 1.0)
    rel_err = abs_err / scale
    return NumericCheck(exact, numeric, abs_err, rel_err, rel_err < _TRACE_TOLERANCE)
