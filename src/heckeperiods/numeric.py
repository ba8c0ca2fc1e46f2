"""Floating-point reproduction of the level-one numeric checks.

Everything here is double precision with conservative truncation: the
completed L-values of the discriminant form via incomplete-gamma sums, its
Petersson norm via the zeta-ratio formula, and twisted periods as path
integrals split at the cusp height.  These are sanity anchors for the
exact machinery, not high-precision evaluators.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass

from .characters import DirichletCharacter, gauss_sum
from .periods import ContextError
from .traces import TraceQuery, trace_closed_form

# terms summed by zeta_value before its Euler-Maclaurin tail correction
_ZETA_TERMS = 100000
# relative error below which verify_trace_numeric passes
_TRACE_TOLERANCE = 1e-5
# fewest q-expansion terms a numeric sum accepts: a shorter sum is no check
_MIN_TERMS = 100
# q-expansion terms every numeric sum takes by default; the lambda values
# and 1/||Delta||^2 are bit-identical from here to 10^4 terms
TRUNCATION = 300


@dataclass(frozen=True)
class QExpansion:
    """Integer Fourier coefficients a(1..M) of a normalized form."""

    coefficients: tuple[int, ...]
    weight: int
    level: int

    def __post_init__(self):
        if self.coefficients and self.coefficients[0] != 1:
            raise ValueError("normalized forms start with a(1) = 1")

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


_tau_cache: list[int] = []
_tau_publish = threading.Lock()


def tau_coefficients(m: int) -> QExpansion:
    """tau(1..m), exact, as the coefficients of g = f^24 for the pentagonal
    series f, by the power recurrence n g_n = sum_j (25j - n) f_j g_(n-j).
    The shared table only ever grows: a request extends its own copy and
    publishes it if it is still the longest."""
    if m < 1:
        raise ContextError("need at least one tau coefficient")
    if m > 10**6:
        raise ContextError("truncation capped at 10^6")
    global _tau_cache
    table = _tau_cache
    if len(table) < m:
        terms = _pentagonal_terms(m)
        g = list(table) or [1]
        for n in range(len(g), m):
            acc = 0
            for j, sign in terms:
                if j > n:
                    break
                acc += sign * (25 * j - n) * g[n - j]
            value, remainder = divmod(acc, n)
            if remainder:
                raise ArithmeticError(f"power recurrence not exact at q^{n}")
            g.append(value)
        with _tau_publish:
            if len(g) > len(_tau_cache):
                _tau_cache = g
        table = g
    return QExpansion(tuple(table[:m]), weight=12, level=1)


def _check_terms(truncation: int) -> None:
    if truncation < _MIN_TERMS:
        raise ContextError(f"need at least {_MIN_TERMS} terms, got {truncation}")


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


def _split_lambda(s: int, truncation: int, t0: float) -> float:
    """Completed L-value of the discriminant form with its Mellin integral
    split at height t0; the piece below t0 is mapped above 1/t0 by the
    functional equation.  The value does not depend on t0, the terms do.
    They fall like exp(-2 pi n min(t0, 1/t0)), so the sum stops near n = 17
    for t0 in {1/2, 1}; the table past the first _MIN_TERMS coefficients is
    only asked for if the sum runs beyond them."""
    tau = tau_coefficients(min(truncation, _MIN_TERMS))
    total = 0.0
    for n in range(1, truncation + 1):
        if n > tau.truncation():
            tau = tau_coefficients(truncation)
        x = 2 * math.pi * n
        term = tau.a(n) * (
            incomplete_gamma_integer(s, x * t0) / x**s
            + incomplete_gamma_integer(12 - s, x / t0) / x ** (12 - s)
        )
        total += term
        if abs(term) < 1e-18 and n > 8:
            break
    return total


def lambda_delta(s: int, truncation: int = TRUNCATION) -> float:
    """Completed L-value of the discriminant form at integer s in 1..11."""
    if not 1 <= s <= 11:
        raise ContextError("s must lie in 1..11")
    _check_terms(truncation)
    return _split_lambda(s, truncation, 1.0)


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


def petersson_delta_inverse(truncation: int = TRUNCATION) -> float:
    """1 / ||Delta||^2 by inverting the zeta-ratio identity for the
    weighted sum of squared tau values."""
    _check_terms(truncation)
    tau = tau_coefficients(truncation)
    weighted = 0.0
    for n in range(1, truncation + 1):
        weighted += float(tau.a(n)) ** 2 / float(n) ** 20
    constant = (
        2.0 / 245.0 * 4.0**20 * math.pi**29 / math.factorial(20)
        * zeta_value(9) / zeta_value(18)
    )
    return constant / weighted


# ---------------------------------------------------------------------------
# twisted periods as path integrals


def numeric_twisted_period(m: int, h: int, d: int, truncation: int = TRUNCATION) -> complex:
    """r_{m, h/d} of the discriminant form: the path integral split at
    height 1/d, the lower piece mapped back up through the cusp matrix."""
    if math.gcd(h, d) != 1:
        raise ValueError(f"residue {h} not coprime to {d}")
    if not 0 <= m <= 10:
        raise ValueError("m must lie in 0..10")
    _check_terms(truncation)
    tau = tau_coefficients(truncation)
    y0 = 1.0 / d
    upper = 0j
    lower = 0j
    s_inv = pow(h, -1, d)
    for n in range(1, truncation + 1):
        x = 2 * math.pi * n
        up = (
            tau.a(n)
            * cmath.exp(2j * math.pi * n * h / d)
            * incomplete_gamma_integer(m + 1, x * y0)
            / x ** (m + 1)
        )
        low = (
            tau.a(n)
            * cmath.exp(-2j * math.pi * n * s_inv / d)
            * incomplete_gamma_integer(11 - m, x * y0)
            / x ** (11 - m)
        )
        upper += up
        lower += low
        if abs(up) + abs(low) < 1e-20 and n > 8:
            break
    return 1j ** (m + 1) * upper + (-1) ** (m + 1) * 1j ** (11 - m) * float(d) ** (10 - 2 * m) * lower


def assembled_twisted_lambda(m: int, chi: DirichletCharacter, truncation: int = TRUNCATION) -> complex:
    """Lambda(Delta, chi, m+1) numerically: (-D i)^(m+1) / tau(conj chi)
    times the conj(chi)-weighted sum of residue periods."""
    d = chi.modulus
    chibar = chi.conjugate()
    total = 0j
    for h in range(1, d):
        if math.gcd(h, d) != 1:
            continue
        total += chibar.value(h).numeric() * numeric_twisted_period(m, h, d, truncation)
    total /= gauss_sum(chibar).numeric()
    return (-d * 1j) ** (m + 1) * total


# ---------------------------------------------------------------------------
# end-to-end check against the exact trace


def _float_json(z: complex):
    """z as JSON: re alone when |im| < 1e-9 * max(1, |re|), else [re, im]."""
    return z.real if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)) else [z.real, z.imag]


@dataclass(frozen=True)
class NumericCheck:
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


def verify_trace_numeric(query: TraceQuery, truncation: int = TRUNCATION) -> NumericCheck:
    """Compare the exact trace (evaluated as a float) against the numeric
    product Lambda(Delta, chi, m+1) * Lambda(Delta, n+1) / ||Delta||^2.

    Only the one-dimensional level-one case is supported (f = Delta).
    """
    ctx = query.ctx
    if ctx.level != 1 or ctx.w != 10:
        raise ContextError("numeric verification covers level 1, weight 12 only")
    exact = trace_closed_form(query).numeric()
    numeric = (
        assembled_twisted_lambda(query.m, ctx.chi, truncation)
        * lambda_delta(ctx.n + 1, truncation)
        * petersson_delta_inverse(truncation)
    )
    abs_err = abs(exact - numeric)
    scale = max(abs(exact), abs(numeric), 1.0)
    rel_err = abs_err / scale
    return NumericCheck(exact, numeric, abs_err, rel_err, rel_err < _TRACE_TOLERANCE)
