"""Symmetrized twisted period polynomials of the period-kernel cusp forms.

Two independent routes are implemented for the polynomial

    P_n(X) = r_chi(R_n)(X) + (-1)^(n-1) chi(-1) r_chi(R_n)(-X):

* ``closed_form_polynomial`` evaluates the closed form directly: a
  (2i)^(w+1)/tau(conj chi) prefactor, four epsilon-gated weighted-Bernoulli
  terms, and the finite quadruple sum G_n(X) + (-1)^(n-1)chi(-1)G_n(-X).

* ``case_sum_polynomial`` assembles the same polynomial from the six
  per-residue case contributions (cosets of Gamma_0(N) split by the signs
  of a, c and the translated row entries), weighted by conj(chi)(h)/tau.

The two must agree exactly on every valid context; that equality is the
module's central oracle.  Individual twisted periods are recovered from
polynomial coefficients when the parity (-1)^(m+n+1)chi(-1) = 1 admits them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .bernoulli import _weighted_coordinates, bernoulli_number, bernoulli_shifted_coeffs
from .characters import (
    DirichletCharacter,
    bezout_pair,
    chi_four_tuple_exponent,
    gauss_sum,
)
from .cyclotomic import (
    _MEMO_SIZE,
    ExactNumber,
    ExactPolynomial,
    _add_into,
    _bucket_poly,
    _poly_mul,
    factorize,
)

_ZERO = Fraction(0)


class ContextError(ValueError):
    pass


class ParityError(ValueError):
    """Raised when a period is not extractable at the requested parity."""


class EpsilonFlags(NamedTuple):
    """The three gates of the closed form: level one, coprime level, dividing level."""

    eps1: int
    eps2: int
    eps3: int

    @classmethod
    def for_level(cls, level: int, modulus: int) -> "EpsilonFlags":
        return cls(
            1 if level == 1 else 0,
            1 if math.gcd(level, modulus) == 1 else 0,
            1 if modulus % level == 0 else 0,
        )


class FareyQuadruple(NamedTuple):
    """Positive (a, c, k, ell) with gcd(a,c)=1, N|c and k*a + ell*c = D."""

    a: int
    c: int
    k: int
    ell: int


@dataclass(frozen=True)
class PeriodContext:
    """Parameters (N, w, n, chi) of one twisted period polynomial."""

    level: int
    w: int
    n: int
    chi: DirichletCharacter

    def __post_init__(self):
        if self.level < 1:
            raise ContextError("level must be positive")
        if self.w < 2 or self.w % 2:
            raise ContextError("w must be a positive even integer")
        if not 0 < self.n < self.w:
            raise ContextError(f"n must satisfy 0 < n < w, got n={self.n}, w={self.w}")
        if self.chi.modulus < 2:
            raise ContextError("character modulus must exceed 1")
        if not self.chi.is_primitive:
            raise ContextError(
                f"character must be primitive (conductor {self.chi.conductor} "
                f"!= modulus {self.chi.modulus})"
            )

    @property
    def modulus(self) -> int:
        return self.chi.modulus

    @property
    def n_tilde(self) -> int:
        return self.w - self.n

    @property
    def weight(self) -> int:
        return self.w + 2

    def epsilons(self) -> EpsilonFlags:
        return EpsilonFlags.for_level(self.level, self.modulus)

    def with_n(self, n: int) -> "PeriodContext":
        return PeriodContext(self.level, self.w, n, self.chi)

    def parity_holds(self, m: int) -> bool:
        return (-1) ** (m + self.n + 1) * self.chi.sign_at_minus_one() == 1


# ---------------------------------------------------------------------------
# quadruple enumeration and the finite sum


def enumerate_quadruples(level: int, modulus: int) -> list[FareyQuadruple]:
    """All quadruples, lexicographic by (c, a, k); finite since a, c < D."""
    if level < 1 or modulus < 2:
        raise ContextError("need level >= 1 and modulus > 1")
    out = []
    for c in range(level, modulus, level):
        for a in range(1, modulus - c + 1):
            if math.gcd(a, c) != 1:
                continue
            for k in range(1, (modulus - c) // a + 1):
                rem = modulus - k * a
                if rem % c == 0 and rem >= c:
                    out.append(FareyQuadruple(a, c, k, rem // c))
    return out


def _binomial_power(p: int, q: int, n: int) -> list[int]:
    """Ascending coefficients of (p*x + q)**n."""
    return [math.comb(n, i) * p**i * q ** (n - i) for i in range(n + 1)]


def _quadruple_buckets(ctx: PeriodContext) -> list[list[Fraction]]:
    """Rational polynomial attached to each conj(chi) value exponent in G_n.

    Each term is summed as D^w * term = (aD*X + ell)^n (-cD*X + k)^(w-n),
    in integers; every bucket coefficient is divided by D^w once at the end.
    """
    chibar = ctx.chi.conjugate()
    d = ctx.modulus
    buckets: list[list[int]] = [[] for _ in range(chibar.order)]
    for a, c, k, ell in enumerate_quadruples(ctx.level, d):
        e = chi_four_tuple_exponent(chibar, a, c, k, ell)
        if e is None:
            continue
        term = _poly_mul(
            _binomial_power(a * d, ell, ctx.n),
            _binomial_power(-c * d, k, ctx.n_tilde),
        )
        _add_into(buckets[e], term)
    scale = d**ctx.w
    return [[Fraction(x, scale) for x in bucket] for bucket in buckets]


def quadruple_sum_polynomial(ctx: PeriodContext) -> ExactPolynomial:
    """G_n(X): the finite sum over quadruples of
    conj(chi)(a,c,k,ell) * (a*X + ell/D)^n * (-c*X + k/D)^(w-n)."""
    return _bucket_poly(_quadruple_buckets(ctx), ctx.chi.order)


# ---------------------------------------------------------------------------
# closed form


def _two_i_power(exponent: int) -> ExactNumber:
    return ExactNumber.zeta(4, exponent % 4) * (2**exponent)


@lru_cache(maxsize=_MEMO_SIZE)
def _prefactor(chibar: DirichletCharacter, w: int) -> ExactNumber:
    """(2i)^(w+1) / tau(conj chi): the common factor of both routes and the
    trace, computed once per character and weight."""
    return _two_i_power(w + 1) * gauss_sum(chibar).inverse()


@lru_cache(maxsize=_MEMO_SIZE)
def closed_form_polynomial(ctx: PeriodContext) -> ExactPolynomial:
    """P_n(X) by the closed form (production path).

    Everything is added as rationals per power of zeta_R (R = ord chi) and
    enters the field once, at the prefactor: chi(-N) and chi(-1) rotate the
    exponent of a Bernoulli term's coordinates.
    """
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    d, level = ctx.modulus, ctx.level
    chi = ctx.chi
    chibar = chi.conjugate()
    order = chi.order
    eps = ctx.epsilons()

    # G_n(X) + gsign*G_n(-X): coefficient i picks up 1 + gsign*(-1)^i
    gsign = (-1) ** (n - 1) * chi.sign_at_minus_one()
    buckets = _quadruple_buckets(ctx)
    for bucket in buckets:
        for i, c in enumerate(bucket):
            bucket[i] = c * (1 + gsign * (-1) ** i)

    # (character, index k, scalar, exponent of the chi value in front, alpha,
    # reversed): scalar * B_{k,psi}(alpha*X), or scalar * X^w * B_{k,psi}(alpha/X)
    terms = []
    if eps.eps1:
        terms.append((chibar, nt + 1, Fraction(1, (-d) ** nt * (nt + 1)), 0, d, False))
    terms.append((chibar, n + 1, Fraction(-1, d**n * (n + 1)), 0, d, False))
    if eps.eps2:
        scalar = Fraction((-1) ** (n - 1) * level**nt * d**n, nt + 1)
        terms.append((chi, nt + 1, scalar, chi.value_exponent(-level), Fraction(-1, d * level), True))
    if eps.eps3:
        terms.append((chi, n + 1, Fraction(d**nt, n + 1), chi.value_exponent(-1), Fraction(-1, d), True))

    for psi, k, scalar, shift, alpha, reverse in terms:
        for j, coeffs in enumerate(_weighted_coordinates(k, psi)):
            scaled = [c * scalar * alpha**i for i, c in enumerate(coeffs)]
            if reverse:
                scaled = [0] * (w + 1 - len(scaled)) + scaled[::-1]
            _add_into(buckets[(j + shift) % order], scaled)

    return _bucket_poly(buckets, order).scale(_prefactor(chibar, w))


# ---------------------------------------------------------------------------
# the six case contributions (per residue h)


def _prime_ratio_product(level: int, s: int, w: int) -> Fraction:
    out = Fraction(1)
    for p in factorize(level):
        out *= (1 - Fraction(1, p**s)) / (1 - Fraction(1, p ** (w + 2)))
    return out


def _case_rational(j: int, h: int, level: int, w: int, n: int, d: int) -> list[Fraction]:
    """Ascending coefficients of the case-j residue contribution divided by
    the common (2i)^(w+1) factor, for j in 1..4 and 6 (case 5 comes from
    _case_five_rows).  Gated cases return []."""
    nt = w - n
    h %= d
    if j == 1:
        if level != 1:
            return []
        coeffs = bernoulli_shifted_coeffs(nt + 1, Fraction(h, d))
        sign = Fraction((-1) ** n, nt + 1)
        return [sign * c for c in coeffs]
    if j == 2:
        coeffs = bernoulli_shifted_coeffs(n + 1, Fraction(h, d))
        return [-c / (n + 1) for c in coeffs]
    if j == 3:
        if math.gcd(level, d) != 1:
            return []
        hbar = pow(h, -1, d)
        nbar = pow(level % d, -1, d)
        alpha = Fraction((-nbar * hbar) % d, d)
        return _reversed_bernoulli(
            nt + 1, alpha, Fraction(-1, d * d * level), w,
            Fraction((-1) ** (n - 1) * level**nt * d**w, nt + 1),
        )
    if j == 4:
        if d % level != 0:
            return []
        hbar = pow(h, -1, d)
        beta = Fraction((-hbar) % d, d)
        return _reversed_bernoulli(
            n + 1, beta, Fraction(-1, d * d), w, Fraction(d**w, n + 1)
        )
    if j == 6:
        bw = bernoulli_number(w + 2)
        scalar = (
            Fraction((-1) ** n * (w + 2))
            / bw
            * bernoulli_number(n + 1)
            / (n + 1)
            * bernoulli_number(nt + 1)
            / (nt + 1)
        )
        if scalar == 0:
            return []
        out = [_ZERO] * (w + 1)
        out[0] = -scalar * Fraction(1, level ** (n + 1)) * _prime_ratio_product(level, nt + 1, w)
        out[w] = scalar * Fraction(d**w, level) * _prime_ratio_product(level, n + 1, w)
        return out
    raise ValueError(f"case index must be 1..6, got {j}")


def _reversed_bernoulli(k: int, shift: Fraction, c: Fraction, w: int, scalar: Fraction) -> list[Fraction]:
    """scalar * X^w * B_k(shift + c/X) as ascending coefficients (k <= w)."""
    shifted = bernoulli_shifted_coeffs(k, shift)  # B_k(shift + y), ascending in y
    out = [_ZERO] * (w + 1)
    power = Fraction(1)
    for i, coeff in enumerate(shifted):
        out[w - i] = scalar * coeff * power
        power *= c
    return out


def _case_five_rows(ctx: PeriodContext, residue: Optional[int] = None) -> list[list[Fraction]]:
    """Case 5 at every residue, from one walk over the quadruples: row h is
    summed in integers scaled by D^w and divided by D^w once (empty when no
    quadruple reaches h).  A quadruple with Bezout residue e adds its sign
    class a, c > 0 at -e and its class c < 0 at +e; in each class exactly
    one matrix realizes the residue.  Given a residue, quadruples that reach
    neither it nor its negative are skipped, so only that row (and its
    negative's) is complete.  Rows of non-units are never read."""
    d, n, nt = ctx.modulus, ctx.n, ctx.n_tilde
    rows: list[list[int]] = [[] for _ in range(d)]
    for a, c, k, ell in enumerate_quadruples(ctx.level, d):
        b0, d0 = bezout_pair(a, c)
        e = (k * b0 + ell * d0) % d
        if residue is not None and residue % d not in (e, -e % d):
            continue
        # class c < 0: (aD*X + ell)^n (-cD*X + k)^(w-n); class a, c > 0:
        # -(aD*X - ell)^n (cD*X + k)^(w-n), which is (-1)^(n+1) times the first at -X
        term = _poly_mul(_binomial_power(a * d, ell, n), _binomial_power(-c * d, k, nt))
        _add_into(rows[e], term)
        _add_into(rows[-e % d], [-t if (n + i) % 2 == 0 else t for i, t in enumerate(term)])
    scale = d**ctx.w
    return [[Fraction(x, scale) for x in row] for row in rows]


def case_contribution(j: int, h: int, ctx: PeriodContext) -> ExactPolynomial:
    """The case-j part of the symmetrized residue-twist polynomial at h.

    Cases are gated by the context (1 needs N=1, 3 needs gcd(N,D)=1,
    4 needs N|D) and return the zero polynomial when inapplicable; case 6
    does not depend on h.
    """
    return _residue_polynomial(ctx, h, (j,))


def _residue_polynomial(ctx: PeriodContext, h: int, cases: Iterable[int]) -> ExactPolynomial:
    """(2i)^(w+1) times the rational sum of the given cases at residue h."""
    d = ctx.modulus
    if math.gcd(h, d) != 1:
        raise ContextError(f"residue {h} is not coprime to {d}")
    coeffs: list[Fraction] = []
    for j in cases:
        row = _case_five_rows(ctx, h)[h % d] if j == 5 else _case_rational(j, h, ctx.level, ctx.w, ctx.n, d)
        _add_into(coeffs, row)
    factor = _two_i_power(ctx.w + 1)
    return ExactPolynomial([factor * c for c in coeffs])


def case_sum_polynomial(ctx: PeriodContext) -> ExactPolynomial:
    """P_n(X) assembled from the six case contributions over all residues.

    This is the independent oracle: it must equal closed_form_polynomial
    exactly on every valid context.
    """
    d = ctx.modulus
    chibar = ctx.chi.conjugate()
    buckets: list[list[Fraction]] = [[] for _ in range(chibar.order)]
    fives = _case_five_rows(ctx)
    for h in range(1, d):
        e = chibar.value_exponent(h)
        if e is None:
            continue
        _add_into(buckets[e], fives[h])
        for j in (1, 2, 3, 4, 6):
            _add_into(buckets[e], _case_rational(j, h, ctx.level, ctx.w, ctx.n, d))
    assembled = _bucket_poly(buckets, chibar.order)
    return assembled.scale(_prefactor(chibar, ctx.w))


# ---------------------------------------------------------------------------
# period extraction


def twisted_period(ctx: PeriodContext, m: int) -> ExactNumber:
    """r_{m,chi}(R_n), extracted from the closed-form polynomial.

    Only the parity class (-1)^(m+n+1)chi(-1) = 1 survives symmetrization;
    anything else raises ParityError.
    """
    if not 0 <= m <= ctx.w:
        raise ContextError(f"m must lie in 0..{ctx.w}")
    if not ctx.parity_holds(m):
        raise ParityError(
            f"period m={m} not extractable: symmetrization annihilates parity "
            f"(-1)^(m+n+1)chi(-1) = -1"
        )
    poly = closed_form_polynomial(ctx)
    coeff = poly.coefficient(ctx.w - m)
    denom = Fraction(2 * (-1) ** m * math.comb(ctx.w, m))
    return coeff * (1 / denom)


def residue_period(ctx: PeriodContext, m: int, h: int) -> ExactNumber:
    """rho(m, n, h): the symmetrized residue-twist period, read off the
    coefficient of X^(w-m) in the sum of all six case contributions."""
    if not 0 <= m <= ctx.w:
        raise ContextError(f"m must lie in 0..{ctx.w}")
    coeff = residue_case_sum(ctx, h).coefficient(ctx.w - m)
    return coeff * (1 / Fraction((-1) ** m * math.comb(ctx.w, m)))


def residue_case_sum(ctx: PeriodContext, h: int) -> ExactPolynomial:
    """Sum of all six case contributions at residue h (shared by tests)."""
    return _residue_polynomial(ctx, h, range(1, 7))
