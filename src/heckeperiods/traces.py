"""Exact trace of twisted-times-untwisted completed L-values.

For an orthogonal basis f_1,...,f_s of the weight-(w+2) cusp forms on
Gamma_0(N), the sum over i of

    Lambda(f_i, chi, m+1) * conj(Lambda(f_i, n+1)) / <f_i, f_i>

has a closed form, evaluated here in exact cyclotomic arithmetic
(``trace_closed_form``).  The same number also equals
(-D)^(m+1) (i sqrt N)^(m+n+2) r_{m,chi}(R_n), which ``trace_from_periods``
computes through the period-polynomial route; the two must agree exactly.

Degenerate indices are handled by the convention that a term with a
vanishing binomial factor is exactly 0: whenever one of the four
Bernoulli-term denominators would vanish, its binomial factor vanishes
first (e.g. nt - mt + 1 = 0 forces C(nt, mt) = C(nt, nt+1) = 0), and
negative weighted-Bernoulli indices give the zero polynomial, so the
closed form is total on the parity domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bernoulli import _weighted_coordinates
from .characters import DirichletCharacter
from .cyclotomic import _MEMO_SIZE, ExactNumber, _bucket_sum, _cleared, sqrt_positive_integer
from .periods import (
    ContextError,
    ParityError,
    PeriodContext,
    _prefactor,
    _quadruple_walk,
    closed_form_polynomial,
)


@dataclass(frozen=True)
class TraceQuery:
    """A (context, m) pair satisfying the parity hypothesis."""

    ctx: PeriodContext
    m: int

    def __post_init__(self):
        if not 0 <= self.m <= self.ctx.w:
            raise ContextError(f"m must lie in 0..{self.ctx.w}")
        if not self.ctx.parity_holds(self.m):
            raise ParityError(
                f"trace undefined at m={self.m}, n={self.ctx.n}: parity "
                f"(-1)^(m+n+1)chi(-1) = -1"
            )

    @property
    def m_tilde(self) -> int:
        return self.ctx.w - self.m


def trace_closed_form(query: TraceQuery) -> ExactNumber:
    """The trace by direct evaluation of the closed form.

    The double sum and the four Bernoulli numbers are added as integers per
    power of zeta_R (R = ord chi) over one denominator; chi(-N) and chi(-1)
    rotate the exponent.  The field is entered once, at the prefactor.
    """
    ctx, m = query.ctx, query.m
    w, n, nt, mt = ctx.w, ctx.n, ctx.n_tilde, query.m_tilde
    d, level = ctx.modulus, ctx.level
    chi = ctx.chi
    chibar = chi.conjugate()
    order = chi.order
    eps = ctx.epsilons()

    # (binomial, index k, character, scale, exponent of the chi value in front)
    # for binomial * scale * B_{k,psi} / k
    terms = []
    if eps.eps1:
        terms.append((math.comb(nt, mt), nt - mt + 1, chibar, (-1) ** (n + 1) * d**n, 0))
    terms.append((math.comb(n, mt), n - mt + 1, chibar, d**nt, 0))
    if eps.eps2:
        scale = (-1) ** (n + m) * Fraction(level) ** (nt - m) * d**n
        terms.append((math.comb(nt, m), nt - m + 1, chi, scale, chi.value_exponent(-level)))
    if eps.eps3:
        terms.append((math.comb(n, m), n - m + 1, chi, (-1) ** (m + 1) * d**nt, chi.value_exponent(-1)))

    # the vanishing-binomial convention: such a term is 0, B_{k,psi} unread
    terms = [term for term in terms if term[0]]
    weighted = [_weighted_coordinates(k, psi) for _, k, psi, _, _ in terms]
    den, factors = _cleared(
        [[(binomial * scale.numerator, scale.denominator * k * coord_den)]
         for (binomial, k, _, scale, _), (coord_den, _) in zip(terms, weighted)]
    )

    buckets = [b * den for b in _double_sum(ctx, m)]
    for (*_, shift), (_, coords), (factor,) in zip(terms, weighted, factors):
        for j, coeffs in enumerate(coords):
            buckets[(j + shift) % order] += coeffs[0] * factor
    # everything times D / (2 C(w, m)), in the one division
    total = _bucket_sum([b * d for b in buckets], order, den * 2 * math.comb(w, m))
    return _trace_prefactor(chibar, w, level, m + n + 2) * total


@lru_cache(maxsize=_MEMO_SIZE)
def _trace_prefactor(chibar: DirichletCharacter, w: int, level: int, e: int) -> ExactNumber:
    """(2i)^(w+1) (i sqrt N)^e / tau(conj chi) with e = m + n + 2."""
    return _prefactor(chibar, w) * _i_sqrt_level_power(level, e)


@lru_cache(maxsize=_MEMO_SIZE)
def _i_sqrt_level_power(level: int, e: int) -> ExactNumber:
    """(i sqrt N)^e = i^e N^(e // 2) sqrt(N)^(e mod 2); for odd e (m + n odd,
    even characters) this brings in sqrt(N), and only N is factored."""
    root = sqrt_positive_integer(level) if e % 2 else 1
    return ExactNumber.zeta(4, e % 4) * root * level ** (e // 2)


def _double_sum(ctx: PeriodContext, m: int) -> list[int]:
    """2(-1)^(m+1) times the sum over quadruples of the finite
    binomial-weighted power sum, as one integer per conj(chi)(a,c,k,ell)
    value exponent."""
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    mt = w - m
    chibar = ctx.chi.conjugate()
    # (-1)^r C(n, r) C(nt, mt - r) with the four exponents, for the r at
    # which both binomials are nonzero
    weights = [
        ((-1) ** r * math.comb(n, r) * math.comb(nt, mt - r), r, mt - r, n - r, nt - mt + r)
        for r in range(max(0, mt - nt), min(n, mt) + 1)
    ]
    buckets = [0] * chibar.order
    for a, c, k, ell, e in _quadruple_walk(ctx.level, chibar):
        buckets[e] += sum(x * a**i * c**j * ell**s * k**t for x, i, j, s, t in weights)
    return [2 * (-1) ** (m + 1) * b for b in buckets]


def trace_from_periods(query: TraceQuery) -> ExactNumber:
    """The trace as (-D)^(m+1) (i sqrt N)^(m+n+2) r_{m,chi}(R_n); must equal
    trace_closed_form exactly.  The period is the X^(w-m) coefficient of the
    closed-form polynomial over 2(-1)^m C(w, m); that polynomial keeps
    _prefactor(conj chi, w) as its constant factor, and _trace_prefactor is
    that factor times (i sqrt N)^(m+n+2), so the coefficient in Q(zeta_R)
    meets the large level in one product."""
    ctx, m = query.ctx, query.m
    coeff = closed_form_polynomial(ctx).unscaled_coefficient(ctx.w - m)
    scale = Fraction((-ctx.modulus) ** (m + 1), 2 * (-1) ** m * math.comb(ctx.w, m))
    return coeff * scale * _trace_prefactor(ctx.chi.conjugate(), ctx.w, ctx.level, m + ctx.n + 2)
