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

from .bernoulli import generalized_bernoulli_number
from .characters import DirichletCharacter, chi_four_tuple_exponent
from .cyclotomic import _MEMO_SIZE, ExactNumber, _bucket_sum, sqrt_positive_integer
from .periods import (
    ContextError,
    ParityError,
    PeriodContext,
    _prefactor,
    enumerate_quadruples,
    twisted_period,
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


def _bernoulli_term(binomial: int, k: int, chi, scale: Fraction) -> ExactNumber:
    """binomial * scale * B_{k,chi} / k, with the vanishing-binomial convention."""
    if binomial == 0:
        return ExactNumber.zero()
    return generalized_bernoulli_number(k, chi) * (Fraction(binomial) * scale / k)


def trace_closed_form(query: TraceQuery) -> ExactNumber:
    """The trace by direct evaluation of the closed form."""
    ctx, m = query.ctx, query.m
    w, n, nt, mt = ctx.w, ctx.n, ctx.n_tilde, query.m_tilde
    d, level = ctx.modulus, ctx.level
    chi = ctx.chi
    chibar = chi.conjugate()
    eps = ctx.epsilons()

    total = ExactNumber.zero()

    if eps.eps1:
        total = total + _bernoulli_term(
            math.comb(nt, mt) if mt <= nt else 0,
            nt - mt + 1,
            chibar,
            Fraction((-1) ** (n + 1) * d**n),
        )

    total = total + _bernoulli_term(
        math.comb(n, mt) if mt <= n else 0,
        n - mt + 1,
        chibar,
        Fraction(d**nt),
    )

    if eps.eps2:
        binom = math.comb(nt, m) if m <= nt else 0
        if binom:
            term = _bernoulli_term(
                binom,
                nt - m + 1,
                chi,
                Fraction((-1) ** (n + m) * level ** (nt - m) * d**n),
            )
            total = total + term * chi.value(-level)

    if eps.eps3:
        binom = math.comb(n, m) if m <= n else 0
        if binom:
            term = _bernoulli_term(
                binom,
                n - m + 1,
                chi,
                Fraction((-1) ** (m + 1) * d**nt),
            )
            total = total + term * chi.value(-1)

    total = total + _double_sum(ctx, m)

    prefactor = _trace_prefactor(chibar, w, level, m + n + 2) * Fraction(d, 2 * math.comb(w, m))
    return prefactor * total


@lru_cache(maxsize=_MEMO_SIZE)
def _trace_prefactor(chibar: DirichletCharacter, w: int, level: int, e: int) -> ExactNumber:
    """(2i)^(w+1) i^e sqrt(N^e) / tau(conj chi) with e = m + n + 2."""
    # the level enters through (i sqrt N)^(m+n+2), i.e. as N^((m+n+2)/2);
    # for odd m+n (even characters) this brings in sqrt(N)
    return _prefactor(chibar, w) * ExactNumber.zeta(4, e % 4) * sqrt_positive_integer(level**e)


def _double_sum(ctx: PeriodContext, m: int) -> ExactNumber:
    """2(-1)^(m+1) sum over quadruples of conj(chi)(a,c,k,ell) times the
    finite binomial-weighted power sum."""
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    d = ctx.modulus
    mt = w - m
    chibar = ctx.chi.conjugate()
    buckets = [0] * chibar.order
    for a, c, k, ell in enumerate_quadruples(ctx.level, d):
        e = chi_four_tuple_exponent(chibar, a, c, k, ell)
        if e is None:
            continue
        acc = 0
        for r in range(0, mt + 1):
            if r > n or mt - r > nt:
                continue
            acc += (
                (-1) ** r
                * math.comb(n, r)
                * math.comb(nt, mt - r)
                * a**r
                * c ** (mt - r)
                * ell ** (n - r)
                * k ** (nt - mt + r)
            )
        buckets[e] += acc
    return _bucket_sum(buckets, chibar.order) * (2 * (-1) ** (m + 1))


def trace_from_periods(query: TraceQuery) -> ExactNumber:
    """The trace as (-D)^(m+1) (i sqrt N)^(m+n+2) r_{m,chi}(R_n); must equal
    trace_closed_form exactly."""
    ctx, m = query.ctx, query.m
    n, level, d = ctx.n, ctx.level, ctx.modulus
    e = m + n + 2
    # (i sqrt N)^e = i^e * N^(e//2) * (sqrt N if e odd)
    factor = ExactNumber.zeta(4, e % 4) * Fraction(level ** (e // 2))
    if e % 2:
        factor = factor * sqrt_positive_integer(level)
    return twisted_period(ctx, m) * factor * Fraction((-d) ** (m + 1))
