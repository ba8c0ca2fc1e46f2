"""Exact trace of twisted-times-untwisted completed L-values.

For an orthogonal basis f_1,...,f_s of the weight-(w+2) cusp forms on
Gamma_0(N), the sum over i of

    Lambda(f_i, chi, m+1) * conj(Lambda(f_i, n+1)) / <f_i, f_i>

has a closed form, evaluated here in exact cyclotomic arithmetic
(``trace_closed_form``).  The same number also equals
(-D)^(m+1) (i sqrt N)^(m+n+2) r_{m,chi}(R_n), which ``trace_from_periods``
computes through the period-polynomial route; the two must agree exactly.

Both routes end on the same constant (2i)^(w+1) (i sqrt N)^(m+n+2) / tau(conj chi).
By tau(chi) tau(conj chi) = chi(-1) D it is a rational times
i^k tau(chi) sqrt(N)^(0 or 1): the phi(D) roots of unity of tau(chi), times
the few coordinates of sqrt N, kept as monomials (``_trace_monomials``).
Each route multiplies them into its Q(zeta_R) number in one fold: no
inverse, no dense product at the constant's level.

Degenerate indices are handled by the convention that a term with a
vanishing binomial factor is exactly 0: whenever one of the four
Bernoulli-term denominators would vanish, its binomial factor vanishes
first (e.g. nt - mt + 1 = 0 forces C(nt, mt) = C(nt, nt+1) = 0), and so
does every term whose weighted-Bernoulli index would be negative, so the
closed form is total on the parity domain and reads B_{k,psi} at k >= 1 only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .bernoulli import _weighted_number_direct
from .characters import DirichletCharacter, _gauss_counts
from .cyclotomic import (
    _MEMO_SIZE,
    ExactNumber,
    _cleared,
    _fold,
    _monomial_product,
    _monomials,
    _signed_digits,
    sqrt_positive_integer,
)
from .periods import PeriodContext, _admit, _quadruple_walk, closed_form_polynomial


class TraceQuery:
    """A (context, m) pair satisfying the parity hypothesis."""

    __slots__ = ("ctx", "m")

    def __init__(self, ctx: PeriodContext, m: int):
        _admit(ctx, m)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("TraceQuery is immutable")

    def __eq__(self, other):
        if not isinstance(other, TraceQuery):
            return NotImplemented
        return (self.ctx, self.m) == (other.ctx, other.m)

    def __hash__(self):
        return hash((self.ctx, self.m))

    def __repr__(self):
        return f"TraceQuery(ctx={self.ctx!r}, m={self.m!r})"

    @property
    def m_tilde(self) -> int:
        return self.ctx.w - self.m


def trace_closed_form(query: TraceQuery) -> ExactNumber:
    """The trace by direct evaluation of the closed form.

    The double sum and the four Bernoulli numbers are added as integers per
    power of zeta_R (R = ord chi) over one denominator; chi(-N) and chi(-1)
    rotate the exponent.  Each B_{k,psi} is the weighted number itself, the
    (den, coords) of bernoulli._weighted_number_direct, not the constant term
    of a whole polynomial: at x^0 both defining expressions of the polynomial
    reduce to that number, so their self-check would compare the number with
    itself.  The buckets are reduced mod Phi_R in integers and meet the trace
    constant's monomials directly: the field is entered once, at the
    constant's level, with one division.
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
    numbers = [_weighted_number_direct(k, psi) for _, k, psi, _, _ in terms]
    den, factors = _cleared(
        [[(binomial * scale.numerator, scale.denominator * k * number_den)]
         for (binomial, k, _, scale, _), (number_den, _) in zip(terms, numbers)]
    )

    buckets = [b * den for b in _double_sum(ctx, m)]
    for (*_, shift), (_, coords), (factor,) in zip(terms, numbers, factors):
        for j, c in enumerate(coords):
            buckets[(j + shift) % order] += c * factor
    # everything times D / (2 C(w, m)), in the one division
    return _times_trace_constant(ctx, m, enumerate(_fold(buckets, order)), order, d, den * 2 * math.comb(w, m))


def _times_trace_constant(
    ctx: PeriodContext, m: int, terms: Iterable[tuple[int, int]], order: int, num: int, den: int
) -> ExactNumber:
    """num/den * sum_(j, x) x * zeta_order**j times the trace constant
    (2i)^(w+1) (i sqrt N)^e / tau(conj chi), e = m + n + 2: the rational
    2^(w+1) N^(e // 2) joins the one division, the rest are the monomials
    of _trace_monomials."""
    w, level = ctx.w, ctx.level
    e = m + ctx.n + 2
    top, monomials, constant_den = _trace_monomials(ctx.chi, level, (w + 1 + e) % 4, e % 2)
    return _monomial_product(terms, order, num * 2 ** (w + 1) * level ** (e // 2), den * constant_den, monomials, top)


@lru_cache(maxsize=_MEMO_SIZE)
def _trace_monomials(
    chi: DirichletCharacter, level: int, quarter: int, odd: int
) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """i^quarter chi(-1) tau(chi) sqrt(N)^odd / D as integer monomials over
    one denominator, (L, ((t, c), ...), den), at L = lcm(4, ord chi, D), or
    lcm(4, ord chi, D, 4f) when sqrt(N) with squarefree part f > 1 enters.
    Since tau(chi) tau(conj chi) = chi(-1) D for primitive chi,
    1 / tau(conj chi) = chi(-1) tau(chi) / D: the trace constant needs no
    inverse, and tau(chi) is its phi(D) monomials, never reduced.  Only N is
    factored."""
    tau_level, counts = _gauss_counts(chi)
    root = sqrt_positive_integer(level) if odd else ExactNumber.one()
    root_den, root_terms = _monomials(root)
    top = math.lcm(4, tau_level, root.level)
    tau_step, root_step = top // tau_level, top // root.level
    rotation = quarter * (top // 4)
    sign = chi.sign_at_minus_one()
    out = [0] * top
    for t, count in enumerate(counts):
        if count:
            for j, r in root_terms:
                out[(t * tau_step + j * root_step + rotation) % top] += sign * count * r
    return top, tuple((t, c) for t, c in enumerate(out) if c), chi.modulus * root_den


def _double_sum(ctx: PeriodContext, m: int) -> list[int]:
    """2(-1)^(m+1) times the sum over quadruples of the finite
    binomial-weighted power sum, as one integer per conj(chi)(a,c,k,ell)
    value exponent: the X^(w-m) coefficient of that class's polynomial in
    _double_sum_polynomials."""
    sign = 2 * (-1) ** (m + 1)
    return [sign * coeffs[ctx.w - m] for coeffs in _double_sum_polynomials(ctx)]


@lru_cache(maxsize=_MEMO_SIZE)
def _double_sum_polynomials(ctx: PeriodContext) -> tuple[tuple[int, ...], ...]:
    """For each conj(chi) value exponent, the ascending coefficients of the
    sum over its quadruples of (ell - aX)^n (k + cX)^(w-n), whose X^(w-m)
    coefficient is the double sum's r-sum at m:
    sum_r (-1)^r C(n, r) C(w-n, w-m-r) a^r c^(w-m-r) ell^(n-r) k^(m-n+r).
    Each term is evaluated at X = 2**(8 * width) (Kronecker substitution),
    so a class adds one big integer per quadruple and is unpacked into its
    w + 1 signed coefficients once, for every m.  Since a, c, k, ell < D,
    the absolute coefficients of a term sum to (ell + a)^n (k + c)^(w-n) <
    (2D)^w, so a class's coefficients lie below (number of quadruples) *
    (2D)^w; the width keeps that below half the base, and no digit carries
    into the next."""
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    walk = _quadruple_walk(ctx.level, ctx.chi.conjugate())
    width = (len(walk) * (2 * ctx.modulus) ** w).bit_length() // 8 + 1
    x = 1 << (8 * width)
    sums = [0] * ctx.chi.order
    for a, c, k, ell, e in walk:
        sums[e] += (ell - a * x) ** n * (k + c * x) ** nt
    return tuple(tuple(_signed_digits(total, width, w + 1)) for total in sums)


def trace_from_periods(query: TraceQuery) -> ExactNumber:
    """The trace as (-D)^(m+1) (i sqrt N)^(m+n+2) r_{m,chi}(R_n); must equal
    trace_closed_form exactly.  The period is the X^(w-m) coefficient of the
    closed-form polynomial over 2(-1)^m C(w, m).  That polynomial keeps
    (2i)^(w+1) / tau(conj chi) apart as its constant factor (periods._prefactor,
    which still inverts the Gauss sum), so the coefficient is read in
    Q(zeta_R) before it, and the trace constant, tau(chi) monomials with the
    rational scale in their one division, is multiplied in as in
    trace_closed_form."""
    ctx, m = query.ctx, query.m
    coeff = closed_form_polynomial(ctx).unscaled_coefficient(ctx.w - m)
    coeff_den, terms = _monomials(coeff)
    # (-D)^(m+1) / (2 (-1)^m C(w, m)) = -D^(m+1) / (2 C(w, m))
    num, den = -(ctx.modulus ** (m + 1)), coeff_den * 2 * math.comb(ctx.w, m)
    return _times_trace_constant(ctx, m, terms, coeff.level, num, den)
