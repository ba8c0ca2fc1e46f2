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
Each route returns its number in Q(zeta_R), with the integer
2^(w+1) N^((m+n+2) // 2) folded in and those monomials kept apart, in the
form a period polynomial keeps each coefficient in
(``cyclotomic._TimesConstant``): the unreduced sums of its exponent
classes, one integer per power of zeta_R over one denominator.  The two
routes compare in Q(zeta_R), since the constant is nonzero, by their
cross-multiplied difference: with no fold when it is zero entry by entry,
in one fold otherwise, so a pair that is equal builds no number.  A value
is reduced mod Phi_R only when it is tested for zero or expanded, and
expanded to the constant's level, in one fold, only when its coordinates
are read.

Degenerate indices are handled by the convention that a term with a
vanishing binomial factor is exactly 0: whenever one of the four
Bernoulli-term denominators would vanish, its binomial factor vanishes
first (e.g. nt - mt + 1 = 0 forces C(nt, mt) = C(nt, nt+1) = 0), and so
does every term whose weighted-Bernoulli index would be negative, so the
closed form is total on the parity domain and reads B_{k,psi} at k >= 1 only.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .bernoulli import _weighted_number_direct
from .characters import DirichletCharacter, _gauss_counts
from .cyclotomic import (
    _MEMO_SIZE,
    ExactNumber,
    _cleared,
    _Frozen,
    _monomial_product,
    _monomials,
    _Monomials,
    _signed_digits,
    _TimesConstant,
    sqrt_positive_integer,
)
from .periods import PeriodContext, _admit, _quadruple_walk, closed_form_polynomial


class TraceQuery(_Frozen):
    """A (context, m) pair satisfying the parity hypothesis."""

    __slots__ = _fields = ("ctx", "m")

    def __init__(self, ctx: PeriodContext, m: int):
        _admit(ctx, m)
        super().__init__(ctx, m)

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
    itself.  The scales are integer pairs, so no Fraction is built.  The
    buckets are handed over unreduced, as the class sums of a
    cyclotomic._TimesConstant over one denominator, and the trace
    constant's monomials are kept apart: nothing is reduced mod Phi_R until
    the trace is compared, tested for zero or expanded.
    """
    ctx, m = query.ctx, query.m
    w, n, nt, mt = ctx.w, ctx.n, ctx.n_tilde, query.m_tilde
    d, level = ctx.modulus, ctx.level
    chi = ctx.chi
    chibar = chi.conjugate()
    order = chi.order
    eps = ctx.epsilons()

    # (binomial, index k, character, scale as an integer pair (num, den),
    # exponent of the chi value in front) for binomial * num/den * B_{k,psi} / k
    terms = []
    if eps.eps1:
        terms.append((math.comb(nt, mt), nt - mt + 1, chibar, ((-1) ** (n + 1) * d**n, 1), 0))
    terms.append((math.comb(n, mt), n - mt + 1, chibar, (d**nt, 1), 0))
    if eps.eps2:
        # level^(nt - m), above or below the line
        power = level ** abs(nt - m)
        num, below = (power, 1) if nt >= m else (1, power)
        scale = ((-1) ** (n + m) * num * d**n, below)
        terms.append((math.comb(nt, m), nt - m + 1, chi, scale, chi.value_exponent(-level)))
    if eps.eps3:
        terms.append((math.comb(n, m), n - m + 1, chi, ((-1) ** (m + 1) * d**nt, 1), chi.value_exponent(-1)))

    # the vanishing-binomial convention: such a term is 0, B_{k,psi} unread
    terms = [term for term in terms if term[0]]
    numbers = [_weighted_number_direct(k, psi) for _, k, psi, _, _ in terms]
    den, factors = _cleared(
        [[(binomial * num, below * k * number_den)]
         for (binomial, k, _, (num, below), _), (number_den, _) in zip(terms, numbers)]
    )

    buckets = [b * den for b in _double_sum(ctx, m)]
    for (*_, shift), (_, coords), (factor,) in zip(terms, numbers, factors):
        for j, c in enumerate(coords):
            buckets[(j + shift) % order] += c * factor
    # everything times D / (2 C(w, m)) and the constant's integer, unreduced
    scale, constant = _trace_constant(ctx, m)
    return _TimesConstant((order, den * 2 * math.comb(w, m), [b * d * scale for b in buckets]), constant)


def _trace_constant(ctx: PeriodContext, m: int) -> tuple[int, _Monomials]:
    """The trace constant (2i)^(w+1) (i sqrt N)^e / tau(conj chi),
    e = m + n + 2, as the integer 2^(w+1) N^(e // 2), which a route folds
    into its number, times the monomials of _trace_monomials, which it
    keeps apart."""
    e = m + ctx.n + 2
    monomials = _trace_monomials(ctx.chi, ctx.level, (ctx.w + 1 + e) % 4, e % 2)
    return 2 ** (ctx.w + 1) * ctx.level ** (e // 2), monomials


@lru_cache(maxsize=_MEMO_SIZE)
def _trace_monomials(chi: DirichletCharacter, level: int, quarter: int, odd: int) -> _Monomials:
    """i^quarter chi(-1) tau(chi) sqrt(N)^odd / D as integer monomials over
    one denominator, (L, ((t, c), ...), den), the form of the constant a
    cyclotomic._TimesConstant keeps apart, at L = lcm(4, ord chi, D), or
    lcm(4, ord chi, D, 4f) when sqrt(N) with squarefree part f > 1 enters.
    Since tau(chi) tau(conj chi) = chi(-1) D for primitive chi,
    1 / tau(conj chi) = chi(-1) tau(chi) / D: the trace constant needs no
    inverse, and tau(chi) is its phi(D) monomials, never reduced: the
    constant is the cyclotomic._monomial_product of the quarter turn with
    chi(-1), those monomials over D, and sqrt(N)^odd.  Only N is factored."""
    tau_level, counts = _gauss_counts(chi)
    tau = (tau_level, tuple((t, count) for t, count in enumerate(counts) if count), chi.modulus)
    turn = (4, ((quarter, chi.sign_at_minus_one()),), 1)
    root = sqrt_positive_integer(level) if odd else ExactNumber.one()
    return _monomial_product(_monomial_product(turn, tau), _monomials(root))


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
    closed-form polynomial over 2(-1)^m C(w, m).  Each coefficient of that
    polynomial is exponent-class sums in Q(zeta_R) times (2i)^(w+1) /
    tau(conj chi), kept apart as monomials (periods._prefactor), so this
    one is read before that constant, already times its rational, as its
    unreduced class sums (ExactPolynomial.class_sums), and the trace
    constant's tau(chi) monomials are kept apart as in trace_closed_form:
    the two routes meet in Q(zeta_R), where == decides their
    cross-multiplied difference with at most one fold."""
    ctx, m = query.ctx, query.m
    scale, constant = _trace_constant(ctx, m)
    # (-D)^(m+1) / (2 (-1)^m C(w, m)) = -D^(m+1) / (2 C(w, m))
    sums = closed_form_polynomial(ctx).class_sums(ctx.w - m, -(ctx.modulus ** (m + 1)) * scale, 2 * math.comb(ctx.w, m))
    return _TimesConstant(sums, constant)
