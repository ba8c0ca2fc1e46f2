"""Exact trace of twisted-times-untwisted completed L-values.

For an orthogonal basis f_1,...,f_s of the weight-(w+2) cusp forms on
Gamma_0(N), the sum over i of

    Lambda(f_i, chi, m+1) * conj(Lambda(f_i, n+1)) / <f_i, f_i>

has a closed form, evaluated here in exact cyclotomic arithmetic
(``trace_closed_form``), for every admissible m of a context in one
memoized pass (``_closed_form_traces``) that reads its four Bernoulli terms
as coefficients of the weighted polynomials the period closed form builds
and self-checks, and its double sum from the symmetrized quadruple sum
the period closed form reads (G_n at X -> -X/D), which the case-sum oracle
checks.  The same number also equals
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
does every term whose weighted-Bernoulli index would be negative.  Read as
the coefficient [x^i] B_{K,psi}(x) / K, such a term is the one at i = K,
which is B_{0,psi} / K = 0 for the nontrivial psi of a primitive chi, or one
past the degree, so the closed form is total on the parity domain.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from .bernoulli import _weighted_coordinates
from .characters import DirichletCharacter, _gauss_counts
from .cyclotomic import (
    _MEMO_SIZE,
    ExactNumber,
    _ClassSums,
    _Frozen,
    _monomial_product,
    _monomials,
    _Monomials,
    _TimesConstant,
    sqrt_positive_integer,
)
from .periods import PeriodContext, _admit, _quadruple_buckets, closed_form_polynomial


class TraceQuery(_Frozen):
    """A (context, m) pair satisfying the parity hypothesis."""

    __slots__ = _fields = ("ctx", "m")

    def __init__(self, ctx: PeriodContext, m: int):
        _admit(ctx, m)
        super().__init__(ctx, m)


def trace_closed_form(query: TraceQuery) -> ExactNumber:
    """The trace by direct evaluation of the closed form: the class sums of
    _closed_form_traces at m, read once per context for every admissible
    m, times the integer of this m's trace constant, with the constant's
    monomials kept apart.  Nothing is reduced mod Phi_R until the trace is
    compared, tested for zero or expanded."""
    ctx, m = query.ctx, query.m
    scale, constant = _trace_constant(ctx, m)
    order, den, nums = _closed_form_traces(ctx)[m]
    return _TimesConstant((order, den, [x * scale for x in nums]), constant)


@lru_cache(maxsize=_MEMO_SIZE)
def _closed_form_traces(ctx: PeriodContext) -> tuple[Optional[_ClassSums], ...]:
    """For each m in 0..w, the closed-form trace at m before its constant,
    as unreduced class sums (order R = ord chi, one denominator, one integer
    per power of zeta_R); None where the parity refuses m.  One pass per
    context, over one context denominator.

    The double sum and the four Bernoulli terms are added as integers per
    power of zeta_R: chi(-N) and chi(-1) rotate the exponent of a Bernoulli
    term, and twice the double sum is a column of the symmetrized quadruple
    sum the period closed form reads (periods._quadruple_buckets), so the
    class sums equal trace_from_periods' entry by entry.  Each term
    C(K - 1, i) / (K - i) * B_{K-i,psi}, with K = n + 1 or nt + 1 and i = mt
    or m, is the coefficient [x^i] B_{K,psi}(x) / K (at i = K both are 0,
    since B_{0,psi} = 0, and past K both vanish): the four weighted
    polynomials of closed_form_polynomial, under the same epsilon gates,
    read from bernoulli._weighted_coordinates, where both defining
    expressions were checked against each other.  The conj(chi) terms read
    x^mt, the chi terms x^m times alpha^m, alpha = -1/N for eps2 and -1 for
    eps3, so N^m stands below the line.  The double sum,
    sum_r (-1)^r C(n, r) C(w-n, w-m-r) a^r c^(w-m-r) ell^(n-r) k^(m-n+r)
    over the quadruples of each conj(chi) class, is the X^(w-m) coefficient
    of sum (ell - aX)^n (k + cX)^(w-n): G_n at X -> -X/D, which closed
    form == case sum checks.  Everything is times D / (2 C(w, m)); the
    constant is left to the query, so a request for one m builds only its
    own."""
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    d, level = ctx.modulus, ctx.level
    chi = ctx.chi
    chibar = chi.conjugate()
    order = chi.order
    eps = ctx.epsilons()
    ms = [m for m in range(w + 1) if ctx.parity_holds(m)]

    # (character, index K, scalar as an integer pair (num, den), exponent of
    # the chi value in front, alpha as an integer pair or None):
    # scalar * [x^mt] B_{K,psi}(x), or scalar * alpha^m * [x^m] B_{K,psi}(x)
    terms = []
    if eps.eps1:
        terms.append((chibar, nt + 1, ((-1) ** (n + 1) * d**n, nt + 1), 0, None))
    terms.append((chibar, n + 1, (d**nt, n + 1), 0, None))
    if eps.eps2:
        scalar = ((-1) ** n * level**nt * d**n, nt + 1)
        terms.append((chi, nt + 1, scalar, chi.value_exponent(-level), (-1, level)))
    if eps.eps3:
        terms.append((chi, n + 1, (-(d**nt), n + 1), chi.value_exponent(-1), (-1, 1)))

    weighted = [_weighted_coordinates(k, psi) for psi, k, *_ in terms]
    # the coordinates' own denominator times the scalar's, and alpha^m's at
    # the largest m, divide the context denominator
    top = ms[-1]
    den = math.lcm(*(below * coord_den * (alpha[1] ** top if alpha else 1)
                     for (_, _, (_, below), _, alpha), (coord_den, _) in zip(terms, weighted)))
    sums = _quadruple_buckets(ctx)
    out: list[Optional[_ClassSums]] = [None] * (w + 1)
    for m in ms:
        mt = w - m
        # twice the X^mt coefficient of G~_n(-X), (-1)^mt times G~_n's, is
        # column mt of the symmetrized sum, since (-1)^(n-1+mt) = chi(-1)
        # at an admissible m
        sign = (-1) ** (m + 1) * (-1) ** mt * den
        buckets = [sign * coeffs[mt] if coeffs else 0 for coeffs in sums]
        for (_, _, (num, below), shift, alpha), (coord_den, coords) in zip(terms, weighted):
            if alpha:
                i, factor = m, den // (below * coord_den * alpha[1] ** m) * num * alpha[0] ** m
            else:
                i, factor = mt, den // (below * coord_den) * num
            for j, coeffs in enumerate(coords):
                if i < len(coeffs):
                    buckets[(j + shift) % order] += coeffs[i] * factor
        # everything times D / (2 C(w, m))
        out[m] = (order, den * 2 * math.comb(w, m), tuple(b * d for b in buckets))
    return tuple(out)


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
