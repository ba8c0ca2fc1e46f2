"""Symmetrized twisted period polynomials of the period-kernel cusp forms.

Two independent routes are implemented for the polynomial

    P_n(X) = r_chi(R_n)(X) + (-1)^(n-1) chi(-1) r_chi(R_n)(-X):

* ``closed_form_polynomial`` evaluates the closed form directly: a
  (2i)^(w+1)/tau(conj chi) prefactor, four epsilon-gated weighted-Bernoulli
  terms, and the finite quadruple sum G_n(X) + (-1)^(n-1)chi(-1)G_n(-X).

* ``case_sum_polynomial`` assembles the same polynomial from the
  per-residue case contributions (cosets of Gamma_0(N) split by the signs
  of a, c and the translated row entries), weighted by conj(chi)(h)/tau:
  cases 1-5, since case 6's total over the classes is zero; a single
  residue's sum (``residue_case_sum``) keeps all six.

The two must agree exactly on every valid context; that equality is the
module's central oracle.  Both keep the common prefactor apart, as the
polynomial's constant in the monomials a trace keeps its own in, and since
it is nonzero and shared, the equality is decided in Q(zeta_R), R = ord
chi.  That constant is a product of monomials: the one of (2i)^(w+1) and
those of 1/tau(conj chi), taken term by term, so nothing is reduced at its
level lcm(4, R, D).  Individual twisted periods are recovered from
polynomial coefficients when the parity (-1)^(m+n+1)chi(-1) = 1 admits
them.

Both routes expand quadruple terms, each with its own walk and its own
terms, by packed sums: a term (aX + ell)^n (k - cX)^(w-n), with no factor
D, is one big integer at X = 2**(8 * width) (Kronecker substitution), a
class adds its terms, and ``cyclotomic._signed_digits`` unpacks each class
sum into its w + 1 coefficients once, at a width sized from a bound the
route states; a class that no term reached is not unpacked.  Coefficient
i then stands over D^(w-i).  Each walk is memoized, so the quadruples are
enumerated once for every n: per (N, conj chi) with the character
exponents for the closed form (``_quadruple_walk``), per (N, D) with the
Bezout residues for the oracle (``_case_walk``).  The closed form's
symmetrized quadruple sum is memoized per context (``_quadruple_buckets``),
and the trace's double sum is one of its columns.  The constants of a
context (term scalars, ratios, alpha, the case-6 values) are integer pairs
(num, den), cleared over one context denominator with no Fraction built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .bernoulli import _bernoulli_row, _weighted_coordinates, bernoulli_number
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
    _bucket_poly,
    _Frozen,
    _half_digits,
    _monomial_product,
    _monomials,
    _Monomials,
    _signed_digits,
    factorize,
)


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


class PeriodContext(_Frozen):
    """Parameters (N, w, n, chi) of one twisted period polynomial.

    Immutable; its hash is computed once, since it keys the memos."""

    __slots__ = ("level", "w", "n", "chi", "_hash")
    _fields = ("level", "w", "n", "chi")

    def __init__(self, level: int, w: int, n: int, chi: DirichletCharacter):
        if level < 1:
            raise ContextError("level must be positive")
        if w < 2 or w % 2:
            raise ContextError("w must be a positive even integer")
        if not 0 < n < w:
            raise ContextError(f"n must satisfy 0 < n < w, got n={n}, w={w}")
        _require_primitive(chi)
        super().__init__(level, w, n, chi)

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


def _require_primitive(chi: DirichletCharacter) -> None:
    """The one refusal of an imprimitive character, for a period context and
    the numeric twisted L-value alike: both identities need a primitive chi."""
    if not chi.is_primitive:
        raise ContextError(f"character must be primitive (conductor {chi.conductor} != modulus {chi.modulus})")


def _admit(ctx: PeriodContext, m: int) -> None:
    """The one gate on m for a period and a trace: m in 0..w, at the parity
    (-1)^(m+n+1)chi(-1) = 1 that symmetrization keeps and the trace pairs."""
    if not 0 <= m <= ctx.w:
        raise ContextError(f"m must lie in 0..{ctx.w}")
    if not ctx.parity_holds(m):
        raise ParityError(f"m={m} inadmissible at n={ctx.n}: parity (-1)^(m+n+1)chi(-1) = -1")


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


@lru_cache(maxsize=_MEMO_SIZE)
def _quadruple_walk(level: int, chibar: DirichletCharacter) -> tuple[tuple[int, int, int, int, int], ...]:
    """The quadruples (a, c, k, ell) of (N, D) on which conj(chi)(a,c,k,ell)
    is nonzero, each with that value's exponent: the closed form's walk, read
    by _quadruple_buckets at every n."""
    walk = []
    for a, c, k, ell in enumerate_quadruples(level, chibar.modulus):
        e = chi_four_tuple_exponent(chibar, a, c, k, ell)
        if e is not None:
            walk.append((a, c, k, ell, e))
    return tuple(walk)


@lru_cache(maxsize=_MEMO_SIZE)
def _quadruple_buckets(ctx: PeriodContext) -> tuple[tuple[int, ...], ...]:
    """The symmetrized quadruple sum G_n(X) + (-1)^(n-1) chi(-1) G_n(-X) in
    integers, by conj(chi) value exponent: the one place its chi(-1) mirror
    is written, read by both closed forms (closed_form_polynomial, and
    traces._closed_form_traces, whose double sum is one of its columns).

    G~_n, the sum over the quadruples of each exponent class of
    (aX + ell)^n (k - cX)^(w-n), has no factor D: D^w times G_n's
    coefficient i is D^i times G~_n's.  chi(-1) = zeta_R^turn is a rotation,
    as case 5 sends a mirrored term to the class of -h, so class e,
    coefficient i is G~_n's class e plus (-1)^(n-1+i) times its class
    e - turn, and the class sums agree with the case sum's entry by entry.
    A class that neither reached stays empty.

    Each term is evaluated at X = 2**(8 * width) (Kronecker substitution),
    so a class of G~_n adds one big integer per quadruple and is unpacked
    into its w + 1 signed coefficients once; a class that no quadruple
    reached is not unpacked.  Since a, c, k, ell < D, the absolute
    coefficients of a term sum to (a + ell)^n (c + k)^(w-n) < (2D)^w, so a
    class's coefficients lie below (number of quadruples) * (2D)^w; the
    width keeps that below half the base, and no digit carries into the
    next."""
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    order = ctx.chi.order
    walk = _quadruple_walk(ctx.level, ctx.chi.conjugate())
    width = (len(walk) * (2 * ctx.modulus) ** w).bit_length() // 8 + 1
    x = 1 << (8 * width)
    sums = [0] * order
    for a, c, k, ell, e in walk:
        sums[e] += (a * x + ell) ** n * (k - c * x) ** nt
    classes = [tuple(_signed_digits(total, width, w + 1)) if total else () for total in sums]
    turn, nothing = ctx.chi.value_exponent(-1), (0,) * (w + 1)
    mirrors = [classes[(e - turn) % order] for e in range(order)]
    signs = [(-1) ** (n - 1 + i) for i in range(w + 1)]
    return tuple(
        tuple(a + s * b for a, b, s in zip(own or nothing, mirrored or nothing, signs)) if own or mirrored else ()
        for own, mirrored in zip(classes, mirrors)
    )


# ---------------------------------------------------------------------------
# closed form


@lru_cache(maxsize=_MEMO_SIZE)
def _prefactor(chibar: DirichletCharacter, w: int) -> _Monomials:
    """(2i)^(w+1) / tau(conj chi) as monomials: the constant both routes
    keep apart, computed once per character and weight.  (2i)^(w+1) is the
    one monomial 2^(w+1) zeta_4^(w+1), and the product with the inverse's
    monomials at lcm(R, D) is taken term by term at lcm(4, R, D), with no
    fold and no ExactNumber product there."""
    two_i = (4, (((w + 1) % 4, 2 ** (w + 1)),), 1)
    return _monomial_product(two_i, _monomials(gauss_sum(chibar).inverse()))


@lru_cache(maxsize=_MEMO_SIZE)
def closed_form_polynomial(ctx: PeriodContext) -> ExactPolynomial:
    """P_n(X) by the closed form (production path).

    Everything is added as integers per power of zeta_R (R = ord chi) over
    one context denominator and divided once per bucket coefficient: chi(-N)
    and chi(-1) rotate the exponent of a Bernoulli term's unreduced class
    sums, and the symmetrized quadruple sum is read, already rotated, from
    _quadruple_buckets.  So the route's class sums agree with the case
    sum's entry by entry, and == folds no coefficient.  The prefactor stays
    the polynomial's constant, so the coefficients live in Q(zeta_R) until
    they are read.
    """
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    d, level = ctx.modulus, ctx.level
    chi = ctx.chi
    chibar = chi.conjugate()
    order = chi.order
    eps = ctx.epsilons()

    # (character, index k, scalar, exponent of the chi value in front, alpha,
    # reversed), scalar and alpha as integer pairs (num, den):
    # scalar * B_{k,psi}(alpha*X), or scalar * X^w * B_{k,psi}(alpha/X)
    terms = []
    if eps.eps1:
        terms.append((chibar, nt + 1, (1, (-d) ** nt * (nt + 1)), 0, (d, 1), False))
    terms.append((chibar, n + 1, (-1, d**n * (n + 1)), 0, (d, 1), False))
    if eps.eps2:
        scalar = ((-1) ** (n - 1) * level**nt * d**n, nt + 1)
        terms.append((chi, nt + 1, scalar, chi.value_exponent(-level), (-1, d * level), True))
    if eps.eps3:
        terms.append((chi, n + 1, (d**nt, n + 1), chi.value_exponent(-1), (-1, d), True))

    # the class sums of B_{k,psi} are integers over their own denominator;
    # one context denominator clears those, the scalars, alpha^i and G_n's
    # D^w.  below * alpha_den^i * coord_den divides its entry at i = k, so
    # the denominator is the lcm of D^w and those, and multiplier i is
    # num * alpha_num^i * alpha_den^(k-i) times den over the entry at k
    weighted = [_weighted_coordinates(k, psi) for psi, k, *_ in terms]
    tops = [below * alpha_den**k * coord_den
            for (_, k, (_, below), _, (_, alpha_den), _), (coord_den, _) in zip(terms, weighted)]
    den = math.lcm(d**w, *tops)
    factors = []
    for (_, k, (num, _), _, (alpha_num, alpha_den), _), top in zip(terms, tops):
        downs = [den // top * num]
        for _ in range(k):
            downs.append(downs[-1] * alpha_den)
        multipliers, up = [], 1
        for down in reversed(downs):
            multipliers.append(down * up)
            up *= alpha_num
        factors.append(multipliers)

    # the symmetrized G_n's coefficient i is G~_n's over D^(w-i), so it is
    # times den // D^(w-i); a class no quadruple reached adds nothing
    scales = [den // d ** (w - i) for i in range(w + 1)]
    buckets = [[x * s for x, s in zip(coeffs, scales)] if coeffs else [0] * (w + 1)
               for coeffs in _quadruple_buckets(ctx)]

    # term k adds coefficient i to X^i, or, reversed, to X^(w-i)
    for (_, k, _, shift, _, reverse), (_, sums), multipliers in zip(terms, weighted, factors):
        for j, coeffs in enumerate(sums):
            bucket = buckets[(j + shift) % order]
            if reverse:
                bucket[w - k :] = [a + c * m for a, c, m in zip(bucket[w - k :], coeffs[::-1], multipliers[::-1])]
            else:
                bucket[: k + 1] = [a + c * m for a, c, m in zip(bucket, coeffs, multipliers)]

    return _bucket_poly(buckets, order, den, _prefactor(chibar, w))


# ---------------------------------------------------------------------------
# the six case contributions (per residue h)


def _prime_ratio_product(level: int, s: int, w: int) -> tuple[int, int]:
    """prod_p (1 - p^-s) / (1 - p^-(w+2)) over the primes p | N, as the
    integer pair prod_p (p^s - 1) p^(w+2-s) over prod_p (p^(w+2) - 1)."""
    num = den = 1
    for p in factorize(level):
        num *= (p**s - 1) * p ** (w + 2 - s)
        den *= p ** (w + 2) - 1
    return num, den


def _case_specs(ctx: PeriodContext) -> dict[int, tuple[int, tuple[int, int], tuple[int, int], int, bool]]:
    """Cases 1-4 that the context admits (1 needs N=1, 3 needs gcd(N,D)=1,
    4 needs N|D), as case -> (k, scalar, ratio, unit, reversed), scalar and
    ratio as integer pairs (num, den).  At residue h the case adds
    scalar * C(k,i) * ratio^i * B_{k-i}(r/D) to the coefficient of X^i with
    r = unit*h, or, reversed, to that of X^(w-i) with r = unit*conj(h),
    conj(h) the inverse of h mod D.  All carry the common (2i)^(w+1) factor
    divided out."""
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    d, level = ctx.modulus, ctx.level
    specs = {}
    if level == 1:
        specs[1] = (nt + 1, ((-1) ** n, nt + 1), (1, 1), 1, False)
    specs[2] = (n + 1, (-1, n + 1), (1, 1), 1, False)
    if math.gcd(level, d) == 1:
        scalar = ((-1) ** (n - 1) * level**nt * d**w, nt + 1)
        specs[3] = (nt + 1, scalar, (-1, d * d * level), -pow(level, -1, d), True)
    if d % level == 0:
        specs[4] = (n + 1, (d**w, n + 1), (-1, d * d), -1, True)
    return specs


def _case_six(ctx: PeriodContext) -> list[tuple[int, int]]:
    """The coefficients of X^0 and X^w of case 6, which does not depend on
    the residue, as integer pairs (num, den); empty when they vanish.  Both
    are (-1)^n (w+2) B_(n+1) B_(nt+1) / (B_(w+2) (n+1) (nt+1)) times
    -N^-(n+1) and D^w / N, each times its prime ratio product."""
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    level = ctx.level
    top, low, high = bernoulli_number(w + 2), bernoulli_number(n + 1), bernoulli_number(nt + 1)
    num = (-1) ** n * (w + 2) * top.denominator * low.numerator * high.numerator
    if num == 0:
        return []
    den = top.numerator * low.denominator * (n + 1) * high.denominator * (nt + 1)
    first_num, first_den = _prime_ratio_product(level, nt + 1, w)
    last_num, last_den = _prime_ratio_product(level, n + 1, w)
    values = []
    # in lowest terms: B_(w+2)'s numerator would swell the context denominator
    for p, q in ((-num * first_num, den * level ** (n + 1) * first_den),
                 (num * ctx.modulus**w * last_num, den * level * last_den)):
        g = math.gcd(p, q)
        values.append((p // g, q // g))
    return values


@lru_cache(maxsize=_MEMO_SIZE)
def _case_walk(level: int, modulus: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """The quadruples (a, c, k, ell) of (N, D), each with its Bezout residue
    e = k*b + ell*d mod D, where a*d - b*c = 1: the oracle's own walk, read
    by case 5 at every n and every residue.  It shares nothing with the
    closed form's walk, which keys the quadruples by conj(chi) instead."""
    walk = []
    for a, c, k, ell in enumerate_quadruples(level, modulus):
        b0, d0 = bezout_pair(a, c)
        walk.append((a, c, k, ell, (k * b0 + ell * d0) % modulus))
    return tuple(walk)


def _case_buckets(ctx: PeriodContext, classes: list[list[int]], cases: Iterable[int]) -> tuple[int, list[list[int]]]:
    """The given cases summed over each class of unit residues: ascending
    integer polynomials over one context denominator, with the (2i)^(w+1)
    factor divided out.  The scalars of cases 1-4 and 6 are integer pairs
    (_case_specs, _case_six), cleared over that denominator with no
    Fraction built: each case's entries share one dominating denominator,
    below * L_k * lcm(D, ratio_den)^k, and its multipliers are running
    powers.  Cases 1-4 read integer Bernoulli rows: for each
    (case, i), one pass over the unit residues adds each residue's row
    entry into its class's sum, which is scaled once by one integer per
    (case, i); case 6 counts the residues.  Case 5 reads the oracle's own
    walk (_case_walk, built once per (N, D) with every Bezout residue) and
    sums each class of its terms (aX + ell)^n (k - cX)^(w-n), whose
    coefficient i is times D^i over D^w, so times den // D^(w-i): a
    quadruple with Bezout residue e
    adds its sign class c < 0 to the class of e and its class a, c > 0 to
    that of -e (each sign class has exactly one matrix at a residue); one
    that reaches no class is skipped before its term is expanded.  A
    quadruple's term is expanded once, as one big integer at
    X = 2**(8 * width); each class adds the terms of its c < 0 matrices
    into one sum and those of its a, c > 0 matrices into another, still
    packed, mirrors the second at -X by a digit mask on its offset form,
    adds it to the first and unpacks the class once; a class that no
    quadruple reached is not unpacked, scaled or added.  The absolute
    coefficients of a term sum to (a + ell)^n (c + k)^(w-n) < (2D)^w, and
    each sum takes at most one term per quadruple, so a class's
    coefficients lie below 2 * (number of quadruples) * (2D)^w, which the
    width keeps below half the base."""
    d, w, n, nt = ctx.modulus, ctx.w, ctx.n, ctx.n_tilde
    specs = [spec for j, spec in _case_specs(ctx).items() if j in cases]
    six = _case_six(ctx) if 6 in cases else []
    # entry i of a case is num * C(k,i) * ratio_num^i over below *
    # ratio_den^i * D^(k-i) * L_(k-i), row k-i's denominator, which divides
    # below * L_k * g^k, g = lcm(D, ratio_den): one dominating denominator
    # per case, and multiplier i is num * C(k,i) * (ratio_num * g/ratio_den)^i
    # * (g/D)^(k-i) * L_k/L_(k-i) times den over it, by running powers
    lows = [[_bernoulli_row(k - i, d)[0] // d ** (k - i) for i in range(k + 1)] for k, *_ in specs]
    steps = [math.lcm(d, ratio_den) for _, _, (_, ratio_den), _, _ in specs]
    tops = [below * low[0] * g**k for (k, (_, below), *_), low, g in zip(specs, lows, steps)]
    den = math.lcm(d**w, *(q for _, q in six), *tops)
    five_scales = [den // d ** (w - i) for i in range(w + 1)]
    six_values = [p * (den // q) for p, q in six]
    factors = []
    for (k, (num, _), (ratio_num, ratio_den), _, _), low, g, top in zip(specs, lows, steps, tops):
        ups, downs = [den // top * num], [1]
        for _ in range(k):
            ups.append(ups[-1] * ratio_num * (g // ratio_den))
            downs.append(downs[-1] * (g // d))
        factors.append([math.comb(k, i) * ups[i] * downs[k - i] * (low[0] // low[i]) for i in range(k + 1)])
    fives: list[list[int]] = [[] for _ in classes]
    if 5 in cases:
        class_of = {h: i for i, residues in enumerate(classes) for h in residues}
        walk = _case_walk(ctx.level, d)
        width = (2 * len(walk) * (2 * d) ** w).bit_length() // 8 + 1
        x = 1 << (8 * width)
        pluses, minuses = [0] * len(classes), [0] * len(classes)
        for a, c, k, ell, e in walk:
            plus, minus = class_of.get(e), class_of.get(-e % d)
            if plus is None and minus is None:
                continue
            # class c < 0: (aX + ell)^n (k - cX)^(w-n)
            term = (a * x + ell) ** n * (k - c * x) ** nt
            if plus is not None:
                pluses[plus] += term
            if minus is not None:
                minuses[minus] += term
        # class a, c > 0: -(aX - ell)^n (cX + k)^(w-n), which is
        # (-1)^(n+1) times the first at -X.  A packed v at -X is twice its
        # even digits less v, and its even digits are those of its offset
        # form v + offset (each digit plus half the base, none negative)
        # under a mask, less the offset's own
        offset = _half_digits(width, w + 1)
        even = int.from_bytes((b"\xff" * width + bytes(width)) * (w // 2) + b"\xff" * width, "little")
        even_offset = offset & even
        sign = (-1) ** (n + 1)
        fives = [
            _signed_digits(plus + sign * (2 * (((minus + offset) & even) - even_offset) - minus), width, w + 1)
            if plus or minus else []
            for plus, minus in zip(pluses, minuses)
        ]
    buckets = [[0] * (w + 1) for _ in classes]
    # every unit residue h once, with its class and conj(h)
    units = [(j, h, pow(h, -1, d)) for j, residues in enumerate(classes) for h in residues]
    for (k, _, _, unit, reverse), multipliers in zip(specs, factors):
        rs = [(j, unit * (hbar if reverse else h) % d) for j, h, hbar in units]
        for i, multiplier in enumerate(multipliers):
            row = _bernoulli_row(k - i, d)[1]
            sums = [0] * len(classes)
            for j, r in rs:
                sums[j] += row[r]
            power = w - i if reverse else i
            for bucket, total in zip(buckets, sums):
                bucket[power] += multiplier * total
    for bucket, residues, five in zip(buckets, classes, fives):
        for i, (value, scale) in enumerate(zip(five, five_scales)):
            bucket[i] += value * scale
        if six_values:
            bucket[0] += len(residues) * six_values[0]
            bucket[w] += len(residues) * six_values[1]
    return den, buckets


def case_contribution(j: int, h: int, ctx: PeriodContext) -> ExactPolynomial:
    """The case-j part of the symmetrized residue-twist polynomial at h.

    Cases are gated by the context (1 needs N=1, 3 needs gcd(N,D)=1,
    4 needs N|D) and return the zero polynomial when inapplicable; case 6
    does not depend on h.
    """
    if j not in range(1, 7):
        raise ContextError(f"case index must be 1..6, got {j}")
    return _residue_polynomial(ctx, h, (j,))


def _residue_polynomial(ctx: PeriodContext, h: int, cases: Iterable[int]) -> ExactPolynomial:
    """(2i)^(w+1), kept apart, times the sum of the given cases at residue
    h: the one class [h]."""
    d = ctx.modulus
    if math.gcd(h, d) != 1:
        raise ContextError(f"residue {h} is not coprime to {d}")
    den, buckets = _case_buckets(ctx, [[h % d]], cases)
    return _bucket_poly(buckets, 1, den, (4, (((ctx.w + 1) % 4, 2 ** (ctx.w + 1)),), 1))


def case_sum_polynomial(ctx: PeriodContext) -> ExactPolynomial:
    """P_n(X) assembled from the case contributions over all residues.

    This is the independent oracle: it must equal closed_form_polynomial
    exactly on every valid context.  Both keep the same prefactor apart, so
    that equality is decided in Q(zeta_R).  Case 6 is left out: it adds the
    same value times |class e| to every class e, and the classes of
    conj(chi) all hold phi(D)/R residues, so its total is that value times
    phi(D)/R times the sum of the R-th roots of unity, zero (character
    orthogonality).  It stays in the per-residue sums (residue_case_sum,
    case_contribution), where it is observed.
    """
    chibar = ctx.chi.conjugate()
    classes: list[list[int]] = [[] for _ in range(chibar.order)]
    for h in range(1, ctx.modulus):
        e = chibar.value_exponent(h)
        if e is not None:
            classes[e].append(h)
    den, buckets = _case_buckets(ctx, classes, range(1, 6))
    return _bucket_poly(buckets, chibar.order, den, _prefactor(chibar, ctx.w))


# ---------------------------------------------------------------------------
# period extraction


def twisted_period(ctx: PeriodContext, m: int) -> ExactNumber:
    """r_{m,chi}(R_n), extracted from the closed-form polynomial.

    Only the parity class (-1)^(m+n+1)chi(-1) = 1 survives symmetrization;
    _admit, the gate TraceQuery shares, refuses any other m.
    """
    _admit(ctx, m)
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
