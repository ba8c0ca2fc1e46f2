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
module's central oracle.  Both keep the common prefactor as a constant
factor of the polynomial, and since it is nonzero and shared, the equality
is decided on their coefficients in Q(zeta_R), R = ord chi.  Individual
twisted periods are recovered from polynomial coefficients when the parity
(-1)^(m+n+1)chi(-1) = 1 admits them.

Both routes expand quadruple terms, each with its own walk and its own
terms, by packed sums: a term is one big integer at X = 2**(8 * width)
(Kronecker substitution), a class adds its terms, and
``cyclotomic._signed_digits`` unpacks each class sum into its w + 1
coefficients once, at a width sized from a bound the route states.
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
    _add_into,
    _bucket_poly,
    _cleared,
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


class PeriodContext:
    """Parameters (N, w, n, chi) of one twisted period polynomial.

    Immutable; its hash is computed once, since it keys the memos."""

    __slots__ = ("level", "w", "n", "chi", "_hash")

    def __init__(self, level: int, w: int, n: int, chi: DirichletCharacter):
        if level < 1:
            raise ContextError("level must be positive")
        if w < 2 or w % 2:
            raise ContextError("w must be a positive even integer")
        if not 0 < n < w:
            raise ContextError(f"n must satisfy 0 < n < w, got n={n}, w={w}")
        if chi.modulus < 2:
            raise ContextError("character modulus must exceed 1")
        _require_primitive(chi)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "_hash", hash((level, w, n, chi)))

    def __setattr__(self, name, value):
        raise AttributeError("PeriodContext is immutable")

    def __eq__(self, other):
        if not isinstance(other, PeriodContext):
            return NotImplemented
        return (self.level, self.w, self.n, self.chi) == (other.level, other.w, other.n, other.chi)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PeriodContext(level={self.level!r}, w={self.w!r}, n={self.n!r}, chi={self.chi!r})"

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
    by G_n at every n and by the trace's double sum at every (n, m)."""
    walk = []
    for a, c, k, ell in enumerate_quadruples(level, chibar.modulus):
        e = chi_four_tuple_exponent(chibar, a, c, k, ell)
        if e is not None:
            walk.append((a, c, k, ell, e))
    return tuple(walk)


def _quadruple_buckets(ctx: PeriodContext) -> list[list[int]]:
    """D^w times the polynomial attached to each conj(chi) value exponent in
    G_n, in integers: D^w * term = (aD*X + ell)^n (k - cD*X)^(w-n).

    Each term is evaluated at X = 2**(8 * width) (Kronecker substitution),
    so a class adds one big integer per quadruple and is unpacked into its
    w + 1 signed coefficients once.  Since a, c, k, ell < D, the absolute
    coefficients of a term sum to (aD + ell)^n (cD + k)^(w-n) <= (D^2 + D)^w,
    so a class's coefficients lie below (number of quadruples) * (D^2 + D)^w;
    the width keeps that below half the base, and no digit carries into the
    next."""
    d, n, nt = ctx.modulus, ctx.n, ctx.n_tilde
    walk = _quadruple_walk(ctx.level, ctx.chi.conjugate())
    width = (len(walk) * (d * d + d) ** ctx.w).bit_length() // 8 + 1
    dx = d << (8 * width)
    sums = [0] * ctx.chi.order
    for a, c, k, ell, e in walk:
        sums[e] += (a * dx + ell) ** n * (k - c * dx) ** nt
    return [_signed_digits(total, width, ctx.w + 1) for total in sums]


def quadruple_sum_polynomial(ctx: PeriodContext) -> ExactPolynomial:
    """G_n(X): the finite sum over quadruples of
    conj(chi)(a,c,k,ell) * (a*X + ell/D)^n * (-c*X + k/D)^(w-n)."""
    return _bucket_poly(_quadruple_buckets(ctx), ctx.chi.order, ctx.modulus**ctx.w)


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

    Everything is added as integers per power of zeta_R (R = ord chi) over
    one context denominator and divided once per bucket coefficient: chi(-N)
    and chi(-1) rotate the exponent of a Bernoulli term's coordinates.  The
    prefactor stays the polynomial's constant factor, so the coefficients
    live in Q(zeta_R) until they are read.
    """
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    d, level = ctx.modulus, ctx.level
    chi = ctx.chi
    chibar = chi.conjugate()
    order = chi.order
    eps = ctx.epsilons()

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

    # the coordinates of B_{k,psi} are integers over their own denominator;
    # one context denominator clears those, the scalars, alpha^i and G_n's D^w
    weighted = [_weighted_coordinates(k, psi) for psi, k, *_ in terms]
    den, (quadruple_factor, *factors) = _cleared(
        [[(1, d**w)]]
        + [[(scalar.numerator * alpha.numerator**i, scalar.denominator * alpha.denominator**i * coord_den)
            for i in range(k + 1)]
           for (_, k, scalar, _, alpha, _), (coord_den, _) in zip(terms, weighted)]
    )

    # G_n(X) + gsign*G_n(-X): coefficient i picks up 1 + gsign*(-1)^i
    gsign = (-1) ** (n - 1) * chi.sign_at_minus_one()
    symmetrizer = [quadruple_factor[0] * (1 + gsign * (-1) ** i) for i in range(w + 1)]
    buckets = [[c * s for c, s in zip(bucket, symmetrizer)] for bucket in _quadruple_buckets(ctx)]

    for (_, _, _, shift, _, reverse), (_, coords), multipliers in zip(terms, weighted, factors):
        for j, coeffs in enumerate(coords):
            scaled = [c * m for c, m in zip(coeffs, multipliers)]
            if reverse:
                scaled = [0] * (w + 1 - len(scaled)) + scaled[::-1]
            _add_into(buckets[(j + shift) % order], scaled)

    return _bucket_poly(buckets, order, den, _prefactor(chibar, w))


# ---------------------------------------------------------------------------
# the six case contributions (per residue h)


def _prime_ratio_product(level: int, s: int, w: int) -> Fraction:
    out = Fraction(1)
    for p in factorize(level):
        out *= (1 - Fraction(1, p**s)) / (1 - Fraction(1, p ** (w + 2)))
    return out


def _case_specs(ctx: PeriodContext) -> dict[int, tuple[int, Fraction, Fraction, int, bool]]:
    """Cases 1-4 that the context admits (1 needs N=1, 3 needs gcd(N,D)=1,
    4 needs N|D), as case -> (k, scalar, ratio, unit, reversed).  At residue
    h the case adds scalar * C(k,i) * ratio^i * B_{k-i}(r/D) to the
    coefficient of X^i with r = unit*h, or, reversed, to that of X^(w-i) with
    r = unit*conj(h), conj(h) the inverse of h mod D.  All carry the common
    (2i)^(w+1) factor divided out."""
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    d, level = ctx.modulus, ctx.level
    specs = {}
    if level == 1:
        specs[1] = (nt + 1, Fraction((-1) ** n, nt + 1), Fraction(1), 1, False)
    specs[2] = (n + 1, Fraction(-1, n + 1), Fraction(1), 1, False)
    if math.gcd(level, d) == 1:
        scalar = Fraction((-1) ** (n - 1) * level**nt * d**w, nt + 1)
        specs[3] = (nt + 1, scalar, Fraction(-1, d * d * level), -pow(level, -1, d), True)
    if d % level == 0:
        specs[4] = (n + 1, Fraction(d**w, n + 1), Fraction(-1, d * d), -1, True)
    return specs


def _case_six(ctx: PeriodContext) -> list[Fraction]:
    """The coefficients of X^0 and X^w of case 6, which does not depend on
    the residue; empty when they vanish."""
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    level = ctx.level
    scalar = (
        Fraction((-1) ** n * (w + 2))
        / bernoulli_number(w + 2)
        * bernoulli_number(n + 1)
        / (n + 1)
        * bernoulli_number(nt + 1)
        / (nt + 1)
    )
    if scalar == 0:
        return []
    return [
        -scalar * Fraction(1, level ** (n + 1)) * _prime_ratio_product(level, nt + 1, w),
        scalar * Fraction(ctx.modulus**w, level) * _prime_ratio_product(level, n + 1, w),
    ]


def _case_buckets(ctx: PeriodContext, classes: list[list[int]], cases: Iterable[int]) -> tuple[int, list[list[int]]]:
    """The given cases summed over each class of unit residues: ascending
    integer polynomials over one context denominator, with the (2i)^(w+1)
    factor divided out.  Cases 1-4 read integer Bernoulli rows and are
    scaled once per class by one integer per (case, i); case 6 counts the
    residues.  Case 5 walks the quadruples once and sums each class over
    D^w: a quadruple with Bezout residue e adds its sign class c < 0 to the
    class of e and its class a, c > 0 to that of -e (each sign class has
    exactly one matrix at a residue); one that reaches no class is skipped
    before its term is expanded.  A quadruple's term is expanded once, as
    one big integer at X = 2**(8 * width); each class adds the terms of its
    c < 0 matrices into one sum and those of its a, c > 0 matrices into
    another, and unpacks both once.  The absolute coefficients of a term
    sum to (aD + ell)^n (cD + k)^(w-n) <= (D^2 + D)^w, and a sum takes at
    most one term per quadruple, so its coefficients lie below (number of
    quadruples) * (D^2 + D)^w, which the width keeps below half the base."""
    d, w, n, nt = ctx.modulus, ctx.w, ctx.n, ctx.n_tilde
    specs = [spec for j, spec in _case_specs(ctx).items() if j in cases]
    six = _case_six(ctx) if 6 in cases else []
    # table row k-i states its denominator D^(k-i) * L_(k-i)
    den, (five_factor, six_values, *factors) = _cleared(
        [[(1, d**w)], [(q.numerator, q.denominator) for q in six]]
        + [[(scalar.numerator * math.comb(k, i) * ratio.numerator**i,
             scalar.denominator * ratio.denominator**i * _bernoulli_row(k - i, d)[0])
            for i in range(k + 1)]
           for k, scalar, ratio, _, _ in specs]
    )
    fives: list[list[int]] = [[] for _ in classes]
    if 5 in cases:
        class_of = {h: i for i, residues in enumerate(classes) for h in residues}
        quadruples = enumerate_quadruples(ctx.level, d)
        width = (len(quadruples) * (d * d + d) ** w).bit_length() // 8 + 1
        dx = d << (8 * width)
        pluses, minuses = [0] * len(classes), [0] * len(classes)
        for a, c, k, ell in quadruples:
            b0, d0 = bezout_pair(a, c)
            e = (k * b0 + ell * d0) % d
            plus, minus = class_of.get(e), class_of.get(-e % d)
            if plus is None and minus is None:
                continue
            # class c < 0: (aD*X + ell)^n (k - cD*X)^(w-n)
            term = (a * dx + ell) ** n * (k - c * dx) ** nt
            if plus is not None:
                pluses[plus] += term
            if minus is not None:
                minuses[minus] += term
        # class a, c > 0: -(aD*X - ell)^n (cD*X + k)^(w-n), which is
        # (-1)^(n+1) times the first at -X
        signs = [(-1) ** (n + i + 1) for i in range(w + 1)]
        fives = [
            [p + s * m for p, m, s in zip(_signed_digits(plus, width, w + 1), _signed_digits(minus, width, w + 1), signs)]
            for plus, minus in zip(pluses, minuses)
        ]
    buckets = []
    for residues, five in zip(classes, fives):
        bucket = [0] * (w + 1)
        inverses = [pow(h, -1, d) for h in residues]
        for (k, _, _, unit, reverse), multipliers in zip(specs, factors):
            rs = [unit * h % d for h in (inverses if reverse else residues)]
            for i, multiplier in enumerate(multipliers):
                row = _bernoulli_row(k - i, d)[1]
                bucket[w - i if reverse else i] += multiplier * sum(row[r] for r in rs)
        _add_into(bucket, [x * five_factor[0] for x in five])
        if six_values:
            bucket[0] += len(residues) * six_values[0]
            bucket[w] += len(residues) * six_values[1]
        buckets.append(bucket)
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
    """(2i)^(w+1) times the sum of the given cases at residue h: the one
    class [h]."""
    d = ctx.modulus
    if math.gcd(h, d) != 1:
        raise ContextError(f"residue {h} is not coprime to {d}")
    den, (coeffs,) = _case_buckets(ctx, [[h % d]], cases)
    factor = _two_i_power(ctx.w + 1)
    return ExactPolynomial([factor * Fraction(c, den) for c in coeffs])


def case_sum_polynomial(ctx: PeriodContext) -> ExactPolynomial:
    """P_n(X) assembled from the six case contributions over all residues.

    This is the independent oracle: it must equal closed_form_polynomial
    exactly on every valid context.  Both keep the same prefactor apart, so
    that equality is decided in Q(zeta_R).
    """
    chibar = ctx.chi.conjugate()
    classes: list[list[int]] = [[] for _ in range(chibar.order)]
    for h in range(1, ctx.modulus):
        e = chibar.value_exponent(h)
        if e is not None:
            classes[e].append(h)
    den, buckets = _case_buckets(ctx, classes, range(1, 7))
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
