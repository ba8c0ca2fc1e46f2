"""Twisted period polynomials: closed form, case-sum oracle, extraction."""

import math
import random
from fractions import Fraction

import pytest

from heckeperiods.characters import (
    DirichletCharacter,
    chi_four_tuple_exponent,
    enumerate_primitive_characters,
    gauss_sum,
    kronecker_character,
)
from heckeperiods import cyclotomic, periods
from heckeperiods.cyclotomic import (
    ExactNumber,
    ExactPolynomial,
    _bucket_sum,
    _expand,
    euler_phi,
    sqrt_integer,
    sqrt_positive_integer,
)
from heckeperiods.periods import (
    ContextError,
    FareyQuadruple,
    ParityError,
    PeriodContext,
    case_contribution,
    case_sum_polynomial,
    closed_form_polynomial,
    enumerate_quadruples,
    quadruple_sum_polynomial,
    residue_case_sum,
    residue_period,
    twisted_period,
)


def brute_force_quadruples(level, modulus):
    out = set()
    for a in range(1, modulus + 1):
        for c in range(1, modulus + 1):
            if math.gcd(a, c) != 1 or c % level:
                continue
            for k in range(1, modulus + 1):
                for ell in range(1, modulus + 1):
                    if k * a + ell * c == modulus:
                        out.add((a, c, k, ell))
    return out


@pytest.mark.parametrize("modulus", [5, 7])
def test_closed_form_is_galois_equivariant(modulus):
    # P_{chi^a} = i^((a-1)(w+1)) chi(a)^a sigma_a(P_chi) at level lcm(4, ord chi, D)
    for chi in enumerate_primitive_characters(modulus):
        if chi.order < 3:
            continue
        level = math.lcm(4, chi.order, modulus)
        for n_level, w, n in ((1, 10, 1), (2, 12, 5)):
            poly = closed_form_polynomial(PeriodContext(n_level, w, n, chi))
            for a in range(1, level):
                if math.gcd(a, level) != 1:
                    continue
                chi_a = DirichletCharacter(
                    modulus, chi.order, [None if e is None else e * a for e in chi.exponents]
                )
                image = closed_form_polynomial(PeriodContext(n_level, w, n, chi_a))
                factor = ExactNumber.zeta(4, (a - 1) * (w + 1)) * chi.value(a) ** a
                for k in range(w + 1):
                    expected = factor * poly.coefficient(k).lift_to(level).galois(a)
                    assert image.coefficient(k) == expected, (modulus, chi.exponents, a, k)


def test_quadruples_paper_example():
    got = enumerate_quadruples(1, 3)
    assert set(got) == {(1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1)}
    assert got == sorted(got, key=lambda q: (q.c, q.a, q.k))


def test_quadruples_small_cases():
    assert enumerate_quadruples(1, 2) == [FareyQuadruple(1, 1, 1, 1)]
    assert enumerate_quadruples(2, 3) == [FareyQuadruple(1, 2, 1, 1)]
    assert enumerate_quadruples(7, 3) == []


def test_quadruples_against_brute_force():
    for level in (1, 2, 3):
        for modulus in (3, 5, 7, 8, 12):
            got = enumerate_quadruples(level, modulus)
            assert len(got) == len(set(got))
            assert set(map(tuple, got)) == brute_force_quadruples(level, modulus)


def test_context_validation(chi3):
    with pytest.raises(ContextError):
        PeriodContext(1, 10, 0, chi3)
    with pytest.raises(ContextError):
        PeriodContext(1, 10, 10, chi3)
    with pytest.raises(ContextError):
        PeriodContext(1, 9, 1, chi3)
    with pytest.raises(ContextError):
        PeriodContext(0, 10, 1, chi3)


def test_epsilon_flags(chi3, chi5):
    assert PeriodContext(1, 10, 1, chi3).epsilons() == (1, 1, 1)
    assert PeriodContext(2, 10, 1, chi3).epsilons() == (0, 1, 0)
    assert PeriodContext(3, 10, 1, chi3).epsilons() == (0, 0, 1)
    assert PeriodContext(2, 10, 1, chi5).epsilons() == (0, 1, 0)
    assert PeriodContext(4, 10, 1, chi5).epsilons() == (0, 1, 0)


def test_quadruple_sum_degree_and_empty(chi3):
    for n in (1, 4, 9):
        ctx = PeriodContext(1, 10, n, chi3)
        assert quadruple_sum_polynomial(ctx).degree() <= 10
    ctx = PeriodContext(7, 10, 1, chi3)
    assert quadruple_sum_polynomial(ctx).is_zero()


def fraction_quadruple_sum(ctx):
    """G_n term by term in Fractions: the sum over quadruples of
    conj(chi)(a,c,k,ell) * (a*X + ell/D)^n * (-c*X + k/D)^(w-n)."""
    chibar = ctx.chi.conjugate()
    d, n, nt = ctx.modulus, ctx.n, ctx.n_tilde
    buckets = [[Fraction(0)] * (ctx.w + 1) for _ in range(chibar.order)]
    for a, c, k, ell in enumerate_quadruples(ctx.level, d):
        e = chi_four_tuple_exponent(chibar, a, c, k, ell)
        if e is None:
            continue
        left = [math.comb(n, i) * Fraction(a) ** i * Fraction(ell, d) ** (n - i) for i in range(n + 1)]
        right = [math.comb(nt, j) * Fraction(-c) ** j * Fraction(k, d) ** (nt - j) for j in range(nt + 1)]
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                buckets[e][i + j] += x * y
    zetas = [ExactNumber.zeta(chibar.order, e) for e in range(chibar.order)]
    return ExactPolynomial(
        sum((zetas[e] * bucket[i] for e, bucket in enumerate(buckets)), ExactNumber.zero())
        for i in range(ctx.w + 1)
    )


def widest_contexts():
    """The D = 67, order-66, w = 22 contexts: the widest packed digits the
    tests reach (1064 quadruples at N = 1, each term below (67^2 + 67)^22)."""
    chi67 = next(chi for chi in enumerate_primitive_characters(67) if chi.order == 66)
    return [PeriodContext(level, 22, n, chi67) for level in (1, 2) for n in (1, 11, 21)]


def test_quadruple_sum_matches_the_fraction_expansion():
    # G_n is summed in integers scaled by D^w; at D = 37, w = 14 that scale is 37^14
    chi37 = next(chi for chi in enumerate_primitive_characters(37) if chi.order == 36)
    contexts = [PeriodContext(level, 14, n, chi37) for level in (1, 2) for n in (1, 7, 13)]
    contexts.append(PeriodContext(1, 10, 3, kronecker_character(-4)))
    contexts += widest_contexts()
    for ctx in contexts:
        g = quadruple_sum_polynomial(ctx)
        assert not g.is_zero()
        assert g == fraction_quadruple_sum(ctx), (ctx.level, ctx.modulus, ctx.n)


def expected_g1(chi3):
    s3 = sqrt_integer(3)
    pref = ExactNumber.from_rational(-2048) * s3.inverse()
    zero = ExactNumber.zero()
    return ExactPolynomial(
        [
            zero,
            pref * Fraction(512, 2187),
            zero,
            pref * Fraction(-128, 81),
            zero,
            zero,
            zero,
            pref * 128,
            zero,
            pref * -1536,
        ]
    )


def test_closed_form_level_one_anchor(chi3):
    poly = closed_form_polynomial(PeriodContext(1, 10, 1, chi3))
    assert poly == expected_g1(chi3)


def test_closed_form_proportionality(chi3):
    g1 = closed_form_polynomial(PeriodContext(1, 10, 1, chi3))
    assert closed_form_polynomial(PeriodContext(1, 10, 3, chi3)) == g1.scale(Fraction(-25, 48))
    assert closed_form_polynomial(PeriodContext(1, 10, 7, chi3)) == g1.scale(Fraction(-25, 48))
    assert closed_form_polynomial(PeriodContext(1, 10, 5, chi3)) == g1.scale(Fraction(5, 12))
    assert closed_form_polynomial(PeriodContext(1, 10, 9, chi3)) == g1


def test_parity_vanishing_of_coefficients(chi3, chi5):
    for chi in (chi3, chi5):
        for level in (1, 2):
            for n in (1, 2, 5):
                ctx = PeriodContext(level, 10, n, chi)
                poly = closed_form_polynomial(ctx)
                for m in range(0, 11):
                    if not ctx.parity_holds(m):
                        assert poly.coefficient(10 - m).is_zero(), (level, n, m)


def test_oracle_equality_sample():
    # the full grid runs in the acceptance suite; here a fast cross-section
    for modulus in (3, 4, 5):
        for chi in enumerate_primitive_characters(modulus):
            for level in (1, 2, 3):
                for n in (1, 2, 9, 11):
                    for w in (10, 12):
                        if not 0 < n < w:
                            continue
                        ctx = PeriodContext(level, w, n, chi)
                        assert closed_form_polynomial(ctx) == case_sum_polynomial(ctx)


def test_closed_form_equals_its_expanded_coefficients():
    # the route keeps its prefactor apart; a polynomial of the expanded
    # coefficients (as read from JSON) is the same polynomial, both ways round
    quartic = next(chi for chi in enumerate_primitive_characters(5) if chi.order == 4)
    for ctx in (PeriodContext(1, 10, 1, kronecker_character(-3)), PeriodContext(2, 12, 5, quartic)):
        poly = closed_form_polynomial(ctx)
        expanded = ExactPolynomial(list(reversed(poly.coefficients)))
        assert poly == expanded and expanded == poly
        assert case_sum_polynomial(ctx) == expanded and expanded == case_sum_polynomial(ctx)
        k = poly.degree()
        prefactor = _expand(ExactNumber.one(), periods._prefactor(ctx.chi.conjugate(), ctx.w))
        assert poly.coefficient(k) == part_before_constant(poly, k) * prefactor
        changed = ExactPolynomial([*reversed(poly.coefficients[1:]), poly.coefficients[0] * 2])
        assert poly != changed and changed != poly


def test_routes_compare_below_the_prefactor_level(monkeypatch):
    # closed form == case sum is decided in Q(zeta_R): on a fresh context no
    # product reaches the prefactor's level lcm(4, R, D)
    chi = next(chi for chi in enumerate_primitive_characters(23) if chi.order == 22)
    periods._prefactor(chi.conjugate(), 10)  # the shared constant, built once
    closed_form_polynomial.cache_clear()
    ctx = PeriodContext(1, 10, 3, chi)
    top = math.lcm(4, 22, 23)
    levels = []
    mul = ExactNumber.__mul__

    def counting(self, other):
        levels.append(math.lcm(self.level, getattr(other, "level", 1)))
        return mul(self, other)

    monkeypatch.setattr(ExactNumber, "__mul__", counting)
    monkeypatch.setattr(ExactNumber, "__rmul__", counting)
    assert closed_form_polynomial(ctx) == case_sum_polynomial(ctx)
    assert top not in levels
    # reading a coefficient multiplies the prefactor in at that level, as
    # monomials in one fold: no ExactNumber product
    made = len(levels)
    assert closed_form_polynomial(ctx).coefficient(1).level == top
    assert len(levels) == made


def part_before_constant(poly, k):
    """Coefficient k of a route's polynomial before its kept-apart constant:
    its class sums, reduced here at the order."""
    order, den, nums = poly.class_sums(k)
    return _bucket_sum(nums, order, den)


def test_factor_product_equals_the_dense_product():
    # a coefficient meets the kept-apart constant as monomials in one fold:
    # the same number, at the same level, as its part times the factor, the
    # factor built here by field arithmetic; sqrt(N) brings in the levels 8,
    # 12 and 20, and zeta_4 a factor whose level R does not divide
    two_i = (ExactNumber.zeta(4) * 2) ** 11
    ascending = [ExactNumber.zeta(3), 0, Fraction(2, 3)]
    rows = [(ExactPolynomial(ascending).scale(ExactNumber.zeta(4)), [c * ExactNumber.zeta(4) for c in ascending])]
    for d in (3, 5, 7, 13):
        for chi in enumerate_primitive_characters(d):
            prefactor = two_i * gauss_sum(chi.conjugate()).inverse()
            for level in (1, 2, 3, 5):
                root = sqrt_positive_integer(level)
                for n in (1, 2):
                    poly = closed_form_polynomial(PeriodContext(level, 10, n, chi))
                    parts = [part_before_constant(poly, k) for k in range(poly.degree() + 1)]
                    rows += [(poly, [p * prefactor for p in parts]), (poly.scale(root), [p * prefactor * root for p in parts])]
    for poly, dense in rows:
        assert poly.degree() == len(dense) - 1
        expanded = poly.coefficients[::-1]
        for k, value in enumerate(dense):
            for c in (poly.coefficient(k), expanded[k]):
                assert c == value and c.to_json() == value.to_json(), k


def test_scale_folds_into_the_constant_without_a_product(monkeypatch):
    # scale takes a rational into each coefficient's class sums, the
    # constant still apart: neither the scale nor reading the result makes a
    # dense product (_kronecker_mul) at the constant's level lcm(4, R, D).
    # For a rational and for sqrt(N) alike it is the polynomial of the
    # dense products of the expanded coefficients
    chi = next(chi for chi in enumerate_primitive_characters(23) if chi.order == 22)
    poly = closed_form_polynomial(PeriodContext(1, 10, 3, chi))
    top = math.lcm(4, 22, 23)
    factors = (Fraction(-5, 7), sqrt_positive_integer(2), sqrt_positive_integer(12))
    lengths = []
    kronecker_mul = cyclotomic._kronecker_mul

    def counting(a, b):
        lengths.append(len(a))
        return kronecker_mul(a, b)

    monkeypatch.setattr(cyclotomic, "_kronecker_mul", counting)
    rational = poly.scale(factors[0])
    rational.to_json()
    assert euler_phi(top) not in lengths, lengths
    monkeypatch.undo()
    for x in factors:
        got = poly.scale(x)
        dense = ExactPolynomial([ExactNumber.from_json(c.to_json()) * x for c in reversed(poly.coefficients)])
        assert got == dense and dense == got
        assert got.to_json() == dense.to_json()


def test_case_gating(chi3):
    ctx = PeriodContext(2, 10, 1, chi3)  # eps = (0, 1, 0)
    assert case_contribution(1, 1, ctx).is_zero()
    assert case_contribution(4, 1, ctx).is_zero()
    assert not case_contribution(2, 1, ctx).is_zero()
    ctx3 = PeriodContext(3, 10, 1, chi3)  # gcd(N, D) = 3
    assert case_contribution(3, 1, ctx3).is_zero()


def test_case_six_h_independent(chi5):
    ctx = PeriodContext(2, 10, 1, chi5)
    reference = case_contribution(6, 1, ctx)
    for h in (2, 3, 4):
        assert case_contribution(6, h, ctx) == reference


def _bernoulli_numbers_reference(top):
    """B_0..B_top from sum_(j<=m) C(m+1, j) B_j = 0 (m >= 1), in Fractions."""
    numbers = [Fraction(1)]
    for m in range(1, top + 1):
        numbers.append(-sum(math.comb(m + 1, j) * numbers[j] for j in range(m)) / (m + 1))
    return numbers


def _prime_ratio_reference(level, s, w):
    ratio = Fraction(1)
    for p in range(2, level + 1):
        if level % p == 0 and all(p % q for q in range(2, p)):
            ratio *= (1 - Fraction(1, p**s)) / (1 - Fraction(1, p ** (w + 2)))
    return ratio


def test_case_six_and_prime_ratios_match_a_rational_reference(chi3, chi5):
    # the oracle's integer pairs against the formula in Fractions: case 6
    # adds -c/N^(n+1) * ratio(nt+1) to X^0 and c*D^w/N * ratio(n+1) to X^w,
    # c = (-1)^n (w+2) B_(n+1) B_(nt+1) / (B_(w+2) (n+1) (nt+1))
    numbers = _bernoulli_numbers_reference(24)
    for level in range(1, 7):
        for w in (10, 12, 22):
            for s in range(1, w + 2):
                num, den = periods._prime_ratio_product(level, s, w)
                assert Fraction(num, den) == _prime_ratio_reference(level, s, w), (level, s, w)
            for chi in (chi3, chi5):
                d = chi.modulus
                for n in range(1, w):
                    ctx = PeriodContext(level, w, n, chi)
                    nt = w - n
                    c = (-1) ** n * (w + 2) * numbers[n + 1] * numbers[nt + 1] / (numbers[w + 2] * (n + 1) * (nt + 1))
                    expected = [] if c == 0 else [
                        -c / level ** (n + 1) * _prime_ratio_reference(level, nt + 1, w),
                        c * d**w / level * _prime_ratio_reference(level, n + 1, w),
                    ]
                    got = [Fraction(num, den) for num, den in periods._case_six(ctx)]
                    assert got == expected, (level, w, n, d)


def test_case_one_explicit_formula(chi3):
    # at level one the first case is the shifted plain Bernoulli polynomial;
    # w = 10 and 12 give (2i)^(w+1) both odd quarter turns, i^3 and i^1
    from heckeperiods.bernoulli import bernoulli_shifted_coeffs

    for w in (10, 12):
        ctx = PeriodContext(1, w, 1, chi3)
        got = case_contribution(1, 1, ctx)
        shifted = bernoulli_shifted_coeffs(w, Fraction(1, 3))
        factor = (ExactNumber.zeta(4) * 2) ** (w + 1) * Fraction(-1, w)
        expected = ExactPolynomial([factor * c for c in shifted])
        assert got == expected, w


def test_case_contribution_rejects_noncoprime(chi3):
    ctx = PeriodContext(1, 10, 1, chi3)
    with pytest.raises(ContextError):
        case_contribution(2, 3, ctx)
    for j in (0, 7):
        with pytest.raises(ContextError):
            case_contribution(j, 1, ctx)


def test_twisted_period_values(chi3):
    ctx = PeriodContext(1, 10, 1, chi3)
    assert twisted_period(ctx, 5).is_zero()
    with pytest.raises(ParityError):
        twisted_period(ctx, 2)
    # leading coefficient pins the m = 0 period when parity admits it
    ctx2 = PeriodContext(1, 10, 2, chi3)
    poly = closed_form_polynomial(ctx2)
    assert poly.coefficient(10) == twisted_period(ctx2, 0) * 2


@pytest.mark.parametrize("modulus, level", [(3, 1), (4, 2), (5, 3), (8, 4), (12, 2)])
def test_assembly_identity(modulus, level):
    # summing conj(chi)(h) * rho(m, n, h) over the units h and dividing by the
    # Gauss sum recovers the twisted period: the one-residue sums against the
    # closed form, at N > 1 and at moduli where a Bezout residue can be a
    # non-unit (D = 4, 8, 12)
    chi = max(enumerate_primitive_characters(modulus), key=lambda c: c.order)
    chibar = chi.conjugate()
    tau_inv = gauss_sum(chibar).inverse()
    units = [h for h in range(1, modulus) if math.gcd(h, modulus) == 1]
    for n in (1, 2):
        ctx = PeriodContext(level, 10, n, chi)
        admissible = [m for m in range(11) if ctx.parity_holds(m)]
        assert admissible
        for m in admissible:
            total = ExactNumber.zero()
            for h in units:
                total = total + chibar.value(h) * residue_period(ctx, m, h)
            assert total * tau_inv * Fraction(1, 2) == twisted_period(ctx, m), (ctx, m)


def test_duality_sample(chi5):
    rng = random.Random(8)
    for level in (1, 2, 3):
        for n in (1, 2, 7):
            ctx = PeriodContext(level, 10, n, chi5)
            dual = ctx.with_n(10 - n)
            for _ in range(4):
                h = rng.choice([1, 2, 3, 4])
                m = rng.randint(0, 10)
                v = (-pow(level * h, -1, 5)) % 5
                lhs = residue_period(ctx, m, h)
                rhs = residue_period(dual, 10 - m, v) * (
                    Fraction((-1) ** (n + m))
                    * Fraction(level) ** (10 - n - m)
                    * Fraction(5) ** (10 - 2 * m)
                )
                assert lhs == rhs


def test_residue_case_sum_matches_contributions(chi3):
    ctx = PeriodContext(2, 10, 3, chi3)
    parts = [case_contribution(j, 1, ctx) for j in range(1, 7)]
    top = max(p.degree() for p in parts) + 1
    total = ExactPolynomial(
        [sum((p.coefficient(k) for p in parts), ExactNumber.zero()) for k in range(top)]
    )
    assert residue_case_sum(ctx, 1) == total


def case_five_reference(ctx, h):
    """Case 5 at residue h alone, term by term in Fractions: every quadruple
    with Bezout residue e = k*b + ell*d adds -(aX - ell/D)^n (cX + k/D)^(w-n)
    when h = -e and (aX + ell/D)^n (-cX + k/D)^(w-n) when h = e, all times
    (2i)^(w+1)."""
    d, n, nt = ctx.modulus, ctx.n, ctx.n_tilde
    coeffs = [Fraction(0)] * (ctx.w + 1)

    def add(sign, p, q, r, s):
        # sign * (pX + q)^n (rX + s)^(w-n)
        left = [math.comb(n, i) * Fraction(p) ** i * q ** (n - i) for i in range(n + 1)]
        right = [math.comb(nt, j) * Fraction(r) ** j * s ** (nt - j) for j in range(nt + 1)]
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                coeffs[i + j] += sign * x * y

    for a, c, k, ell in enumerate_quadruples(ctx.level, d):
        dd = next(x for x in range(c) if (a * x - 1) % c == 0)
        e = (k * (a * dd - 1) // c + ell * dd) % d
        if (h + e) % d == 0:
            add(-1, a, Fraction(-ell, d), c, Fraction(k, d))
        if (h - e) % d == 0:
            add(1, a, Fraction(ell, d), -c, Fraction(k, d))
    factor = ExactNumber.zeta(4, (ctx.w + 1) % 4) * 2 ** (ctx.w + 1)
    return ExactPolynomial([factor * q for q in coeffs])


def test_case_five_matches_the_per_residue_walk():
    # one walk over the quadruples yields every residue's case-5 row
    chi37 = next(chi for chi in enumerate_primitive_characters(37) if chi.order == 36)
    contexts = [PeriodContext(level, 14, n, chi37) for level in (1, 2) for n in (1, 7, 13)]
    chi4 = kronecker_character(-4)
    contexts += [PeriodContext(level, 10, n, chi4) for level in (1, 2) for n in (1, 2)]
    contexts += widest_contexts()
    residues_of = {37: (1, 2, 6, 31, 36), 4: (1, 3), 67: (1, 2, 66)}
    for ctx in contexts:
        residues = residues_of[ctx.modulus]
        for h in residues:
            assert case_contribution(5, h, ctx) == case_five_reference(ctx, h), (ctx, h)
    # D = 4 has the quadruple (1, 1, 2, 2), whose residue 2 is no unit: it must
    # reach neither row compared above, and those rows are not empty
    assert (1, 1, 2, 2) in enumerate_quadruples(1, 4)
    assert not case_contribution(5, 1, PeriodContext(1, 10, 1, chi4)).is_zero()


class CountedEll(int):
    """An ell that counts the case-5 terms it enters.  The Bezout residue
    only multiplies ell; expanding a term adds ell to, or subtracts it from,
    a packed integer."""

    def __new__(cls, value, uses):
        self = super().__new__(cls, value)
        self.uses = uses
        return self

    def __add__(self, other):
        self.uses.append(int(self))
        return int(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        self.uses.append(int(self))
        return int(self) - other

    def __rsub__(self, other):
        self.uses.append(int(self))
        return other - int(self)


def test_per_residue_case_five_multiplies_only_its_quadruples(monkeypatch):
    # a single residue's case-5 row expands only the quadruples whose Bezout
    # residue is h or -h, not every quadruple of the context; the walk memo
    # is cleared so that the oracle walks the counting quadruples, and again
    # after, so that no later test reads them
    chi37 = next(chi for chi in enumerate_primitive_characters(37) if chi.order == 36)
    ctx = PeriodContext(1, 14, 7, chi37)
    h = 2
    quadruples = enumerate_quadruples(ctx.level, 37)
    reaching = 0
    for a, c, k, ell in quadruples:
        dd = next(x for x in range(c) if (a * x - 1) % c == 0)
        if (k * (a * dd - 1) // c + ell * dd) % 37 in (h, 37 - h):
            reaching += 1
    assert 0 < reaching < len(quadruples)
    expected = case_contribution(5, h, ctx)
    uses = []
    monkeypatch.setattr(
        periods,
        "enumerate_quadruples",
        lambda level, d: [FareyQuadruple(a, c, k, CountedEll(ell, uses)) for a, c, k, ell in quadruples],
    )
    periods._case_walk.cache_clear()
    try:
        assert case_contribution(5, h, ctx) == expected
    finally:
        periods._case_walk.cache_clear()
    assert len(uses) == reaching
