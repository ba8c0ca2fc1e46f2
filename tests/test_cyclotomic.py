"""Exact cyclotomic arithmetic: ring axioms, roots, surds, serialization."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from heckeperiods import cyclotomic
from heckeperiods.cyclotomic import (
    ExactNumber,
    ExactPolynomial,
    QuadSurd,
    _add_into,
    _kronecker_mul,
    _signed_digits,
    cyclotomic_polynomial,
    euler_phi,
    parse_quad_surd,
    recognize_surd,
    sqrt_integer,
    sqrt_positive_integer,
    square_and_squarefree_part,
    squarefree_divisors,
)


def rand_element(rng, level, size=6):
    phi = euler_phi(level)
    coords = [
        Fraction(rng.randint(-size, size), rng.randint(1, size)) for _ in range(phi)
    ]
    return ExactNumber(level, coords)


def schoolbook(a, b):
    """The reference product of two ascending coefficient lists, term by term."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reduced(poly, level):
    """The coordinates of sum_e poly[e] * zeta_level**e on the power basis:
    the remainder of poly by long division by Phi_level."""
    cyclo = cyclotomic_polynomial(level)
    phi = len(cyclo) - 1
    rem = list(poly) + [0] * phi
    for e in range(len(rem) - 1, phi - 1, -1):
        q = rem[e]
        for t, c in enumerate(cyclo):
            rem[e - phi + t] -= q * c
    return tuple(Fraction(c) for c in rem[:phi])


def scattered(coords, exponent, level):
    """sum_j coords[j] * x**exponent(j), as an ascending list below level."""
    poly = [0] * level
    for j, c in enumerate(coords):
        poly[exponent(j)] += c
    return poly


# ---------------------------------------------------------------------------
# basic constructors


def test_embed_rational():
    x = ExactNumber.from_rational(Fraction(1, 6), 12)
    assert x.level == 12 and x.rational_value() == Fraction(1, 6)
    assert ExactNumber.from_rational(0, 8).is_zero()
    assert ExactNumber.from_rational(-3, 4) == ExactNumber.from_rational(-3)


def test_roots_of_unity():
    i = ExactNumber.zeta(4, 1)
    assert i * i == ExactNumber.from_rational(-1)
    assert ExactNumber.zeta(3, 1) + ExactNumber.zeta(3, 2) == ExactNumber.from_rational(-1)
    assert ExactNumber.zeta(12, 12) == ExactNumber.one()
    for m, k in [(5, 2), (8, 3), (12, 7)]:
        assert ExactNumber.zeta(m, k) * ExactNumber.zeta(m, m - k) == ExactNumber.one()


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree phi(M) and Phi_M(1) behavior on prime powers
    for m in range(2, 40):
        assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    for m in range(1, 301):
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                product = schoolbook(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (m - 1) + [1], m
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    phi_105 = cyclotomic_polynomial(105)
    assert phi_105[7] == phi_105[41] == -2


# ---------------------------------------------------------------------------
# ring structure


def test_ring_axioms_randomized():
    rng = random.Random(1234)
    for level in (4, 12, 20):
        for _ in range(25):
            a, b, c = (rand_element(rng, level) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_inverse_randomized():
    rng = random.Random(99)
    for level in (4, 12, 7):
        for _ in range(15):
            x = rand_element(rng, level)
            if x.is_zero():
                continue
            assert x.inverse() * x == ExactNumber.one()
    q = ExactNumber.from_rational(Fraction(-7, 3), 12)
    assert q.inverse() == ExactNumber.from_rational(Fraction(-3, 7))
    with pytest.raises(ZeroDivisionError):
        ExactNumber.zero(12).inverse()


def test_division_by_and_of_rationals_matches_the_field_route():
    # q / x scales the inverse and x / q scales x; the fields, level included,
    # are those of the route through the field element q
    rng = random.Random(5)
    for level in (4, 12, 7, 60):
        x = rand_element(rng, level)
        for q in (3, -2, Fraction(-7, 5), Fraction(1, 9), 0):
            embedded = ExactNumber.from_rational(q)
            assert _fields(q / x) == _fields(embedded * x.inverse())
            if q:
                assert _fields(x / q) == _fields(x * embedded.inverse())
            else:
                with pytest.raises(ZeroDivisionError):
                    x / q
        with pytest.raises(ZeroDivisionError):
            1 / ExactNumber.zero(level)


def _fields(x):
    return x.level, x._den, x._nums


def test_inverse_without_a_rational_norm():
    x = 2 + ExactNumber.zeta(7)
    assert not (x * x.conjugate()).is_rational()
    assert x * x.inverse() == ExactNumber.one()


@pytest.mark.parametrize("level", [8, 15, 20, 24, 60])
def test_inverse_over_non_cyclic_unit_groups(level):
    rng = random.Random(level)
    for x in [2 + ExactNumber.zeta(level)] + [rand_element(rng, level) for _ in range(3)]:
        assert x * x.inverse() == ExactNumber.one()


def test_galois_is_a_field_automorphism():
    rng = random.Random(11)
    for level in (12, 15, 20):
        units = [a for a in range(1, level) if math.gcd(a, level) == 1]
        for _ in range(5):
            x, y = rand_element(rng, level), rand_element(rng, level)
            for a in units:
                sx = x.galois(a)
                assert (x + y).galois(a) == sx + y.galois(a)
                assert (x * y).galois(a) == sx * y.galois(a)
                for b in units:
                    assert sx.galois(b) == x.galois(a * b % level)
            assert x.galois(-1) == x.conjugate()
            assert abs(x.conjugate().numeric() - x.numeric().conjugate()) < 1e-9
            assert x.galois(1) == x
        assert ExactNumber.zeta(level).galois(units[1]) == ExactNumber.zeta(level, units[1])


def test_galois_rejects_a_non_unit():
    x = 2 + ExactNumber.zeta(12)
    for a in (0, 2, 3, -4):
        with pytest.raises(ValueError):
            x.galois(a)


def test_numeric_homomorphism():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_element(rng, 12, size=4)
        b = rand_element(rng, 12, size=4)
        prod = (a * b).numeric()
        direct = a.numeric() * b.numeric()
        scale = max(abs(prod), abs(direct), 1.0)
        assert abs(prod - direct) / scale < 1e-12
        assert abs((a + b).numeric() - (a.numeric() + b.numeric())) < 1e-12 * scale


def test_lift_preserves_equality():
    rng = random.Random(7)
    for _ in range(10):
        x = rand_element(rng, 12)
        assert x.lift_to(60) == x
        assert x.lift_to(120).lift_to(240) == x
    with pytest.raises(ValueError):
        rand_element(rng, 12).lift_to(9)


def assert_lowest_terms(x):
    assert x._den > 0
    assert math.gcd(x._den, *x._nums) == 1
    assert len(x._nums) == euler_phi(x.level)


def test_results_are_in_lowest_terms():
    rng = random.Random(17)
    for level in (4, 12, 19, 60):
        units = [a for a in range(2, level) if math.gcd(a, level) == 1]
        for _ in range(5):
            x, y = rand_element(rng, level), rand_element(rng, level)
            results = [x + y, x - y, x * y, x * Fraction(-6, 35), x * 0, -x, x.lift_to(2 * level)]
            results += [x.galois(a) for a in units[:3]]
            if not x.is_zero():
                results.append(x.inverse())
            for z in results:
                assert_lowest_terms(z)
    negative = ExactNumber.from_rational(Fraction(-4, 6), 12)
    for x in (negative, negative.inverse(), ExactNumber(3, [Fraction(2, 4), Fraction(-6, 8)])):
        assert_lowest_terms(x)


def test_every_way_into_the_field_matches_long_division():
    # zeta, lift, Galois image and product all enter Q(zeta_L) through one
    # reduction; here each is checked against the remainder by Phi_L
    rng = random.Random(64)
    for level in range(1, 65):
        phi = euler_phi(level)
        for k in range(2 * level):
            z = ExactNumber.zeta(level, k)
            assert (z.level, z.coords) == (level, reduced([0] * (k % level) + [1], level)), (level, k)
        for d in (d for d in range(1, level + 1) if level % d == 0):
            x = rand_element(rng, d)
            lifted = x.lift_to(level)
            expected = reduced(scattered(x.coords, lambda j: j * (level // d), level), level)
            assert (lifted.level, lifted.coords) == (level, expected), (d, level)
        x = rand_element(rng, level)
        for a in (a for a in range(1, level + 1) if math.gcd(a, level) == 1):
            image = x.galois(a)
            assert image.coords == reduced(scattered(x.coords, lambda j: j * a % level, level), level), (level, a)
        if 2 <= phi < 16:
            for _ in range(3):
                x, y = rand_element(rng, level, size=10**9), rand_element(rng, level, size=10**9)
                assert (x * y).coords == reduced(schoolbook(x.coords, y.coords), level), level


def test_rationals_build_no_reduction_table(monkeypatch):
    # a rational needs only phi of its level, not the table of x**e mod Phi
    levels = []
    table = cyclotomic._power_table

    def recording(level):
        levels.append(level)
        return table(level)

    monkeypatch.setattr(cyclotomic, "_power_table", recording)
    phi = euler_phi(17030)
    for number, value in [
        (ExactNumber.from_rational(Fraction(-7, 3), 17030), Fraction(-7, 3)),
        (ExactNumber.zero(17030), 0),
        (ExactNumber.one(17030), 1),
    ]:
        assert number.level == 17030 and len(number._nums) == phi
        assert number.rational_value() == value
    assert levels == []


def test_a_low_lift_folds_no_zeros_above_its_largest_exponent(monkeypatch):
    # lifting a phi = 6 number from level 18 to 342 maps zeta_18**j to
    # zeta_342**(19 j), j < 6: the largest exponent, 95, lies below
    # phi(342) = 108, so _fold gets 96 entries and no reduction walk
    lengths = []
    fold = cyclotomic._fold

    def recording(values, level):
        lengths.append((len(values), level))
        return fold(values, level)

    x = ExactNumber._make(18, 7, [3, -1, 4, 1, -5, 9])
    monkeypatch.setattr(cyclotomic, "_fold", recording)
    lifted = x.lift_to(342)
    assert lengths == [(96, 342)] and euler_phi(342) == 108
    expected = [Fraction(0)] * 108
    expected[::19] = x.coords
    assert lifted.coords == tuple(expected)


def test_common_factors_cancel():
    zeta = ExactNumber.zeta(12)
    third = zeta * Fraction(1, 3)
    assert third._den == 3
    assert third * 3 == zeta
    assert (third * 3)._den == 1 and (third * 3)._nums == zeta._nums
    x = rand_element(random.Random(3), 20)
    difference = x - x
    assert difference.is_zero() and difference._den == 1


def test_kronecker_product_matches_the_term_by_term_product():
    rng = random.Random(216)
    sizes = (1, 8, 64, 300)  # coefficient bits, cycled over the lengths
    vector = lambda length, bits: [rng.randint(-(2**bits), 2**bits) for _ in range(length)]
    for length in range(1, 217):  # 216 = phi(684), the longest product in use
        a, b = vector(length, sizes[length % 4]), vector(length, sizes[length // 4 % 4])
        assert _kronecker_mul(a, b) == schoolbook(a, b)
    for bits in sizes:
        for la, lb in [(1, 216), (216, 1), (7, 108), (108, 215), (3, 4)]:
            a, b = vector(la, bits), vector(lb, bits)
            assert _kronecker_mul(a, b) == schoolbook(a, b)
            assert _kronecker_mul(a, [0] * lb) == [0] * (la + lb - 1)
            assert _kronecker_mul([0] * la, [0] * lb) == [0] * (la + lb - 1)
        # every coefficient at the bound: all negative, mixed, alternating
        top = 2**bits
        for a, b in [([-top] * 216, [-top] * 216), ([top] * 216, [-top] * 216), ([top, -top] * 108, [-top, top] * 108)]:
            assert _kronecker_mul(a, b) == schoolbook(a, b)


def test_signed_digits_read_back_every_balanced_digit():
    # the packer is written here: sum_i digits[i] * 2**(8 * width * i)
    def pack(digits, width):
        return sum(d << (8 * width * i) for i, d in enumerate(digits))

    for width in (1, 2, 5):
        half = 1 << (8 * width - 1)
        for count in (1, 2, 5):
            # -half, +-(half - 1) and 0 at every position
            for digits in itertools.product((-half, -(half - 1), 0, half - 1), repeat=count):
                value = pack(digits, width)
                assert _signed_digits(value, width, count) == list(digits)
                # a count beyond the value's length reads zeros
                assert _signed_digits(value, width, count + 3) == list(digits) + [0, 0, 0]
    rng = random.Random(22)
    for _ in range(200):
        width, count = rng.randint(1, 40), rng.randint(1, 30)
        half = 1 << (8 * width - 1)
        digits = [rng.randrange(-half, half) for _ in range(count)]
        assert _signed_digits(pack(digits, width), width, count) == digits


def test_power():
    z = ExactNumber.zeta(5, 1)
    assert z**5 == ExactNumber.one()
    assert z**-1 == ExactNumber.zeta(5, 4)
    x = ExactNumber.from_rational(Fraction(2, 3))
    assert x**0 == ExactNumber.one()
    assert x**3 == ExactNumber.from_rational(Fraction(8, 27))


# ---------------------------------------------------------------------------
# square roots


def test_sqrt_small_values():
    assert sqrt_integer(1) == ExactNumber.one()
    s3 = sqrt_integer(3)
    assert s3 * s3 == ExactNumber.from_rational(3)
    assert abs(s3.numeric() - 1.7320508) < 1e-6
    s6 = sqrt_integer(6)
    assert s6 * s6 == ExactNumber.from_rational(6)
    assert s6.numeric().real > 0


def test_sqrt_all_squarefree_up_to_30():
    for n in range(1, 31):
        if square_and_squarefree_part(n)[0] != 1:
            continue
        root = sqrt_integer(n)
        assert root * root == ExactNumber.from_rational(n)
        value = root.numeric()
        assert abs(value - math.sqrt(n)) < 1e-9


def test_sqrt_rejects_non_squarefree():
    with pytest.raises(ValueError):
        sqrt_integer(12)
    assert sqrt_positive_integer(4) == ExactNumber.from_rational(2)
    s12 = sqrt_positive_integer(12)
    assert s12 * s12 == ExactNumber.from_rational(12)


# ---------------------------------------------------------------------------
# surd recognition and serialization


def test_recognize_surd_paper_value():
    value = sqrt_integer(3) * Fraction(-2359296, 5)
    surd = recognize_surd(value.lift_to(12))
    assert surd == QuadSurd(0, Fraction(-2359296, 5), 3)


def test_recognize_surd_rational_and_absent():
    assert recognize_surd(ExactNumber.from_rational(Fraction(7, 2), 12)) == QuadSurd(
        Fraction(7, 2), 0, 1
    )
    assert recognize_surd(ExactNumber.zeta(5, 1)) is None


def test_recognize_surd_answers_none_at_its_own_level(monkeypatch):
    # one Galois conjugate rules out a surd before any lift to
    # lcm(level, 4d): level 8844 = 4 * 3 * 11 * 67 has 15 squarefree d > 1
    x = rand_element(random.Random(8844), 8844)
    rotated = x * ExactNumber.zeta(4, 3)
    levels = []
    table = cyclotomic._power_table

    def recording(level):
        levels.append(level)
        return table(level)

    monkeypatch.setattr(cyclotomic, "_power_table", recording)
    assert recognize_surd(x) is None
    assert recognize_surd(rotated) is None
    assert set(levels) == {8844}


def test_recognize_surd_reads_tables_only_at_divisors_of_its_level(monkeypatch):
    # sqrt(67) lives at level 268, which divides 8844: no radicand search
    # builds sqrt(2) at level 8 or lifts x to 17688
    x = (ExactNumber.from_rational(Fraction(-7, 3)) + sqrt_integer(67) * Fraction(5, 11)).lift_to(8844)
    levels = []
    table = cyclotomic._power_table

    def recording(level):
        levels.append(level)
        return table(level)

    monkeypatch.setattr(cyclotomic, "_power_table", recording)
    assert recognize_surd(x) == QuadSurd(Fraction(-7, 3), Fraction(5, 11), 67)
    assert levels and all(8844 % level == 0 for level in levels)


@pytest.mark.parametrize("level", [12, 20, 24, 40, 60, 120, 168])
def test_recognize_surd_returns_every_surd_of_the_field(level):
    # sqrt(d) lies in Q(zeta_level) when the conductor of Q(sqrt d), d for
    # d = 1 mod 4 and 4d otherwise, divides the level
    rng = random.Random(level)
    radicands = [d for d in squarefree_divisors(level) if d > 1 and level % (d if d % 4 == 1 else 4 * d) == 0]
    assert radicands
    i = ExactNumber.zeta(4)
    for d in radicands:
        for a in (Fraction(0), Fraction(-7, 3)):
            for b in (Fraction(5, 11), Fraction(-5, 11)):
                x = (ExactNumber.from_rational(a) + sqrt_integer(d) * b).lift_to(level)
                assert recognize_surd(x) == QuadSurd(a, b, d)
        assert recognize_surd((i * sqrt_integer(d)).lift_to(level)) is None
    assert recognize_surd(ExactNumber.zeta(level)) is None
    for _ in range(3):
        assert recognize_surd(rand_element(rng, level)) is None


def test_recognize_surd_with_rational_part():
    x = ExactNumber.from_rational(Fraction(1, 2), 20) + sqrt_integer(5) * Fraction(3, 7)
    surd = recognize_surd(x)
    assert surd == QuadSurd(Fraction(1, 2), Fraction(3, 7), 5)


def test_exact_number_json_roundtrip():
    rng = random.Random(31)
    for level in (1, 4, 12, 20):
        x = rand_element(rng, level)
        assert ExactNumber.from_json(x.to_json()) == x
    data = ExactNumber.from_rational(Fraction(1, 3), 4).to_json()
    assert data == {"level": 4, "coords": ["1/3", "0"]}


def test_json_roundtrip_at_high_levels_and_a_wrong_length():
    rng = random.Random(32)
    for level in (272, 684):
        x = rand_element(rng, level, size=10**6)
        assert ExactNumber.from_json(x.to_json()) == x
        assert ExactNumber.from_json(x.to_json()).to_json() == x.to_json()
    data = rand_element(rng, 12).to_json()
    for coords in (data["coords"][:-1], data["coords"] + ["0"]):
        with pytest.raises(ValueError):
            ExactNumber.from_json({"level": 12, "coords": coords})


def test_quad_surd_string_roundtrip():
    cases = [
        QuadSurd(Fraction(7, 2), 0, 1),
        QuadSurd(0, Fraction(-2359296, 5), 3),
        QuadSurd(1135193, 19, 144169),
        QuadSurd(1135193, -19, 144169),
        QuadSurd(0, 1, 2),
    ]
    for surd in cases:
        assert parse_quad_surd(str(surd)) == surd
    assert parse_quad_surd("12*sqrt(4)") == QuadSurd(24, 0, 1)  # square parts fold in
    with pytest.raises(ValueError):
        parse_quad_surd("sqrt(2)+sqrt(3)")


def test_parse_quad_surd_evaluates_arithmetic():
    assert parse_quad_surd("2*3") == QuadSurd(6, 0, 1)
    assert parse_quad_surd("2^3-1") == QuadSurd(7, 0, 1)
    assert parse_quad_surd("(1+sqrt(5))/2") == QuadSurd(Fraction(1, 2), Fraction(1, 2), 5)
    assert parse_quad_surd("-(3/2)*sqrt(8)") == QuadSurd(0, -3, 2)
    assert parse_quad_surd("+sqrt(2) - 1") == QuadSurd(-1, 1, 2)


@pytest.mark.parametrize(
    "text",
    ["3 sqrt(5)", "1 2", "1/0", "2^(1/2)", "0x10", "sqrt(5)^2", "sqrt(x)", "sqrt(2.0)", "", "sqrt(0)"],
)
def test_parse_quad_surd_rejects_non_surd_text(text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_quad_surd(text)


def test_quad_surd_field_ops():
    a = QuadSurd(1, 2, 5)
    b = QuadSurd(Fraction(1, 3), -1, 5)
    assert a * b == QuadSurd(Fraction(1, 3) - 10, Fraction(2, 3) - 1, 5)
    assert (a / b) * b == a
    assert a + (-a) == QuadSurd(0, 0, 1)
    assert a * a.conjugate() == QuadSurd(1 - 4 * 5, 0, 1)
    with pytest.raises(ValueError):
        QuadSurd(1, 1, 2) * QuadSurd(1, 1, 3)


def test_quad_surd_arithmetic_skips_the_radicand_check(monkeypatch):
    x = parse_quad_surd("1135193+19*sqrt(144169)")
    y = parse_quad_surd("-3/7-2*sqrt(144169)")
    calls = []
    factorize = cyclotomic.factorize
    monkeypatch.setattr(cyclotomic, "factorize", lambda n, bound=None: calls.append(n) or factorize(n, bound))
    ops = [
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
        lambda u, v: u / v,
        lambda u, v: -u,
        lambda u, v: u.conjugate(),
        lambda u, v: u.inverse(),
        lambda u, v: 3 - u,
        lambda u, v: u * Fraction(2, 5),
        lambda u, v: (u + 1) / 2,
    ]
    rng = random.Random(8)
    u, v = x, y
    for _ in range(50):
        u, v = v, rng.choice(ops)(u, v) or x
    assert calls == []
    assert (x / y) * y == x and x * x.conjugate() == QuadSurd(1135193**2 - 361 * 144169, 0, 1)
    # the public constructor keeps its check
    with pytest.raises(ValueError):
        QuadSurd(1, 1, 12)
    assert calls


def test_squarefree_divisors():
    assert squarefree_divisors(12) == [1, 2, 3, 6]
    assert squarefree_divisors(1) == [1]


# ---------------------------------------------------------------------------
# polynomials


def test_list_helpers_keep_integer_coefficients():
    # the quadruple sums rely on this: a Fraction zero in the padding would
    # turn every integer bucket back into Fraction arithmetic
    bucket = []
    _add_into(bucket, [3, 6, 4, 8])
    _add_into(bucket, [1])
    assert bucket == [4, 6, 4, 8]
    assert all(type(x) is int for x in bucket)


def test_polynomial_basics():
    p = ExactPolynomial([Fraction(1, 6), -1, 1])
    assert p.degree() == 2
    assert [c.rational_value() for c in p.coefficients] == [1, -1, Fraction(1, 6)]
    assert p.coefficient(3).is_zero() and p.coefficient(7).is_zero()
    # the constructor trims trailing zeros
    assert ExactPolynomial([1, 0, 0]).degree() == 0
    assert ExactPolynomial([1, 0, 0]) == ExactPolynomial([1])
    assert ExactPolynomial([0, 0]).is_zero()
    assert ExactPolynomial([]).is_zero()


def test_polynomial_json_degree_descending():
    p = ExactPolynomial([Fraction(1, 2), 0, 3])
    data = p.to_json()
    assert data["degree"] == 2
    assert data["coefficients"][0] == {"level": 1, "coords": ["3"]}
    assert data["coefficients"][2] == {"level": 1, "coords": ["1/2"]}


def test_polynomial_scale_by_zero_is_the_zero_polynomial():
    p = ExactPolynomial([Fraction(1, 2), ExactNumber.zeta(5), 3])
    for zero in (0, Fraction(0), ExactNumber.zero(7)):
        assert p.scale(zero).degree() == -1
        assert p.scale(zero).is_zero() and p.scale(zero) == ExactPolynomial([])


def test_polynomial_scale_is_the_coefficient_wise_product():
    rng = random.Random(11)
    ascending = [rand_element(rng, 5), ExactNumber.zero(), rand_element(rng, 5)]
    p = ExactPolynomial(ascending)
    unit = rand_element(rng, 12)
    for factor in (3, Fraction(-5, 7), unit):
        expected = ExactPolynomial([c * factor for c in ascending])
        scaled = p.scale(factor)
        assert scaled == expected and expected == scaled
        assert [c.to_json() for c in scaled.coefficients] == [c.to_json() for c in expected.coefficients]
        assert scaled.coefficient(1).to_json() == expected.coefficient(1).to_json()
        assert scaled.coefficient(5).is_zero()
        assert scaled.to_json() == expected.to_json()
    # a second scale multiplies the kept factor
    assert p.scale(unit).scale(Fraction(-5, 7)) == ExactPolynomial([c * unit * Fraction(-5, 7) for c in ascending])
    # equal factors compare the coefficients before the factor
    assert p.scale(unit) == ExactPolynomial(list(ascending)).scale(unit)
    assert p.scale(unit) != ExactPolynomial(ascending[:2] + [ascending[2] * 2]).scale(unit)
    with pytest.raises(TypeError):
        p.scale(1.5)
