"""Bernoulli machinery, plain and character-weighted."""

import json
import math
import random
from fractions import Fraction

import pytest

from heckeperiods import bernoulli, cyclotomic
from heckeperiods.bernoulli import (
    BernoulliSelfCheckError,
    _bernoulli_row,
    _weighted_coordinates,
    _weighted_number_direct,
    bernoulli_number,
    bernoulli_shifted_coeffs,
    generalized_bernoulli_number,
    generalized_bernoulli_poly,
)
from heckeperiods.characters import enumerate_primitive_characters
from heckeperiods.cyclotomic import ExactNumber, ExactPolynomial, factorize

TABLE_MODULI = (1, 2, 3, 12, 65)
TABLE_INDICES = range(41)


def _bernoulli_reference(k):
    """Ascending Fraction coefficients of B_k(x) from the recurrence B_0 = 1,
    B_j' = j*B_(j-1) with the integral of B_j over [0, 1] zero: no library
    Bernoulli number enters, and the constant term B_k(0) is B_k."""
    poly = [Fraction(1)]
    for j in range(1, k + 1):
        rising = [j * c / (i + 1) for i, c in enumerate(poly)]
        poly = [-sum(c / (i + 2) for i, c in enumerate(rising))] + rising
    return poly


def _at(coeffs, x):
    """sum_i coeffs[i] * x^i by Horner's rule."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    for k in range(3, 20, 2):
        assert bernoulli_number(k) == 0
    assert bernoulli_number(-4) == 0


def test_bernoulli_numbers_match_the_reference_recurrence():
    # the integer tangent-number route against the Fraction recurrence of
    # the test, across eight rows of the memo
    for k in range(61):
        assert bernoulli_number(k) == _bernoulli_reference(k)[0], k


def test_bernoulli_poly_classical():
    assert _bernoulli_reference(2) == [Fraction(1, 6), -1, 1]
    assert bernoulli_shifted_coeffs(2, 0) == [Fraction(1, 6), -1, 1]
    assert bernoulli_shifted_coeffs(-1, 0) == []
    assert bernoulli_shifted_coeffs(0, 0) == [1]
    # B_k(0) = B_k and B_k(1) = (-1)^k B_k
    for k in range(13):
        poly = bernoulli_shifted_coeffs(k, 0)
        assert poly == _bernoulli_reference(k), k
        number = _bernoulli_reference(k)[0]
        assert bernoulli_number(k) == number
        assert _at(poly, 0) == number
        assert _at(poly, 1) == (-1) ** k * number


def test_addition_formula_random_rationals():
    rng = random.Random(42)
    for _ in range(100):
        k = rng.randint(0, 12)
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        shifted = bernoulli_shifted_coeffs(k, a)
        expected = [
            math.comb(k, j) * _at(_bernoulli_reference(j), a)
            for j in range(k, -1, -1)
        ]
        assert shifted == expected
        # evaluate both sides at a random x
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        direct = _at(_bernoulli_reference(k), a + x)
        via_sum = _at(shifted, x)
        assert direct == via_sum


def test_weighted_numbers_mod3(chi3):
    expected = {
        1: Fraction(-1, 3),
        3: Fraction(2, 3),
        5: Fraction(-10, 3),
        7: Fraction(98, 3),
        9: Fraction(-1618, 3),
    }
    for k, value in expected.items():
        assert generalized_bernoulli_number(k, chi3) == ExactNumber.from_rational(value)
    for k in range(0, 13, 2):
        assert generalized_bernoulli_number(k, chi3).is_zero()


def test_weighted_poly_low_degrees(chi3):
    assert generalized_bernoulli_poly(2, chi3) == ExactPolynomial(
        [0, Fraction(-2, 3)]
    )
    assert generalized_bernoulli_poly(4, chi3) == ExactPolynomial(
        [0, Fraction(8, 3), 0, Fraction(-4, 3)]
    )
    assert generalized_bernoulli_poly(6, chi3) == ExactPolynomial(
        [0, -20, 0, Fraction(40, 3), 0, -2]
    )
    assert generalized_bernoulli_poly(8, chi3) == ExactPolynomial(
        [0, Fraction(784, 3), 0, Fraction(-560, 3), 0, Fraction(112, 3), 0, Fraction(-8, 3)]
    )


def test_weighted_poly_degree_ten(chi3):
    # the linear coefficient is C(10,9) * (weighted number at 9) = -16180/3;
    # the printed table drops the binomial factor there, but both defining
    # expressions and the reproduced g_1 pin the value used here
    expected = ExactPolynomial(
        [0, Fraction(-16180, 3), 0, 3920, 0, -840, 0, 80, 0, Fraction(-10, 3)]
    )
    assert generalized_bernoulli_poly(10, chi3) == expected


def test_weighted_poly_binomial_consistency(chi5):
    # spot-check the always-on self-check with a direct reconstruction
    for k in (1, 2, 3, 6):
        poly = generalized_bernoulli_poly(k, chi5)
        rebuilt = [ExactNumber.zero() for _ in range(k + 1)]
        for j in range(k + 1):
            rebuilt[k - j] = generalized_bernoulli_number(j, chi5) * math.comb(k, j)
        assert poly == ExactPolynomial(rebuilt)


def test_weighted_negative_and_zero_index():
    for d in (3, 4, 5):
        for chi in enumerate_primitive_characters(d):
            assert generalized_bernoulli_poly(-2, chi).is_zero()
            assert generalized_bernoulli_number(0, chi).is_zero()


def test_parity_vanishing_all_primitive_up_to_12():
    for d in range(2, 13):
        for chi in enumerate_primitive_characters(d):
            sign = chi.sign_at_minus_one()
            for k in range(0, 13):
                if sign != (-1) ** k:
                    assert generalized_bernoulli_number(k, chi).is_zero(), (d, k)


def test_derivative_relation(chi5):
    # d/dx B_{k,chi}(x) = k * B_{k-1,chi}(x), a consequence of the
    # generating function; independent sanity on the polynomial route
    for k in (2, 4, 6):
        poly = generalized_bernoulli_poly(k, chi5)
        lower = generalized_bernoulli_poly(k - 1, chi5)
        derived = ExactPolynomial(
            [poly.coefficient(j + 1) * (j + 1) for j in range(poly.degree())]
        )
        assert derived == lower.scale(k)


def _addition_formula(j, x):
    """B_j(x) = sum_i C(j,i) B_(j-i) x^i, in rationals."""
    return sum(math.comb(j, i) * bernoulli_number(j - i) * x**i for i in range(j + 1))


def test_bernoulli_rows_match_the_addition_formula():
    for d in TABLE_MODULI:
        for j in TABLE_INDICES:
            den, numerators = _bernoulli_row(j, d)
            assert len(numerators) == d and all(type(v) is int for v in numerators)
            for r, v in enumerate(numerators):
                assert Fraction(v, den) == _addition_formula(j, Fraction(r, d)), (j, d, r)


def test_bernoulli_row_denominator_is_the_lcm_of_the_number_denominators():
    for d in TABLE_MODULI:
        for j in TABLE_INDICES:
            lcm = math.lcm(*(bernoulli_number(i).denominator for i in range(j + 1)))
            assert _bernoulli_row(j, d)[0] == d**j * lcm, (j, d)
            # von Staudt-Clausen: the product of the primes p <= j + 1
            assert lcm == math.prod(p for p in range(2, j + 2) if factorize(p) == {p: 1})


def test_weighted_coordinates_at_the_lowest_indices():
    # R unreduced class sums, one per power of zeta_R: B_(0,chi) counts the
    # residues of each class, which reduces to 0
    for d in (3, 4, 5, 7, 12):
        for chi in enumerate_primitive_characters(d):
            order = chi.order
            assert _weighted_coordinates(-1, chi) == (1, ((),) * order)
            den, sums = _weighted_coordinates(0, chi)
            sizes = [sum(1 for e in chi.exponents if e == j) for j in range(order)]
            assert den == d and sums == tuple((size,) for size in sizes)
            assert not any(cyclotomic._fold([c for (c,) in sums], order))
            assert generalized_bernoulli_poly(0, chi).is_zero()
            # B_(1,chi)(x) = sum_h chi(h) ((h + x)/D - 1/2) = sum_h chi(h) h/D,
            # compared after reduction
            den, sums = _weighted_coordinates(1, chi)
            assert den == 2 * d and len(sums) == order and all(len(c) == 2 for c in sums)
            expected = ExactNumber.zero()
            for h in range(1, d):
                if math.gcd(h, d) == 1:
                    expected = expected + chi.value(h) * Fraction(h, d)
            assert generalized_bernoulli_poly(1, chi) == ExactPolynomial([expected])


def test_weighted_number_is_the_constant_term_of_the_polynomial():
    # the trace closed form reads _weighted_number_direct, over its own
    # denominator D * L_k, for the constant term of the checked polynomial
    # coordinates, and the polynomial states the same denominator
    for d in range(3, 14):
        for chi in enumerate_primitive_characters(d):
            for k in range(25):
                lcm = math.lcm(*(bernoulli_number(i).denominator for i in range(k + 1)))
                den, coords = _weighted_coordinates(k, chi)
                assert den == d * lcm
                assert _weighted_number_direct(k, chi) == (den, tuple(c[0] for c in coords)), (d, k)


def test_self_check_runs_on_every_miss(monkeypatch, chi5):
    checks = []
    binomial = bernoulli._via_binomial

    def counting(k, chi):
        checks.append(k)
        return binomial(k, chi)

    monkeypatch.setattr(bernoulli, "_via_binomial", counting)
    _weighted_coordinates.cache_clear()
    for k in range(6):
        generalized_bernoulli_poly(k, chi5)
        generalized_bernoulli_poly(k, chi5)
    assert checks == list(range(6))

    def perturbed(k, chi):
        den_rows = binomial(k, chi)
        return ((den_rows[0][0] + 1, *den_rows[0][1:]), *den_rows[1:])

    monkeypatch.setattr(bernoulli, "_via_binomial", perturbed)
    with pytest.raises(BernoulliSelfCheckError):
        generalized_bernoulli_poly(6, chi5)


def test_self_check_compares_the_class_sums_before_any_reduction(monkeypatch):
    # a multiple of Phi_R's coefficient vector added to the x^0 class sums of
    # the residue sum leaves its reduced value unchanged; the self-check
    # compares the class sums entry by entry, so it must still refuse it.
    # The binomial expansion reads the memoized weighted numbers, so only
    # the residue sum reads the altered row k
    k = 6
    for chi in enumerate_primitive_characters(7) + enumerate_primitive_characters(5):
        order, d = chi.order, chi.modulus
        for j in range(k + 1):
            _weighted_number_direct(j, chi)
        phi_coeffs = cyclotomic.cyclotomic_polynomial(order)
        injected = [3 * c for c in phi_coeffs] + [0] * (order - len(phi_coeffs))
        assert not any(cyclotomic._fold(injected, order))
        # one residue per class carries its class's share
        first = {}
        for h, e in enumerate(chi.exponents):
            if e is not None:
                first.setdefault(e, h)
        den, row = _bernoulli_row(k, d)
        altered = list(row)
        for e, h in first.items():
            altered[h] += injected[e]
        rows = bernoulli._bernoulli_row

        def altered_row(j, modulus, chi=chi, altered=tuple(altered), den=den, rows=rows):
            return (den, altered) if (j, modulus) == (k, chi.modulus) else rows(j, modulus)

        monkeypatch.setattr(bernoulli, "_bernoulli_row", altered_row)
        _weighted_coordinates.cache_clear()
        try:
            with pytest.raises(BernoulliSelfCheckError):
                _weighted_coordinates(k, chi)
        finally:
            monkeypatch.setattr(bernoulli, "_bernoulli_row", rows)
            _weighted_coordinates.cache_clear()


def test_weighted_coordinates_call_no_fold(monkeypatch):
    # both defining expressions and their comparison stay in class sums: the
    # layer reduces nothing mod Phi_R
    folds = []
    fold = cyclotomic._fold

    def counting(values, level):
        folds.append(level)
        return fold(values, level)

    monkeypatch.setattr(cyclotomic, "_fold", counting)
    monkeypatch.setattr(bernoulli, "_fold", counting, raising=False)
    _weighted_coordinates.cache_clear()
    _weighted_number_direct.cache_clear()
    built = 0
    for d in (3, 4, 5, 7, 8, 12, 13):
        for chi in enumerate_primitive_characters(d):
            for k in range(-1, 16):
                _weighted_coordinates(k, chi)
                built += 1
    assert built == 17 * sum(len(enumerate_primitive_characters(d)) for d in (3, 4, 5, 7, 8, 12, 13))
    assert folds == []


def test_a_coefficient_with_no_constant_reads_its_part(monkeypatch):
    # a Bernoulli coefficient keeps the unit constant apart, so its
    # coordinates are its reduced part: one fold each, with no product by 1
    # and no second fold at the constant's level
    chi = next(chi for chi in enumerate_primitive_characters(7) if chi.order == 6)
    poly = generalized_bernoulli_poly(4, chi)
    folds = []
    fold = cyclotomic._fold

    def counting(values, level):
        folds.append(level)
        return fold(values, level)

    monkeypatch.setattr(cyclotomic, "_fold", counting)
    text = json.dumps(poly.to_json())
    assert text == (
        '{"degree": 3, "coefficients": [{"level": 6, "coords": ["-8/7", "-16/7"]}, '
        '{"level": 6, "coords": ["0", "0"]}, {"level": 6, "coords": ["0", "24"]}, '
        '{"level": 6, "coords": ["0", "0"]}]}'
    )
    # degree() folds the x^4 class sums once: they are B_(0,chi)'s class
    # counts, not zero entry by entry, and reduce to 0
    assert folds == [6] * (poly.degree() + 2)
