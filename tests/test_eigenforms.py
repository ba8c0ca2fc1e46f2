"""Fixture algebra: exact eigen-decomposition and twisted-value ratios."""

import hashlib
import json
import re
from fractions import Fraction

import pytest

from heckeperiods.cyclotomic import ExactNumber, QuadSurd, parse_quad_surd
from heckeperiods.eigenforms import (
    FixtureError,
    RationalMatrix,
    RnCombination,
    SurdPair,
    _deflate,
    _parse_factored,
    char_poly,
    eigen_decompose,
    eigenvalues,
    load_fixtures,
    twisted_lambda_ratio,
    twisted_period_of_combination,
)
from heckeperiods.cyclotomic import ExactPolynomial
from heckeperiods.periods import ParityError, PeriodContext, twisted_period

D2 = 144169


def test_matrix_validation():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2]])
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2, 3], [4, 5]])
    with pytest.raises(ValueError):
        RationalMatrix([])
    m = RationalMatrix([["1/2", 1], [0, 3]])
    assert m.transpose().rows[0] == (Fraction(1, 2), Fraction(0))


def test_char_poly_identity():
    ident = RationalMatrix([[1, 0], [0, 1]])
    assert char_poly(ident) == ExactPolynomial([1, -2, 1])


def test_char_poly_example_matrices(registry):
    m3 = registry.matrix("t3-weight16-level2").basis_action
    # (x + 3348)^2 (x - 6252), ascending
    assert char_poly(m3) == ExactPolynomial([-70079318208, -30654288, 444, 1])

    m2 = registry.matrix("t2-weight24-level1").basis_action
    cp = [c.rational_value() for c in char_poly(m2).coefficients]
    # roots 540 +- 12 sqrt(144169): trace 1080, norm 540^2 - 144*144169
    assert cp == [1, -1080, 540**2 - 144 * D2]


def test_eigenvalues_quadratic(registry):
    m2 = registry.matrix("t2-weight24-level1").basis_action
    lams = eigenvalues(m2)
    assert set(lams) == {QuadSurd(540, 12, D2), QuadSurd(540, -12, D2)}


def test_eigen_decompose_diagonal():
    diag = RationalMatrix([[2, 0], [0, 5]])
    pairs = eigen_decompose(diag)
    got = {(str(lam), tuple(str(v) for v in vec)) for lam, vec in pairs}
    assert got == {("2", ("1", "0")), ("5", ("0", "1"))}


def test_eigen_decompose_weight24(registry):
    fixture = registry.matrix("t2-weight24-level1")
    pairs = eigen_decompose(fixture.coefficient_matrix)
    expected = {
        (QuadSurd(540, 12, D2), (QuadSurd(118041, 0, 1), QuadSurd(1135193, 19, D2))),
        (QuadSurd(540, -12, D2), (QuadSurd(118041, 0, 1), QuadSurd(1135193, -19, D2))),
    }
    assert {(lam, vec) for lam, vec in pairs} == expected
    for lam, vec in pairs:
        assert fixture.coefficient_matrix.apply(list(vec)) == [lam * v for v in vec]


def test_eigen_decompose_weight16(registry):
    fixture = registry.matrix("t3-weight16-level2")
    pairs = eigen_decompose(fixture.coefficient_matrix)
    newform = [vec for lam, vec in pairs if lam == QuadSurd(6252, 0, 1)]
    assert newform == [(QuadSurd(7, 0, 1), QuadSurd(110, 0, 1), QuadSurd(168, 0, 1))]
    for lam, vec in pairs:
        assert fixture.coefficient_matrix.apply(list(vec)) == [lam * v for v in vec]


def test_irreducible_cubic_rejected():
    companion = RationalMatrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # x^3 - 2
    with pytest.raises(FixtureError, match="unsupported factorization"):
        eigenvalues(companion)


# P B P^-1 for B = diag(2, 2, -3) + [[0, 1], [1, 1]] and a unimodular P:
# char poly (x - 2)^2 (x + 3) (x^2 - x - 1), a 2-dimensional eigenspace for 2
FIVE = [
    [23, -39, 32, -13, 13],
    [9, -17, 13, -4, 4],
    [-2, 1, -2, 3, -3],
    [9, -18, 13, -3, 5],
    [-1, 1, -2, 1, 1],
]


def test_char_poly_general_dimension():
    # (x - 2)^2 (x + 3) (x^2 - x - 1), ascending
    expected = ExactPolynomial([-12, -4, 21, -8, -2, 1])
    assert char_poly(RationalMatrix(FIVE)) == expected


def test_eigen_decompose_general_dimension():
    matrix = RationalMatrix(FIVE)
    pairs = eigen_decompose(matrix)
    golden = (QuadSurd(Fraction(1, 2), Fraction(1, 2), 5), QuadSurd(Fraction(1, 2), Fraction(-1, 2), 5))
    assert [lam for lam, _ in pairs] == [QuadSurd(2, 0, 1)] * 2 + [QuadSurd(-3, 0, 1), *golden]
    for lam, vec in pairs:
        assert any(vec)
        assert matrix.apply(list(vec)) == [lam * v for v in vec]


def test_irreducible_quartic_rejected():
    companion = RationalMatrix([[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])  # x^4 - 2
    with pytest.raises(FixtureError, match="unsupported factorization"):
        eigenvalues(companion)


def test_combination_validation():
    with pytest.raises(FixtureError):
        RnCombination(1, 12, ((1, QuadSurd(1, 0, 1)), (1, QuadSurd(2, 0, 1))))
    with pytest.raises(FixtureError):
        RnCombination(1, 12, ((10, QuadSurd(1, 0, 1)),))
    with pytest.raises(FixtureError):
        RnCombination(1, 13, ((1, QuadSurd(1, 0, 1)),))
    mixed = RnCombination(1, 24, ((1, QuadSurd(0, 1, 2)), (3, QuadSurd(0, 1, 3))))
    with pytest.raises(FixtureError):
        mixed.radicand


def test_combination_single_term_matches_period(chi3):
    form = RnCombination(1, 12, ((1, QuadSurd(1, 0, 1)),))
    value = twisted_period_of_combination(form, chi3, 1)
    assert value.radical.is_zero()
    assert value.base == twisted_period(PeriodContext(1, 10, 1, chi3), 1)


def test_combination_scaling_linear(chi3):
    form = RnCombination(1, 12, ((1, QuadSurd(3, 0, 1)),))
    doubled = form.scaled(2)
    v1 = twisted_period_of_combination(form, chi3, 1)
    v2 = twisted_period_of_combination(doubled, chi3, 1)
    assert v2.base == v1.base * 2 and v2.radical.is_zero()


def test_combination_parity_rejected(chi3):
    form = RnCombination(1, 12, ((1, QuadSurd(1, 0, 1)),))
    with pytest.raises(ParityError):
        twisted_period_of_combination(form, chi3, 2)


def test_ratio_scale_invariant(registry, chi5):
    form = registry.eigenform("sl2z-w24-even-plus")
    base = twisted_lambda_ratio(form, chi5, 1, 11)
    scaled = twisted_lambda_ratio(form.scaled(Fraction(7, 3)), chi5, 1, 11)
    assert base == scaled


def test_ratio_zero_denominator(chi3):
    form = RnCombination(1, 12, ((1, QuadSurd(1, 0, 1)),))
    with pytest.raises(ZeroDivisionError, match="central value vanishes"):
        twisted_lambda_ratio(form, chi3, 1, 5)


PRINTED_RATIOS = {
    1: (QuadSurd(Fraction(454494815973561283200, 11), Fraction(-495053625411273600, 11), D2)),
    3: (QuadSurd(Fraction(1710371411434851840, 11), Fraction(-1874940923128320, 11), D2)),
    5: (QuadSurd(Fraction(7923984224047200, 11), Fraction(-8900924205600, 11), D2)),
    7: (QuadSurd(Fraction(46543863219840, 11), Fraction(-56895592320, 11), D2)),
    9: (QuadSurd(Fraction(359949679200, 11), Fraction(-545421600, 11), D2)),
    11: (QuadSurd(469261440, -789120, D2)),
}


def test_one_printed_ratio(registry, chi5):
    # the full five-ratio sweep for both embeddings is an acceptance criterion
    form = registry.eigenform("sl2z-w24-even-plus")
    got = twisted_lambda_ratio(form, chi5, 9, 11)
    expected = PRINTED_RATIOS[9] / PRINTED_RATIOS[11]
    assert got.base.rational_value() == expected.a
    assert got.radical.rational_value() == expected.b


def test_ratio_between_interior_values(registry, chi5):
    # ratio at (6, 8) arguments, i.e. m1 = 5, m2 = 7
    form = registry.eigenform("sl2z-w24-even-minus")
    got = twisted_lambda_ratio(form, chi5, 5, 7)
    expected = (PRINTED_RATIOS[5] / PRINTED_RATIOS[7]).conjugate()
    assert got.base.rational_value() == expected.a
    assert got.radical.rational_value() == expected.b


def test_surd_pair_arithmetic():
    one = ExactNumber.one()
    two = ExactNumber.from_rational(2)
    x = SurdPair(one, two, 5)
    y = SurdPair(two, one, 5)
    prod = x * y
    assert prod.base == one * two + two * one * 5
    assert prod.radical == one * one + two * two
    assert (x / y) * y == x
    assert x * x.inverse() == SurdPair(one, ExactNumber.zero(), 5)
    with pytest.raises(ValueError):
        x * SurdPair(one, one, 7)
    assert x.conjugate_radical().radical == -two


def test_surd_pair_is_quad_surd_over_the_cyclotomic_field():
    i = ExactNumber.zeta(4)
    w = ExactNumber.zeta(3)
    x = SurdPair(i, w, D2)
    y = SurdPair(w, ExactNumber.one(), D2)
    # every operation keeps the subclass
    results = [x + y, x - y, -x, x * y, x / y, x.inverse(), x.conjugate(),
               x.conjugate_radical(), 2 + x, 1 - x, 1 / x, x * Fraction(1, 3), i * x,
               SurdPair.zero(D2)]
    assert all(type(r) is SurdPair for r in results)
    assert isinstance(x, QuadSurd)
    assert (x / y) * y == x and x * x.inverse() == 1
    assert (x * y).base == i * w + w * D2 and (x * y).radical == i + w * w
    # an int, Fraction or ExactNumber factor scales both parts in place
    for factor in (3, Fraction(-2, 7), ExactNumber.from_rational(5)):
        scaled = x * factor
        assert (scaled.base.level, scaled.radical.level) == (4, 3)
        assert scaled.base == i * factor and scaled.radical == w * factor
    assert (x * i).radical.level == 12
    # a zero radical compares equal whatever d was, and keeps its level
    zero_rad = SurdPair(i, ExactNumber.zero(12), D2)
    assert zero_rad == SurdPair(i, ExactNumber.zero(), 5) == SurdPair(i, ExactNumber.zero(), 1)
    assert zero_rad.d == 1 and zero_rad.radical.level == 12
    assert SurdPair.zero(D2).is_zero() and not x.is_zero()
    # d = 1 folds the radical into the base
    folded = SurdPair(i, w, 1)
    assert folded.base == i + w and folded.radical.is_zero()
    with pytest.raises(ValueError):
        x + SurdPair(i, w, 5)
    with pytest.raises(ValueError):
        x * SurdPair(i, w, 5)
    with pytest.raises(ZeroDivisionError):
        SurdPair.zero(D2).inverse()
    with pytest.raises(AttributeError):
        x.a = i
    assert str(x) == repr(x) == f"SurdPair(d={D2})"


def test_fixture_registry_contents(registry):
    assert len(registry.eigenforms) == 42
    assert len(registry.matrices) == 2
    w24 = registry.eigenform("sl2z-w24-odd-plus")
    assert w24.terms == ((1, QuadSurd(133705, 0, 1)), (3, QuadSurd(1421844, 12, D2)))
    w16 = registry.eigenform("gamma02-w16-even")
    assert [n for n, _ in w16.terms] == [2, 4, 6]
    assert registry.newforms(2, 12) == []
    assert len(registry.newforms(2, 14)) == 4
    assert registry.central_values.discriminants == [
        8, 12, 17, 24, 28, 33, 40, 41, 44, 56, 57, 60, 65,
    ]
    assert registry.central_values.value(8) == 2 * (2**7 * 3**2) ** 2


def test_galois_conjugate_pairs(registry):
    plus = registry.eigenform("sl2z-w28-even-plus")
    minus = registry.eigenform("sl2z-w28-even-minus")
    assert plus.conjugate() == minus


def test_parse_factored():
    assert _parse_factored("2*(2^7*3^2)^2") == 2 * (2**7 * 3**2) ** 2
    assert _parse_factored("(2^6*3*15671)^2") == (2**6 * 3 * 15671) ** 2
    for text in ("2*(3", "2)3", "", "2 * 3", "0x10", "-3", "2.0"):
        with pytest.raises(FixtureError, match=re.escape(repr(text))):
            _parse_factored(text)


def test_malformed_fixture_reports_line(tmp_path, monkeypatch):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "sl2z_eigenforms.json").write_text('{\n "forms": [\n   {bad}\n ]\n}')

    # the loader imports importlib.resources when it reads a fixture
    from importlib import resources

    monkeypatch.setattr(resources, "files", lambda _package: tmp_path)
    with pytest.raises(FixtureError, match="line 3"):
        load_fixtures()


def test_fixture_coefficients_are_surd_arithmetic(monkeypatch):
    import heckeperiods.eigenforms as module

    real = module._load_json

    def patched(name):
        data = real(name)
        if name == "sl2z_eigenforms.json":
            data["forms"][0]["terms"][0]["coeff"] = "2*3"
        return data

    monkeypatch.setattr(module, "_load_json", patched)
    form = load_fixtures().eigenform("sl2z-w24-odd-plus")
    assert form.terms[0] == (1, QuadSurd(6, 0, 1))


def test_fixture_registry_is_pinned(registry):
    # every coefficient of every bundled eigenform, as read from the fixtures
    digest = hashlib.sha256()
    for name, form in sorted(registry.eigenforms.items()):
        for n, c in form.terms:
            digest.update(f"{name} {n} {c.a} {c.b} {c.d}\n".encode())
    assert digest.hexdigest() == "18bcb61707da76bb35523ec485af4184b512f78764035a34c3cb2920b5f695b5"


def test_fixture_coeff_strings_roundtrip(registry):
    # every bundled coefficient parses back to itself through the surd grammar
    for name, form in registry.eigenforms.items():
        for _n, coeff in form.terms:
            assert parse_quad_surd(str(coeff)) == coeff, name


def test_deflate_rejects_a_non_root():
    coeffs = [Fraction(2), Fraction(-3), Fraction(1)]  # (x - 1)(x - 2)
    assert _deflate(coeffs, Fraction(1)) == [Fraction(-2), Fraction(1)]
    with pytest.raises(ArithmeticError):
        _deflate(coeffs, Fraction(3))
