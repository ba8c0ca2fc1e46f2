"""Acceptance suite: one test per criterion, one printed line per criterion.

Run as  pytest tests/test_acceptance.py -v -s  to see the PASS lines.
Every comparison below is exact unless the criterion itself is numeric.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from heckeperiods.bernoulli import (
    _via_binomial,
    _via_residue_sum,
    bernoulli_shifted_coeffs,
)
from heckeperiods.characters import (
    bezout_pair,
    chi_four_tuple,
    enumerate_primitive_characters,
    gauss_sum,
    kronecker_character,
)
from heckeperiods.cyclotomic import (
    ExactNumber,
    ExactPolynomial,
    QuadSurd,
    recognize_surd,
    sqrt_integer,
    square_and_squarefree_part,
)
from heckeperiods.eigenforms import (
    eigen_decompose,
    load_fixtures,
    twisted_lambda_ratio,
    twisted_period_of_combination,
)
from heckeperiods.numeric import (
    assembled_twisted_lambda,
    lambda_delta,
    petersson_delta_inverse,
    verify_trace_numeric,
)
from heckeperiods.periods import (
    PeriodContext,
    case_sum_polynomial,
    closed_form_polynomial,
    residue_case_sum,
    twisted_period,
)
from heckeperiods.traces import TraceQuery, trace_closed_form, trace_from_periods

GRID_LEVELS = (1, 2, 3, 4)
GRID_MODULI = (3, 4, 5, 7, 8, 12)
GRID_WS = (10, 12, 14)

D2 = 144169

SRC = Path(__file__).resolve().parents[1] / "src"

# criterion 14, run in a fresh interpreter so that the peak RSS it reports is
# its own: the order-130 character mod 131 reaches levels 17030 and 34060
# (ru_maxrss is in KiB on Linux)
LARGE_MODULUS_CHECK = """
import json, resource
from heckeperiods.characters import enumerate_characters
from heckeperiods.periods import PeriodContext, case_sum_polynomial, closed_form_polynomial
from heckeperiods.traces import TraceQuery, trace_closed_form, trace_from_periods
chi = next(chi for chi in enumerate_characters(131) if chi.order == 130)
ctx = PeriodContext(1, 10, 1, chi)
query = TraceQuery(ctx, next(m for m in range(11) if ctx.parity_holds(m)))
routes = closed_form_polynomial(ctx) == case_sum_polynomial(ctx)
traces = trace_closed_form(query) == trace_from_periods(query)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"routes_equal": routes, "traces_equal": traces, "peak_rss_mb": peak}))
"""


def _bernoulli_reference(k):
    """Ascending Fraction coefficients of B_k(x) from the recurrence B_0 = 1,
    B_j' = j*B_(j-1) with the integral of B_j over [0, 1] zero: no library
    Bernoulli number enters."""
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


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"CRITERION {number} FAIL: {description}", flush=True)
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s ({elapsed:.1f}s)"
    print(f"CRITERION {number} PASS: {description} ({elapsed:.1f}s)", flush=True)


def test_criterion_1_example_polynomial():
    with criterion(1, "level-1 weight-12 twisted period polynomial and proportionalities", 1.0):
        chi = kronecker_character(-3)
        pref = ExactNumber.from_rational(-2048) * sqrt_integer(3).inverse()
        zero = ExactNumber.zero()
        expected = ExactPolynomial(
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
        g1 = closed_form_polynomial(PeriodContext(1, 10, 1, chi))
        assert g1 == expected
        assert closed_form_polynomial(PeriodContext(1, 10, 3, chi)) == g1.scale(Fraction(-25, 48))
        assert closed_form_polynomial(PeriodContext(1, 10, 7, chi)) == g1.scale(Fraction(-25, 48))
        assert closed_form_polynomial(PeriodContext(1, 10, 5, chi)) == g1.scale(Fraction(5, 12))
        assert closed_form_polynomial(PeriodContext(1, 10, 9, chi)) == g1


def test_criterion_2_example_traces():
    with criterion(2, "level-1 weight-12 exact trace values", 1.0):
        chi = kronecker_character(-3)
        ctx = PeriodContext(1, 10, 1, chi)
        s3 = sqrt_integer(3)
        table = {
            1: Fraction(-(2**18) * 9, 5),
            3: Fraction(-(2**14) * 9, 5),
            5: Fraction(0),
            7: Fraction((2**14) * 9, 5),
            9: Fraction((2**18) * 9, 5),
        }
        for m, coeff in table.items():
            assert trace_closed_form(TraceQuery(ctx, m)) == s3 * coeff


def test_criterion_3_oracle_grid():
    with criterion(3, "case-sum oracle and trace cross-path on the full grid", 10.0):
        contexts = 0
        trace_checks = 0
        for modulus in GRID_MODULI:
            for chi in enumerate_primitive_characters(modulus):
                for level in GRID_LEVELS:
                    for w in GRID_WS:
                        for n in range(1, w):
                            ctx = PeriodContext(level, w, n, chi)
                            closed = closed_form_polynomial(ctx)
                            assert closed == case_sum_polynomial(ctx), (level, modulus, w, n)
                            contexts += 1
                            for m in range(0, w + 1):
                                if not ctx.parity_holds(m):
                                    continue
                                query = TraceQuery(ctx, m)
                                assert trace_closed_form(query) == trace_from_periods(query)
                                trace_checks += 1
        print(f"  grid: {contexts} contexts, {trace_checks} trace queries", flush=True)


PRINTED_RATIOS = {
    1: QuadSurd(Fraction(454494815973561283200, 11), Fraction(-495053625411273600, 11), D2),
    3: QuadSurd(Fraction(1710371411434851840, 11), Fraction(-1874940923128320, 11), D2),
    5: QuadSurd(Fraction(7923984224047200, 11), Fraction(-8900924205600, 11), D2),
    7: QuadSurd(Fraction(46543863219840, 11), Fraction(-56895592320, 11), D2),
    9: QuadSurd(Fraction(359949679200, 11), Fraction(-545421600, 11), D2),
    11: QuadSurd(469261440, -789120, D2),
}


def test_criterion_4_weight24_ratios():
    with criterion(4, "weight-24 eigenvectors and all five ratio pairs, both embeddings", 2.0):
        registry = load_fixtures()
        chi = kronecker_character(5)
        fixture = registry.matrix("t2-weight24-level1")
        pairs = eigen_decompose(fixture.coefficient_matrix)
        expected_vectors = {
            (QuadSurd(118041, 0, 1), QuadSurd(1135193, 19, D2)),
            (QuadSurd(118041, 0, 1), QuadSurd(1135193, -19, D2)),
        }
        assert {vec for _lam, vec in pairs} == expected_vectors

        for name, sign in (("sl2z-w24-even-plus", 1), ("sl2z-w24-even-minus", -1)):
            form = registry.eigenform(name)
            for m1 in (1, 3, 5, 7, 9):
                got = twisted_lambda_ratio(form, chi, m1, 11)
                printed = PRINTED_RATIOS[m1] / PRINTED_RATIOS[11]
                expected = printed if sign == 1 else printed.conjugate()
                assert got.base.rational_value() == expected.a, (name, m1)
                assert got.radical.rational_value() == expected.b, (name, m1)


def test_criterion_5_weight16_central_table():
    with criterion(5, "weight-16 newform: char poly, eigenvector, 78 central cross-ratios", 2.0):
        registry = load_fixtures()
        fixture = registry.matrix("t3-weight16-level2")
        from heckeperiods.eigenforms import char_poly

        # (x + 3348)^2 (x - 6252), ascending
        expected = ExactPolynomial([-70079318208, -30654288, 444, 1])
        assert char_poly(fixture.basis_action) == expected
        pairs = eigen_decompose(fixture.coefficient_matrix)
        newform_vecs = [vec for lam, vec in pairs if lam == QuadSurd(6252, 0, 1)]
        assert newform_vecs == [(QuadSurd(7, 0, 1), QuadSurd(110, 0, 1), QuadSurd(168, 0, 1))]

        table = registry.central_values
        form = registry.eigenform(table.newform)
        normalized = {}
        for disc in table.discriminants:
            chi = kronecker_character(disc)
            r = twisted_period_of_combination(form, chi, table.m)
            assert r.radical.is_zero()
            # (-D i)^(m+1) = D^8 at m = 7; peel off i and the sqrt(D) scale
            v = r.base * Fraction(disc) ** 8
            surd = recognize_surd(ExactNumber.zeta(4, 3) * v)
            square_part, free_part = square_and_squarefree_part(disc)
            assert surd is not None and surd.a == 0 and surd.d == free_part, disc
            normalized[disc] = (surd.b, square_part)
        discs = table.discriminants
        checked = 0
        for i, d1 in enumerate(discs):
            for d2 in discs[i + 1 :]:
                b1, s1 = normalized[d1]
                b2, s2 = normalized[d2]
                # v(D) = sqrt(D) * T(D) * (common factor), so b * s-part ratio
                # must match the table entries
                assert b1 * s2 * table.value(d2) == b2 * s1 * table.value(d1), (d1, d2)
                checked += 1
        assert checked == math.comb(13, 2)


def test_criterion_6_duality():
    with criterion(6, "residue-period duality on the restricted grid", 10.0):
        cache = {}

        def case_sum(level, w, n, h, chi):
            key = (level, chi.modulus, w, n, h)
            if key not in cache:
                cache[key] = residue_case_sum(PeriodContext(level, w, n, chi), h)
            return cache[key]

        checked = 0
        for modulus in (3, 5, 7):
            # the residue case-sums depend only on the modulus, so any
            # primitive character parameterizes the context
            chi = enumerate_primitive_characters(modulus)[0]
            for level in GRID_LEVELS:
                if math.gcd(level, modulus) != 1:
                    continue  # the dual residue -(Nh)^-1 needs gcd(N, D) = 1
                for w in GRID_WS:
                    for n in range(1, w):
                        for h in range(1, modulus):
                            poly = case_sum(level, w, n, h, chi)
                            for m in range(0, w + 1):
                                v = (-pow(level * h, -1, modulus)) % modulus
                                dual = case_sum(level, w, w - n, v, chi)
                                lhs = poly.coefficient(w - m) * (
                                    1 / Fraction((-1) ** m * math.comb(w, m))
                                )
                                rhs = dual.coefficient(m) * (
                                    1 / Fraction((-1) ** (w - m) * math.comb(w, m))
                                )
                                scale = (
                                    Fraction((-1) ** (n + m))
                                    * Fraction(level) ** (w - n - m)
                                    * Fraction(modulus) ** (w - 2 * m)
                                )
                                assert lhs == rhs * scale, (level, modulus, w, n, h, m)
                                checked += 1
        print(f"  duality: {checked} identities", flush=True)


def test_criterion_7_numerics():
    with criterion(7, "floating reproduction of the reference constants", 2.0):
        chi = kronecker_character(-3)
        assert abs(lambda_delta(2) - 0.003707710464948) < 1e-12
        petersson = petersson_delta_inverse()
        assert abs(petersson - 965845.709168185) / 965845.709168185 < 1e-6
        assert abs(assembled_twisted_lambda(1, chi) - (-228.22304046813742)) < 1e-8
        ctx = PeriodContext(1, 10, 1, chi)
        report = verify_trace_numeric(TraceQuery(ctx, 1))
        assert report.passed and report.rel_err < 1e-5
        assert abs(report.computed - (-817284.10841880)) < 1e-2
        # the same agreement holds on every admissible (m, n) pair here
        for n in (1, 3, 5, 7, 9):
            for m in (1, 3, 5, 7, 9):
                check = verify_trace_numeric(TraceQuery(PeriodContext(1, 10, n, chi), m))
                assert check.rel_err < 1e-5, (m, n)


def test_criterion_8_property_suites():
    with criterion(8, "algebraic property suites", 5.0):
        # Bernoulli addition formula, k <= 12, 100 random rational shifts
        rng = random.Random(20240810)
        for _ in range(100):
            k = rng.randint(0, 12)
            a = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            shifted = bernoulli_shifted_coeffs(k, a)
            expected = [
                math.comb(k, j) * _at(_bernoulli_reference(j), a)
                for j in range(k, -1, -1)
            ]
            assert shifted == expected

        # both defining expressions of the weighted Bernoulli polynomial agree
        for modulus in range(2, 13):
            for chi in enumerate_primitive_characters(modulus):
                for k in range(0, 11):
                    assert _via_residue_sum(k, chi) == _via_binomial(k, chi)

        # Gauss sum norm for every primitive character of modulus <= 40
        for modulus in range(2, 41):
            for chi in enumerate_primitive_characters(modulus):
                assert gauss_sum(chi) * gauss_sum(chi.conjugate()) == ExactNumber.from_rational(
                    chi.sign_at_minus_one() * modulus
                )

        # Bezout invariance of the four-argument character, 1000 random cases
        characters = []
        for modulus in (3, 4, 5, 7, 8, 12):
            characters.extend(enumerate_primitive_characters(modulus))
        checked = 0
        while checked < 1000:
            chi = rng.choice(characters)
            modulus = chi.modulus
            a = rng.randint(1, modulus - 1)
            c = rng.randint(1, modulus - 1)
            if math.gcd(a, c) != 1:
                continue
            ks = [k for k in range(1, modulus) if (modulus - k * a) > 0 and (modulus - k * a) % c == 0]
            if not ks:
                continue
            k = rng.choice(ks)
            ell = (modulus - k * a) // c
            b0, d0 = bezout_pair(a, c)
            t = rng.randint(-100, 100)
            shifted = chi.value((k * (b0 + t * a) + ell * (d0 + t * c)) % modulus)
            assert chi_four_tuple(chi, a, c, k, ell) == shifted
            checked += 1

        # parity vanishing of symmetrized-polynomial coefficients on the grid
        for modulus in GRID_MODULI:
            for chi in enumerate_primitive_characters(modulus):
                for level in GRID_LEVELS:
                    for w in GRID_WS:
                        for n in range(1, w):
                            ctx = PeriodContext(level, w, n, chi)
                            poly = closed_form_polynomial(ctx)
                            assert poly.degree() <= w
                            for m in range(0, w + 1):
                                if not ctx.parity_holds(m):
                                    assert poly.coefficient(w - m).is_zero(), (level, modulus, w, n, m)


def wide_moduli_oracle(moduli):
    """Closed form == case sum and both trace routes, N in {1, 2}, w = 10,
    n = 1, for the first character of each (order, parity) class of order
    >= 3 mod each modulus; returns (contexts, trace queries)."""
    contexts = 0
    trace_checks = 0
    for modulus in moduli:
        classes = {}
        for chi in enumerate_primitive_characters(modulus):
            if chi.order >= 3:
                classes.setdefault((chi.order, chi.sign_at_minus_one()), chi)
        for chi in classes.values():
            for level in (1, 2):
                ctx = PeriodContext(level, 10, 1, chi)
                label = (level, modulus, chi.order)
                assert closed_form_polynomial(ctx) == case_sum_polynomial(ctx), label
                contexts += 1
                for m in range(0, 11):
                    if not ctx.parity_holds(m):
                        continue
                    query = TraceQuery(ctx, m)
                    assert trace_closed_form(query) == trace_from_periods(query), (label, m)
                    trace_checks += 1
    return contexts, trace_checks


def test_criterion_9_wide_moduli():
    with criterion(9, "case-sum oracle and trace cross-path at moduli 23 and 29", 2.0):
        contexts, trace_checks = wide_moduli_oracle((23, 29))
        assert contexts == 12
        print(f"  wide moduli: {contexts} contexts, {trace_checks} trace queries", flush=True)


def test_criterion_10_wider_moduli():
    with criterion(10, "case-sum oracle and trace cross-path at moduli 31 and 37", 2.0):
        contexts, trace_checks = wide_moduli_oracle((31, 37))
        assert contexts == 26
        print(f"  wider moduli: {contexts} contexts, {trace_checks} trace queries", flush=True)


def test_criterion_11_widest_moduli():
    with criterion(11, "case-sum oracle and trace cross-path at moduli 41, 43 and 47", 2.0):
        contexts, trace_checks = wide_moduli_oracle((41, 43, 47))
        assert contexts == 28
        print(f"  widest moduli: {contexts} contexts, {trace_checks} trace queries", flush=True)


def test_criterion_12_order_66_family():
    with criterion(12, "case-sum oracle on the D = 67, order-66, N = 1, w = 22 family", 10.0):
        chi = next(chi for chi in enumerate_primitive_characters(67) if chi.order == 66)
        for n in range(1, 22):
            ctx = PeriodContext(1, 22, n, chi)
            assert closed_form_polynomial(ctx) == case_sum_polynomial(ctx), n
        print("  order-66 family: 21 contexts", flush=True)


def test_criterion_13_order_66_traces():
    with criterion(13, "both trace routes on the D = 67, order-66, N = 1, w = 22 family", 3.0):
        chi = next(chi for chi in enumerate_primitive_characters(67) if chi.order == 66)
        trace_checks = 0
        for n in range(1, 22):
            ctx = PeriodContext(1, 22, n, chi)
            for m in range(23):
                if not ctx.parity_holds(m):
                    continue
                query = TraceQuery(ctx, m)
                assert trace_closed_form(query) == trace_from_periods(query), (n, m)
                trace_checks += 1
        assert trace_checks == 241
        print(f"  order-66 family: {trace_checks} trace queries", flush=True)


def test_criterion_14_large_modulus():
    with criterion(14, "closed form, case sum and one trace pair at D = 131, order 130, under 300 MB", 10.0):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", LARGE_MODULUS_CHECK], capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        report = json.loads(run.stdout)
        assert report["routes_equal"] is True and report["traces_equal"] is True
        assert report["peak_rss_mb"] < 300, report
        print(f"  order-130 mod 131: peak RSS {report['peak_rss_mb']:.0f} MB", flush=True)


def test_criterion_15_highest_order_characters():
    with criterion(15, "case-sum oracle and trace cross-path, highest-order characters mod 53, 59, 61, 64", 5.0):
        contexts = 0
        trace_checks = 0
        for modulus in (53, 59, 61, 64):
            characters = enumerate_primitive_characters(modulus)
            top = max(chi.order for chi in characters)
            chi = next(chi for chi in characters if chi.order == top)
            for level in (1, 2):
                for n in range(1, 10):
                    ctx = PeriodContext(level, 10, n, chi)
                    label = (level, modulus, top, n)
                    assert closed_form_polynomial(ctx) == case_sum_polynomial(ctx), label
                    contexts += 1
                    for m in range(11):
                        if ctx.parity_holds(m):
                            query = TraceQuery(ctx, m)
                            assert trace_closed_form(query) == trace_from_periods(query), (label, m)
                            trace_checks += 1
        assert (contexts, trace_checks) == (72, 392)
        print(f"  highest orders: {contexts} contexts, {trace_checks} trace queries", flush=True)
