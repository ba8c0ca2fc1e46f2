"""The exact L-value trace: closed form against the period route."""

import time
from fractions import Fraction

import pytest

from heckeperiods.characters import enumerate_primitive_characters
from heckeperiods.cyclotomic import recognize_surd, sqrt_integer
from heckeperiods.periods import ContextError, ParityError, PeriodContext
from heckeperiods.traces import TraceQuery, trace_closed_form, trace_from_periods


def test_level_one_anchor_values(chi3):
    ctx = PeriodContext(1, 10, 1, chi3)
    s3 = sqrt_integer(3)
    expected = {
        1: Fraction(-2359296, 5),
        3: Fraction(-147456, 5),
        5: Fraction(0),
        7: Fraction(147456, 5),
        9: Fraction(2359296, 5),
    }
    for m, coeff in expected.items():
        value = trace_closed_form(TraceQuery(ctx, m))
        assert value == s3 * coeff, m


def test_power_of_two_ratio(chi3):
    ctx = PeriodContext(1, 10, 1, chi3)
    t1 = trace_closed_form(TraceQuery(ctx, 1))
    t3 = trace_closed_form(TraceQuery(ctx, 3))
    assert t1 == t3 * 16


def test_parity_rejection(chi3, chi5):
    ctx = PeriodContext(1, 10, 1, chi3)
    with pytest.raises(ParityError):
        TraceQuery(ctx, 2)
    # even character: m + n must be odd
    ctx5 = PeriodContext(1, 10, 1, chi5)
    with pytest.raises(ParityError):
        TraceQuery(ctx5, 1)
    TraceQuery(ctx5, 2)  # fine


def test_m_range_validation(chi3):
    ctx = PeriodContext(1, 10, 1, chi3)
    with pytest.raises(ContextError):
        TraceQuery(ctx, 11)
    with pytest.raises(ContextError):
        TraceQuery(ctx, -1)


def test_routes_agree_with_degenerate_indices(chi3, chi5):
    # m = 0 and m = w drive the binomial-vanishing convention
    for chi in (chi3, chi5):
        for level in (1, 2, 3, 4):
            for n in (1, 2, 9):
                ctx = PeriodContext(level, 10, n, chi)
                for m in (0, 1, 2, 9, 10):
                    if not ctx.parity_holds(m):
                        continue
                    q = TraceQuery(ctx, m)
                    assert trace_closed_form(q) == trace_from_periods(q), (level, n, m)


def test_even_n_brings_in_sqrt_level(chi5):
    # N = 2 with even n: the value is a rational multiple of sqrt(10),
    # so its square is rational
    ctx = PeriodContext(2, 10, 2, chi5)
    value = trace_closed_form(TraceQuery(ctx, 1))
    surd = recognize_surd(value)
    assert surd is not None and surd.a == 0 and surd.d == 10
    assert (value * value).is_rational()


def test_quartic_character_routes_agree():
    quartic = next(c for c in enumerate_primitive_characters(5) if c.order == 4)
    for level in (1, 2):
        for n in (1, 2, 3):
            ctx = PeriodContext(level, 10, n, quartic)
            for m in range(0, 11):
                if not ctx.parity_holds(m):
                    continue
                q = TraceQuery(ctx, m)
                assert trace_closed_form(q) == trace_from_periods(q)


def test_sign_flip_under_m_reflection(chi3):
    # the anchor table is antisymmetric under m -> w - m here
    ctx = PeriodContext(1, 10, 1, chi3)
    for m in (1, 3):
        a = trace_closed_form(TraceQuery(ctx, m))
        b = trace_closed_form(TraceQuery(ctx, 10 - m))
        assert a == -b


def test_routes_agree_at_a_ten_digit_prime_level(chi3):
    # (i sqrt N)^e factors N alone, never N^e: at N = 10^9 + 7 the trace
    # takes milliseconds, where trial division of N^e would not finish
    start = time.monotonic()
    for n, m in ((1, 1), (2, 2), (1, 3)):
        q = TraceQuery(PeriodContext(10**9 + 7, 10, n, chi3), m)
        assert trace_closed_form(q) == trace_from_periods(q), (n, m)
    assert time.monotonic() - start < 2.0
