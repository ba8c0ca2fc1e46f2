"""Floating checks: tau expansion, completed L-values, path integrals."""

import math
import sys
import threading

import pytest

from heckeperiods import numeric
from heckeperiods.numeric import (
    NumericCheck,
    QExpansion,
    assembled_twisted_lambda,
    incomplete_gamma_integer,
    lambda_delta,
    numeric_twisted_period,
    petersson_delta_inverse,
    tau_coefficients,
    verify_trace_numeric,
    zeta_value,
)
from heckeperiods.periods import ContextError, PeriodContext
from heckeperiods.traces import TraceQuery

TAU_FIRST_TEN = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


def brute_force_tau(m):
    # direct O(m^2) convolution of the 24th power of the Euler product
    series = [0] * m
    series[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < m or k * (3 * k + 1) // 2 < m:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < m:
                series[g] = -1 if k % 2 else 1
        k += 1
    power = [1] + [0] * (m - 1)
    for _ in range(24):
        nxt = [0] * m
        for i, x in enumerate(power):
            if x:
                for j, y in enumerate(series):
                    if y and i + j < m:
                        nxt[i + j] += x * y
        power = nxt
    return tuple(power)


def test_tau_against_brute_force():
    m = 40
    assert tau_coefficients(m).coefficients == brute_force_tau(m)


def test_tau_first_values():
    assert tau_coefficients(10).coefficients == TAU_FIRST_TEN


def test_tau_multiplicativity_spot_checks():
    tau = tau_coefficients(40)
    assert tau.a(6) == tau.a(2) * tau.a(3)
    assert tau.a(10) == tau.a(2) * tau.a(5)
    assert tau.a(35) == tau.a(5) * tau.a(7)
    # Hecke recursion at p = 2: tau(4) = tau(2)^2 - 2^11
    assert tau.a(4) == tau.a(2) ** 2 - 2**11


def test_tau_at_petersson_size(monkeypatch):
    # tau(1..10^4) is what petersson_delta_inverse(10**4) sums over
    monkeypatch.setattr(numeric, "_tau_cache", [])
    m = 10**4
    tau = tau_coefficients(m)
    assert tau.truncation() == m
    # Ramanujan: tau(n) = sigma_11(n) mod 691
    sigma = [0] * (m + 1)
    for d in range(1, m + 1):
        power = pow(d, 11, 691)
        for k in range(d, m + 1, d):
            sigma[k] += power
    for n in range(1, m + 1):
        assert (tau.a(n) - sigma[n]) % 691 == 0, n
    # Hecke relation at p^2 and multiplicativity at the largest coprime pair
    for p in range(2, 98):
        if all(p % q for q in range(2, p)):
            assert tau.a(p * p) == tau.a(p) ** 2 - p**11, p
    assert tau.a(97 * 103) == tau.a(97) * tau.a(103)
    # a shorter request is served from the prefix
    assert tau_coefficients(40).coefficients == brute_force_tau(40)


def test_a_short_tau_request_never_shrinks_the_table(monkeypatch):
    # the short request copies the (empty) table and is paused inside its
    # recurrence while a long one computes and publishes 1000 coefficients
    monkeypatch.setattr(numeric, "_tau_cache", [])
    paused, resume = threading.Event(), threading.Event()
    pentagonal = numeric._pentagonal_terms

    class PausedOnce(list):
        def __iter__(self):
            if not paused.is_set():
                paused.set()
                resume.wait(30)
            return super().__iter__()

    monkeypatch.setattr(
        numeric, "_pentagonal_terms", lambda m: PausedOnce(pentagonal(m)) if m == 150 else pentagonal(m)
    )
    short = []
    thread = threading.Thread(target=lambda: short.append(tau_coefficients(150)))
    thread.start()
    try:
        assert paused.wait(30)
        long = tau_coefficients(1000)
    finally:
        resume.set()
        thread.join(30)
    assert not thread.is_alive()
    assert len(numeric._tau_cache) == 1000
    assert short[0].coefficients == long.coefficients[:150]


def test_concurrent_tau_requests_keep_the_longest_table(monkeypatch):
    monkeypatch.setattr(numeric, "_tau_cache", [])
    # the longest requests start first, so shorter ones finish after them
    sizes = [400 * k for k in range(8, 0, -1)]
    results = {}
    start = threading.Barrier(len(sizes))

    def request(m):
        start.wait(30)
        results[m] = tau_coefficients(m)

    threads = [threading.Thread(target=request, args=(m,)) for m in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(numeric._tau_cache) == max(sizes)
    longest = results[max(sizes)].coefficients
    for m in sizes:
        assert results[m].coefficients == longest[:m]


def test_qexpansion_validation():
    with pytest.raises(ValueError):
        QExpansion((2, 3), 12, 1)
    q = tau_coefficients(5)
    assert q.weight == 12 and q.level == 1 and q.truncation() == 5


@pytest.mark.parametrize("m", [0, -3])
def test_tau_rejects_empty_prefix(m):
    with pytest.raises(ContextError):
        tau_coefficients(m)


def test_incomplete_gamma():
    assert incomplete_gamma_integer(1, 2.0) == pytest.approx(math.exp(-2))
    # Gamma(3, 0) = 2! = Gamma(3)
    assert incomplete_gamma_integer(3, 0.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        incomplete_gamma_integer(0, 1.0)


def test_lambda_delta_reference():
    assert abs(lambda_delta(2) - 0.003707710464948) < 1e-12


def test_lambda_delta_symmetry():
    for s in range(1, 12):
        assert abs(lambda_delta(s) - lambda_delta(12 - s)) < 1e-12
    with pytest.raises(ValueError):
        lambda_delta(0)


def test_petersson_reference():
    value = petersson_delta_inverse(10**4)
    assert abs(value - 965845.709168185) / 965845.709168185 < 1e-6
    assert abs(value - 965845.709) < 1e-3


def test_petersson_is_bit_identical_from_100_terms():
    # the weighted tau sum falls like n^-9, so 100 terms already fix every bit
    values = {petersson_delta_inverse(m) for m in (100, 200, 400, 800, 10**4)}
    assert values == {petersson_delta_inverse()}


def test_twisted_period_requires_coprime():
    with pytest.raises(ValueError):
        numeric_twisted_period(1, 3, 3)


def test_assembled_twisted_lambda_references(chi3):
    l2 = assembled_twisted_lambda(1, chi3)
    assert abs(l2 - (-228.22304046813742)) < 1e-8
    l4 = assembled_twisted_lambda(3, chi3)
    assert abs(l4 - (-14.263940029258589)) < 1e-8
    l6 = assembled_twisted_lambda(5, chi3)
    assert abs(l6) < 1e-8


def test_verify_trace_reference(chi3):
    ctx = PeriodContext(1, 10, 1, chi3)
    report = verify_trace_numeric(TraceQuery(ctx, 1))
    assert isinstance(report, NumericCheck)
    assert report.passed and report.rel_err < 1e-5
    assert abs(report.computed - (-817284.10841880)) < 1e-3
    data = report.to_json()
    assert set(data) == {"expected", "computed", "abs_err", "rel_err", "pass"}


def test_verify_trace_central_zero(chi3):
    ctx = PeriodContext(1, 10, 1, chi3)
    report = verify_trace_numeric(TraceQuery(ctx, 5))
    assert report.passed and report.abs_err < 1e-5


def test_verify_trace_passes_its_truncation_to_every_sum(chi3, monkeypatch):
    seen = {}

    def spy(original):
        def wrapped(*args):
            seen[original.__name__] = args
            return original(*args)

        return wrapped

    for name in ("lambda_delta", "petersson_delta_inverse", "assembled_twisted_lambda"):
        monkeypatch.setattr(numeric, name, spy(getattr(numeric, name)))
    ctx = PeriodContext(1, 10, 1, chi3)
    assert verify_trace_numeric(TraceQuery(ctx, 1), 120).passed
    assert seen == {
        "assembled_twisted_lambda": (1, chi3, 120),
        "lambda_delta": (2, 120),
        "petersson_delta_inverse": (120,),
    }


def test_verify_trace_level_restriction(chi3):
    ctx = PeriodContext(2, 10, 1, chi3)
    with pytest.raises(ValueError):
        verify_trace_numeric(TraceQuery(ctx, 1))


def test_zeta_value():
    assert zeta_value(2) == pytest.approx(math.pi**2 / 6, rel=1e-9)
