"""Package memos: bounded, and filled correctly by many threads at once."""

import importlib
import pkgutil
import sys
import threading

import heckeperiods
from heckeperiods import bernoulli, characters, cyclotomic, periods, traces
from heckeperiods.bernoulli import generalized_bernoulli_poly
from heckeperiods.characters import enumerate_primitive_characters, gauss_sum, kronecker_character
from heckeperiods.numeric import tau_coefficients
from heckeperiods.periods import PeriodContext, case_sum_polynomial, closed_form_polynomial
from heckeperiods.traces import TraceQuery, trace_closed_form

THREADS = 8


# every memo of the package: one is added or dropped only on purpose, when a
# workload reuses its entries
MEMOS = {
    "bernoulli._bernoulli_numbers",
    "bernoulli._bernoulli_row",
    "bernoulli._weighted_coordinates",
    "bernoulli._weighted_number_direct",
    "characters._conjugate",
    "cyclotomic._power_table",
    "cyclotomic.sqrt_integer",
    "numeric.tau_coefficients",
    "periods._case_walk",
    "periods._prefactor",
    "periods._quadruple_buckets",
    "periods._quadruple_walk",
    "periods.closed_form_polynomial",
    "traces._closed_form_traces",
    "traces._trace_monomials",
}


def package_memos():
    modules = [
        importlib.import_module(f"heckeperiods.{info.name}")
        for info in pkgutil.iter_modules(heckeperiods.__path__)
    ]
    return [
        value
        for module in [heckeperiods, *modules]
        for value in vars(module).values()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    ]


def workload():
    quartic = next(c for c in enumerate_primitive_characters(5) if c.order == 4)
    chars = (kronecker_character(-3), kronecker_character(-4), quartic)
    out = [closed_form_polynomial(PeriodContext(1, 10, n, chi)) for chi in chars for n in (1, 2)]
    out += [closed_form_polynomial(PeriodContext(2, 10, 3, chi)) for chi in chars]
    out += [case_sum_polynomial(PeriodContext(level, 10, 3, chi)) for chi in chars for level in (1, 2)]
    out += [generalized_bernoulli_poly(k, chi) for chi in chars for k in range(12)]
    out += [gauss_sum(chi) for chi in chars]
    out += [chi.conjugate() for chi in chars]
    out += [cyclotomic.sqrt_integer(n) for n in (2, 3, 6)]
    out.append(tau_coefficients(300))
    for chi in chars:
        ctx = PeriodContext(2, 10, 3, chi)
        out += [trace_closed_form(TraceQuery(ctx, m)) for m in range(11) if ctx.parity_holds(m)]
    return out


def clear_memos():
    for memo in package_memos():
        memo.cache_clear()


def test_the_package_memos_are_pinned():
    names = {f"{memo.__module__.rsplit('.', 1)[-1]}.{memo.__qualname__}" for memo in package_memos()}
    assert names == MEMOS


def test_memos_are_bounded():
    memos = package_memos()
    assert closed_form_polynomial in memos and bernoulli._weighted_coordinates in memos
    assert traces._trace_monomials in memos
    assert traces._closed_form_traces in memos
    assert characters._conjugate in memos
    assert periods._case_walk in memos and periods._quadruple_walk in memos
    assert periods._quadruple_buckets in memos
    assert cyclotomic.sqrt_integer in memos and tau_coefficients in memos
    for memo in memos:
        assert memo.cache_info().maxsize is not None, memo.__qualname__


def test_threads_fill_cold_memos_consistently():
    clear_memos()
    serial = workload()
    clear_memos()
    results = [None] * THREADS
    failures = []

    def worker(slot):
        try:
            results[slot] = workload()
        except Exception as exc:  # reported through the assertion below
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    for result in results:
        assert result == serial
