"""Package memos: bounded, and filled correctly by many threads at once."""

import sys
import threading

from heckeperiods import bernoulli, cyclotomic, numeric, periods
from heckeperiods.bernoulli import generalized_bernoulli_poly
from heckeperiods.characters import enumerate_primitive_characters, kronecker_character
from heckeperiods.periods import PeriodContext, closed_form_polynomial

THREADS = 8


def package_memos():
    return [
        value
        for module in (bernoulli, cyclotomic, numeric, periods)
        for value in vars(module).values()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    ]


def workload():
    quartic = next(c for c in enumerate_primitive_characters(5) if c.order == 4)
    chars = (kronecker_character(-3), kronecker_character(-4), quartic)
    polys = [closed_form_polynomial(PeriodContext(1, 10, n, chi)) for chi in chars for n in (1, 2)]
    polys += [closed_form_polynomial(PeriodContext(2, 10, 3, chi)) for chi in chars]
    polys += [generalized_bernoulli_poly(k, chi) for chi in chars for k in range(12)]
    return polys


def clear_memos():
    for memo in package_memos():
        memo.cache_clear()


def test_memos_are_bounded():
    memos = package_memos()
    assert closed_form_polynomial in memos and generalized_bernoulli_poly in memos
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
