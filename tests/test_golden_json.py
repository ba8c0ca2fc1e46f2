"""A fixed slice of outputs, serialized and hashed.

Every other test compares exact numbers with ``==``, which lifts both sides to
a common cyclotomic level first.  Only this one sees a change in the level a
coefficient is stored at, or any other change in the ``to_json()`` text."""

import hashlib
import json
import math

from heckeperiods import periods
from heckeperiods.bernoulli import generalized_bernoulli_number, generalized_bernoulli_poly
from heckeperiods.characters import enumerate_primitive_characters, gauss_sum
from heckeperiods.cyclotomic import ExactNumber, _bucket_sum, _expand, sqrt_integer
from heckeperiods.periods import (
    PeriodContext,
    case_contribution,
    case_sum_polynomial,
    closed_form_polynomial,
    residue_case_sum,
)
from heckeperiods.traces import TraceQuery, trace_closed_form, trace_from_periods

# sha256 of golden_values() serialized one line each; an intended change of
# output recomputes it with golden_digest() and says why
GOLDEN_SHA256 = "1db712738d9a800882ab0e6a7d1a69e41f854a68116aa0c66862ba2dbdbe1d0f"


def golden_values():
    for d in (3, 4, 5, 7, 8):
        for chi in enumerate_primitive_characters(d):
            yield gauss_sum(chi)
            for k in range(-1, 12):
                yield generalized_bernoulli_poly(k, chi)
                yield generalized_bernoulli_number(k, chi)
            for level in (1, 2):
                for n in range(1, 10):
                    ctx = PeriodContext(level, 10, n, chi)
                    yield closed_form_polynomial(ctx)
                    yield case_sum_polynomial(ctx)
                    for m in range(11):
                        if ctx.parity_holds(m):
                            yield trace_closed_form(TraceQuery(ctx, m))
                            yield trace_from_periods(TraceQuery(ctx, m))
                    if level == 1 and n <= 2:
                        for h in range(1, d):
                            if math.gcd(h, d) == 1:
                                yield residue_case_sum(ctx, h)
                                yield from (case_contribution(j, h, ctx) for j in range(1, 7))
    for n in (2, 3, 5, 6, 7):
        yield sqrt_integer(n)


# sha256 of high_level_values(), the same way: levels 272 and 684, where
# field products are long enough to take the packed-integer route
HIGH_LEVEL_SHA256 = "eac5b7c47c87caf2e6f2b4f6df8b6c2d72f3c16a0e1e4a33baeaf9eeaa928069"


def high_level_values():
    for d, order in ((19, 18), (17, 16)):
        chi = next(c for c in enumerate_primitive_characters(d) if c.order == order)
        tau = gauss_sum(chi)
        yield tau
        yield tau.inverse()
        yield gauss_sum(chi.conjugate())
        yield gauss_sum(chi.conjugate()).inverse()
        for level in (1, 2):
            ctx = PeriodContext(level, 10, 1, chi)
            yield closed_form_polynomial(ctx)
            yield case_sum_polynomial(ctx)
            for m in range(11):
                if ctx.parity_holds(m):
                    yield trace_closed_form(TraceQuery(ctx, m))
                    yield trace_from_periods(TraceQuery(ctx, m))


# sha256 of wide_values(), the same way: the highest-order character at
# D = 41, 43, 47 and 67, w = 22, where the quadruple sums pack the widest
# digits.  Both routes keep the shared constant _prefactor(conj chi, w) apart
# as monomials, so it is hashed once per character, expanded to the number it
# stands for, and each polynomial by its coefficients before it (their class
# sums reduced at the order; positions past the degree read a level-1 zero, so
# the degree is hashed too): the same information as their to_json(), without
# expanding 48 polynomials at levels up to 8844
WIDE_SHA256 = "34c0de640f29524672bea8b98882caf5fd7b980789c5a490d7815f8f9ed8c528"


def wide_values():
    for d in (41, 43, 47, 67):
        chi = max(enumerate_primitive_characters(d), key=lambda c: c.order)
        yield _expand(ExactNumber.one(), periods._prefactor(chi.conjugate(), 22))
        for level in (1, 2):
            for n in (1, 11, 21):
                ctx = PeriodContext(level, 22, n, chi)
                for poly in (closed_form_polynomial(ctx), case_sum_polynomial(ctx)):
                    for k in range(23):
                        if k > poly.degree():
                            yield ExactNumber.zero()
                            continue
                        order, den, nums = poly.class_sums(k)
                        yield _bucket_sum(nums, order, den)


def golden_digest(values=golden_values) -> str:
    digest = hashlib.sha256()
    for value in values():
        digest.update(json.dumps(value.to_json(), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_outputs_match_the_golden_json():
    assert golden_digest() == GOLDEN_SHA256


def test_high_level_outputs_match_the_golden_json():
    assert golden_digest(high_level_values) == HIGH_LEVEL_SHA256


def test_wide_quadruple_sums_match_the_golden_json():
    assert golden_digest(wide_values) == WIDE_SHA256
