"""The exact L-value trace: closed form against the period route."""

import math
import random
import time
from fractions import Fraction

import pytest

from heckeperiods import cli, cyclotomic, periods, traces
from heckeperiods.bernoulli import _weighted_coordinates
from heckeperiods.characters import enumerate_primitive_characters, gauss_sum, kronecker_character
from heckeperiods.cyclotomic import (
    ExactNumber,
    _TimesConstant,
    euler_phi,
    recognize_surd,
    sqrt_integer,
    sqrt_positive_integer,
)
from heckeperiods.periods import (
    ContextError,
    ParityError,
    PeriodContext,
    case_sum_polynomial,
    closed_form_polynomial,
    twisted_period,
)
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


def test_traces_and_periods_admit_m_alike(chi3, chi5):
    # one gate admits m for a trace and a period: both succeed, or both
    # raise the same exception with the same message
    quartic = next(chi for chi in enumerate_primitive_characters(5) if chi.order == 4)
    seen = set()
    for chi in (chi3, chi5, quartic):
        for w in (10, 12):
            for n in range(1, w):
                ctx = PeriodContext(1, w, n, chi)
                for m in range(-1, w + 2):
                    outcomes = []
                    for admit in (TraceQuery, twisted_period):
                        try:
                            admit(ctx, m)
                            outcomes.append(None)
                        except (ContextError, ParityError) as exc:
                            outcomes.append((type(exc), str(exc)))
                    assert outcomes[0] == outcomes[1], (chi.modulus, chi.order, w, n, m)
                    seen.add(outcomes[0] and outcomes[0][0])
    assert seen == {None, ContextError, ParityError}


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


def _dense_trace_constant(inverse_gauss_sum, level, w, e):
    """(2i)^(w+1) (i sqrt N)^e / tau(conj chi) by plain field arithmetic, with
    (i sqrt N)^e = i^e N^(e // 2) sqrt(N)^(e mod 2): sqrt N enters at odd e."""
    two_i = ExactNumber.zeta(4) * 2
    root = sqrt_positive_integer(level) if e % 2 else 1
    i_sqrt = ExactNumber.zeta(4) ** e * level ** (e // 2) * root
    return two_i ** (w + 1) * i_sqrt * inverse_gauss_sum


def test_sparse_trace_constant_equals_its_dense_definition():
    # the tau(chi) monomials of the trace constant, kept apart and expanded
    # on the first read, against the constant built with the Gauss-sum
    # inverse, for zero, rational and dense numbers of Q(zeta_R); odd e
    # brings in sqrt 2, sqrt 3, sqrt 5 and sqrt 6
    rng = random.Random(20211)
    w = 10
    checked = 0
    for d in range(3, 14):
        for chi in enumerate_primitive_characters(d):
            order = chi.order
            inverse = gauss_sum(chi.conjugate()).inverse()
            constants = {}
            for level in (1, 2, 3, 5, 6):
                for n in range(1, w):
                    ctx = PeriodContext(level, w, n, chi)
                    for m in range(w + 1):
                        if not ctx.parity_holds(m):
                            continue
                        e = m + n + 2
                        if e not in constants:
                            constants[e] = _dense_trace_constant(inverse, level, w, e)
                        kind = checked % 3
                        if kind == 0:
                            x = ExactNumber.zero(order)
                        elif kind == 1:
                            x = ExactNumber.from_rational(Fraction(rng.randint(-99, 99), rng.randint(1, 99)), order)
                        else:
                            coords = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(euler_phi(order))]
                            x = ExactNumber(order, coords)
                        scale, constant = traces._trace_constant(ctx, m)
                        sparse = _TimesConstant((x.level, x._den, [c * scale for c in x._nums]), constant)
                        dense = x * constants[e]
                        assert sparse.is_zero() == x.is_zero(), (d, level, n, m)
                        # at one level, == compares the lowest-terms integer
                        # fields that to_json prints; print the dense ones
                        assert sparse.level == dense.level and sparse == dense, (d, level, n, m)
                        if kind == 2:
                            assert sparse.to_json() == dense.to_json(), (d, level, n, m)
                        checked += 1
                constants.clear()
    assert checked == 9145


def test_prefactor_is_the_gauss_sum_over_the_modulus():
    # 1/tau(conj chi) = chi(-1) tau(chi)/D: the polynomial's kept-apart
    # constant (read off the inverse), expanded here, and the trace constant
    # (the tau(chi) form) agree; w = 10 and 12 turn (2i)^(w+1) by i^3 and i^1
    for w in (10, 12):
        two_i = (ExactNumber.zeta(4) * 2) ** (w + 1)
        for d in range(3, 31):
            for chi in enumerate_primitive_characters(d):
                expected = two_i * gauss_sum(chi) * Fraction(chi.sign_at_minus_one(), d)
                prefactor = cyclotomic._expand(ExactNumber.one(), periods._prefactor(chi.conjugate(), w))
                assert prefactor == expected, (w, d, chi.order)


def test_prefactor_is_built_below_its_level(monkeypatch):
    # (2i)^(w+1) / tau(conj chi) is the product of one monomial and the
    # inverse's monomials: for chi of order 11 mod 23, R and D odd, nothing
    # folds above lcm(R, D) = 253, no reduction table is asked for at the
    # radical 506 of lcm(4, R, D) = 1012, and the one inverse is the Gauss
    # sum's (the memo is bypassed, so the constant is built afresh)
    chi = next(chi for chi in enumerate_primitive_characters(23) if chi.order == 11)
    folds, tables, inverses = [], [], []
    fold, power_table, inverse = cyclotomic._fold, cyclotomic._power_table, ExactNumber.inverse

    def counting_fold(values, level):
        folds.append(level)
        return fold(values, level)

    def counting_table(level):
        tables.append(level)
        return power_table(level)

    def counting_inverse(self):
        inverses.append(self.level)
        return inverse(self)

    monkeypatch.setattr(cyclotomic, "_fold", counting_fold)
    monkeypatch.setattr(cyclotomic, "_power_table", counting_table)
    monkeypatch.setattr(ExactNumber, "inverse", counting_inverse)
    constant = periods._prefactor.__wrapped__(chi.conjugate(), 10)
    monkeypatch.undo()
    assert constant[0] == math.lcm(4, 11, 23) == 1012
    assert folds and max(folds) <= 253, sorted(set(folds))
    assert tables and max(tables) <= 253, sorted(set(tables))
    assert inverses == [253]
    assert constant == periods._prefactor(chi.conjugate(), 10)


def test_trace_routes_make_no_product_at_the_constant_level(monkeypatch):
    # both trace routes enter the field once, through the tau(chi) monomials
    # of the trace constant: on a fresh context no ExactNumber product
    # reaches its level lcm(4, R, D)
    chi = next(chi for chi in enumerate_primitive_characters(23) if chi.order == 22)
    periods._prefactor(chi.conjugate(), 10)  # the polynomial's constant, built once
    closed_form_polynomial.cache_clear()
    traces._trace_monomials.cache_clear()
    ctx = PeriodContext(1, 10, 3, chi)
    top = math.lcm(4, 22, 23)
    levels = []
    mul = ExactNumber.__mul__

    def counting(self, other):
        levels.append(math.lcm(self.level, getattr(other, "level", 1)))
        return mul(self, other)

    monkeypatch.setattr(ExactNumber, "__mul__", counting)
    monkeypatch.setattr(ExactNumber, "__rmul__", counting)
    values = []
    for m in range(11):
        if ctx.parity_holds(m):
            q = TraceQuery(ctx, m)
            values.append((trace_closed_form(q), trace_from_periods(q)))
    assert values and all(a == b and a.level == top for a, b in values)
    assert top not in levels


def test_routes_compare_their_class_sums_unreduced(monkeypatch):
    # a polynomial keeps its exponent-class sums until a coefficient is
    # read: on a fresh context (order-6 chi mod 7, N = 2, w = 10, n = 3;
    # the Bernoulli and constant memos filled, the polynomial memo cleared),
    # closed form == case sum builds no element of Q(zeta_6) and folds at
    # most w + 1 times.  A trace keeps its class sums too: each route hands
    # them over unreduced (the period route its coefficient times its
    # rational), so a trace pair builds no element of Q(zeta_6), and since
    # the cross-multiplied difference of the two routes' sums is zero entry
    # by entry, == decides it with no fold.  Sums that differ by a multiple
    # of Phi_6 still fold once, and compare equal; a changed entry compares
    # unequal
    chi = next(chi for chi in enumerate_primitive_characters(7) if chi.order == 6)
    ctx = PeriodContext(2, 10, 3, chi)
    closed_form_polynomial(ctx)
    closed_form_polynomial.cache_clear()
    folds, stores = [], []
    fold, store = cyclotomic._fold, cyclotomic._store

    def counting_fold(values, level):
        folds.append(level)
        return fold(values, level)

    def counting_store(number, level, den, nums):
        stores.append(level)
        return store(number, level, den, nums)

    monkeypatch.setattr(cyclotomic, "_fold", counting_fold)
    monkeypatch.setattr(cyclotomic, "_store", counting_store)
    assert closed_form_polynomial(ctx) == case_sum_polynomial(ctx)
    assert 6 not in stores, stores
    assert 0 < len(folds) <= 11, folds
    queries = [TraceQuery(ctx, m) for m in range(11) if ctx.parity_holds(m)]
    assert len(queries) == 5
    for q in queries:
        closed = trace_closed_form(q)  # fills the trace constant's memo
        del folds[:]
        assert trace_from_periods(q) == closed, q.m
        assert folds == [], (q.m, folds)
        del folds[:], stores[:]
        assert trace_closed_form(q) == trace_from_periods(q), q.m
        assert 6 not in stores and folds == [], (q.m, stores, folds)
        # x * (1 - x + x^2) = x * Phi_6 vanishes at zeta_6
        order, den, nums = closed._sums
        assert order == 6 and len(nums) == 6
        shifted = [x + 5 * phi for x, phi in zip(nums, (0, 1, -1, 1, 0, 0))]
        assert shifted != list(nums)
        assert _TimesConstant((order, den, shifted), closed._constant) == closed, q.m
        assert folds == [6] and 6 not in stores, (q.m, folds, stores)
        changed = [nums[0] + den, *nums[1:]]
        assert _TimesConstant((order, den, changed), closed._constant) != closed, q.m
        assert folds == [6, 6] and 6 not in stores, (q.m, folds, stores)


def _counting_expansions(monkeypatch) -> list:
    """Record the level of every expansion of a kept-apart constant."""
    levels = []
    expand = cyclotomic._expand

    def counting(part, constant):
        levels.append(constant[0])
        return expand(part, constant)

    monkeypatch.setattr(cyclotomic, "_expand", counting)
    return levels


def test_trace_routes_compare_in_the_character_field(monkeypatch):
    # the two routes keep the trace constant apart and compare their numbers
    # in Q(zeta_R): on fresh contexts at D = 23, once the polynomial (and its
    # factor) is built, no fold runs above R, for the odd order-22 and the
    # even order-11 character, at N = 1 and at N = 2, where sqrt 2 enters the
    # even one's constant
    characters = enumerate_primitive_characters(23)
    sqrt_two_seen = False
    for order in (22, 11):
        chi = next(chi for chi in characters if chi.order == order)
        for level in (1, 2):
            closed_form_polynomial.cache_clear()
            traces._trace_monomials.cache_clear()
            traces._double_sum_polynomials.cache_clear()
            ctx = PeriodContext(level, 10, 3, chi)
            closed_form_polynomial(ctx)
            folds = []
            fold = cyclotomic._fold

            def recording(values, at):
                folds.append(at)
                return fold(values, at)

            monkeypatch.setattr(cyclotomic, "_fold", recording)
            expansions = _counting_expansions(monkeypatch)
            queries = [TraceQuery(ctx, m) for m in range(11) if ctx.parity_holds(m)]
            for q in queries:
                closed, from_periods = trace_closed_form(q), trace_from_periods(q)
                before = len(folds)
                assert closed == from_periods, (order, level, q.m)
                # the routes' class sums agree entry by entry: no fold decides it
                assert len(folds) == before, (order, level, q.m, folds[before:])
            assert queries and max(folds, default=0) <= order, (order, level, sorted(set(folds)))
            assert not expansions
            monkeypatch.undo()
            sqrt_two_seen |= any(trace_closed_form(q).level % 8 == 0 for q in queries)
    assert sqrt_two_seen


def test_a_trace_is_an_exact_number(chi3, chi5):
    # a kept-apart trace equals the plain number read back from its JSON,
    # from either side of ==, whichever route made it, and differs from
    # that number plus 1
    quartic = next(chi for chi in enumerate_primitive_characters(5) if chi.order == 4)
    checked = 0
    for chi, level, n in ((chi3, 1, 1), (chi5, 2, 2), (quartic, 2, 3), (chi3, 3, 9)):
        ctx = PeriodContext(level, 10, n, chi)
        for m in range(11):
            if not ctx.parity_holds(m):
                continue
            q = TraceQuery(ctx, m)
            plain = ExactNumber.from_json(trace_closed_form(q).to_json())
            for route in (trace_closed_form, trace_from_periods):
                assert isinstance(route(q), ExactNumber)
                assert route(q) == plain and plain == route(q), (chi, level, n, m)
                assert route(q) != plain + 1 and plain + 1 != route(q), (chi, level, n, m)
                assert route(q).to_json() == plain.to_json()
            checked += 1
    assert checked == 20


def test_zero_test_of_a_trace_reads_its_character_field_part(monkeypatch):
    # S_14(SL_2(Z)) = 0, so every trace at level 1, weight 14 is an exact
    # zero; deciding so expands nothing, nor does deciding a nonzero trace
    expansions = _counting_expansions(monkeypatch)
    ctx = PeriodContext(1, 12, 1, kronecker_character(-3))
    for m in (1, 5, 11):
        q = TraceQuery(ctx, m)
        assert trace_closed_form(q).is_zero() and trace_from_periods(q).is_zero(), m
    assert not trace_closed_form(TraceQuery(PeriodContext(1, 10, 1, kronecker_character(-3)), 1)).is_zero()
    assert not expansions


@pytest.mark.parametrize("form", ["json", "text"])
def test_a_trace_request_expands_once(monkeypatch, capsys, form):
    expansions = _counting_expansions(monkeypatch)
    argv = ["trace", "--level", "2", "--weight", "12", "--character", "kronecker:5", "--m", "1", "--n", "2"]
    assert cli.main(argv + ["--format", form]) == 0
    assert capsys.readouterr().out
    assert len(expansions) == 1


def test_trace_closed_form_builds_no_weighted_polynomial():
    # the closed form reads weighted Bernoulli numbers, not the constant
    # terms of whole polynomials: with the polynomial memo emptied, a trace
    # on a context whose closed form is built leaves it empty
    chi = next(chi for chi in enumerate_primitive_characters(7) if chi.order == 6)
    ctx = PeriodContext(1, 10, 3, chi)
    closed_form_polynomial(ctx)
    _weighted_coordinates.cache_clear()
    trace_closed_form(TraceQuery(ctx, 5))
    assert _weighted_coordinates.cache_info().currsize == 0


def _term_by_term_double_sum(ctx, m):
    """2(-1)^(m+1) times sum over quadruples of
    sum_r (-1)^r C(n, r) C(w-n, w-m-r) a^r c^(w-m-r) ell^(n-r) k^(m-n+r),
    one integer per conj(chi) value exponent: a Python term per quadruple
    and r."""
    w, n, nt = ctx.w, ctx.n, ctx.n_tilde
    mt = w - m
    chibar = ctx.chi.conjugate()
    weights = [
        ((-1) ** r * math.comb(n, r) * math.comb(nt, mt - r), r, mt - r, n - r, nt - mt + r)
        for r in range(max(0, mt - nt), min(n, mt) + 1)
    ]
    buckets = [0] * chibar.order
    for a, c, k, ell, e in periods._quadruple_walk(ctx.level, chibar):
        buckets[e] += sum(x * a**i * c**j * ell**s * k**t for x, i, j, s, t in weights)
    return [2 * (-1) ** (m + 1) * b for b in buckets]


def test_packed_double_sum_equals_the_term_by_term_sum():
    # one packed polynomial per context gives the r-sum at every m; against
    # the sum term by term, for the real and the highest-order characters,
    # and at D = 67, order 66, w = 22, where the class coefficients come
    # nearest the width's bound
    contexts = []
    for d in (5, 7, 13, 41):
        chars = enumerate_primitive_characters(d)  # ascending order: real first
        for chi in (chars[0], chars[-1]):
            contexts += [PeriodContext(level, 10, n, chi) for level in (1, 2) for n in range(1, 10)]
    order_66 = next(chi for chi in enumerate_primitive_characters(67) if chi.order == 66)
    contexts += [PeriodContext(1, 22, n, order_66) for n in range(1, 22)]
    checked = 0
    for ctx in contexts:
        for m in range(ctx.w + 1):
            if ctx.parity_holds(m):
                assert traces._double_sum(ctx, m) == _term_by_term_double_sum(ctx, m), (ctx, m)
                checked += 1
    assert checked == 1031
