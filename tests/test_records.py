"""The nine record types keep their behaviour as plain classes.

``PeriodContext``, ``TraceQuery``, ``RnCombination`` and ``QExpansion``
validate, so they are ``__slots__`` classes set through
``object.__setattr__``; the five plain-data records are named tuples.
Each is built by position and by keyword, compares and hashes by value,
refuses assignment, raises its validation errors with their messages, and
prints the ``Name(field=value, ...)`` text it always printed."""

from fractions import Fraction

import pytest

from heckeperiods import kronecker_character
from heckeperiods.characters import enumerate_characters
from heckeperiods.cyclotomic import QuadSurd
from heckeperiods.eigenforms import (
    CentralValueRow,
    CentralValueTable,
    FixtureError,
    FixtureRegistry,
    HeckeMatrixFixture,
    RationalMatrix,
    RnCombination,
)
from heckeperiods.numeric import NumericCheck, QExpansion
from heckeperiods.periods import ContextError, ParityError, PeriodContext
from heckeperiods.traces import TraceQuery

CHI = kronecker_character(-3)
CTX = PeriodContext(1, 10, 1, CHI)
ROW = CentralValueRow(5, "2^3", 8)
TABLE = CentralValueTable(16, 1, 7, "x", (ROW,))
MATRIX = RationalMatrix([[-716424, -6894720], [Fraction(1416492, 19), 717504]])

CHI_TEXT = "DirichletCharacter(mod 3, order 2, primitive)"
CTX_TEXT = f"PeriodContext(level=1, w=10, n=1, chi={CHI_TEXT})"
ROW_TEXT = "CentralValueRow(discriminant=5, factored='2^3', value=8)"
TABLE_TEXT = f"CentralValueTable(weight=16, level=1, m=7, newform='x', rows=({ROW_TEXT},))"

# (type, fields in signature order, one value per field, the repr of that record)
RECORDS = [
    (PeriodContext, ("level", "w", "n", "chi"), (1, 10, 1, CHI), CTX_TEXT),
    (TraceQuery, ("ctx", "m"), (CTX, 1), f"TraceQuery(ctx={CTX_TEXT}, m=1)"),
    (
        RnCombination,
        ("level", "weight", "terms"),
        (1, 12, ((1, QuadSurd(1, 2, 5)),)),
        "RnCombination(level=1, weight=12, terms=((1, QuadSurd(1, 2, 5)),))",
    ),
    (
        QExpansion,
        ("coefficients", "weight", "level"),
        ((1, -24), 12, 1),
        "QExpansion(coefficients=(1, -24), weight=12, level=1)",
    ),
    (
        HeckeMatrixFixture,
        ("name", "weight", "level", "operator", "basis_indices", "basis_action"),
        ("t2-weight24-level1", 24, 1, 2, (2, 4), MATRIX),
        "HeckeMatrixFixture(name='t2-weight24-level1', weight=24, level=1, operator=2, basis_indices=(2, 4), "
        "basis_action=RationalMatrix([['-716424', '-6894720'], ['1416492/19', '717504']]))",
    ),
    (CentralValueRow, ("discriminant", "factored", "value"), (5, "2^3", 8), ROW_TEXT),
    (CentralValueTable, ("weight", "level", "m", "newform", "rows"), (16, 1, 7, "x", (ROW,)), TABLE_TEXT),
    (
        FixtureRegistry,
        ("eigenforms", "matrices", "central_values"),
        ({}, {}, TABLE),
        f"FixtureRegistry(eigenforms={{}}, matrices={{}}, central_values={TABLE_TEXT})",
    ),
    (
        NumericCheck,
        ("expected", "computed", "abs_err", "rel_err", "passed"),
        (1 + 2j, 1.0, 0.5, 0.25, True),
        "NumericCheck(expected=(1+2j), computed=1.0, abs_err=0.5, rel_err=0.25, passed=True)",
    ),
]
# records holding a dict or a RationalMatrix (which defines no hash) were
# unhashable as dataclasses too
UNHASHABLE = {HeckeMatrixFixture, FixtureRegistry}


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_keeps_signature_equality_immutability_and_repr(cls, fields, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, f) for f in fields) == values
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
    for field, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(by_position, field, value)
    assert repr(by_position) == text


def test_records_of_different_values_differ():
    assert PeriodContext(1, 10, 1, CHI) != PeriodContext(1, 10, 3, CHI)
    assert TraceQuery(CTX, 1) != TraceQuery(CTX, 3)
    assert QExpansion((1, -24), 12, 1) != QExpansion((1, -24), 12, 2)
    assert RnCombination(1, 12, ((1, QuadSurd(1, 0, 1)),)) != RnCombination(1, 12, ((3, QuadSurd(1, 0, 1)),))
    assert PeriodContext(1, 10, 1, CHI) != (1, 10, 1, CHI)


def test_period_context_hash_is_the_hash_of_its_fields():
    ctx = PeriodContext(2, 12, 5, kronecker_character(5))
    assert hash(ctx) == hash((2, 12, 5, kronecker_character(5)))
    assert ctx.with_n(5) == ctx and hash(ctx.with_n(5)) == hash(ctx)


IMPRIMITIVE = next(chi for chi in enumerate_characters(9) if chi.conductor == 3)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PeriodContext(0, 10, 1, CHI), ContextError, "level must be positive"),
        (lambda: PeriodContext(1, 9, 1, CHI), ContextError, "w must be a positive even integer"),
        (lambda: PeriodContext(1, 10, 10, CHI), ContextError, "n must satisfy 0 < n < w, got n=10, w=10"),
        (
            lambda: PeriodContext(1, 10, 1, IMPRIMITIVE),
            ContextError,
            "character must be primitive (conductor 3 != modulus 9)",
        ),
        (lambda: TraceQuery(CTX, 11), ContextError, "m must lie in 0..10"),
        (lambda: TraceQuery(CTX, 2), ParityError, "m=2 inadmissible at n=1: parity (-1)^(m+n+1)chi(-1) = -1"),
        (lambda: RnCombination(1, 13, ()), FixtureError, "weight must be even and >= 4, got 13"),
        (
            lambda: RnCombination(1, 12, ((1, QuadSurd(1, 0, 1)), (1, QuadSurd(2, 0, 1)))),
            FixtureError,
            "duplicate basis indices",
        ),
        (lambda: RnCombination(1, 12, ((10, QuadSurd(1, 0, 1)),)), FixtureError, "index 10 outside 0 < n < 10"),
        (lambda: QExpansion((2, 3), 12, 1), ValueError, "normalized forms start with a(1) = 1"),
    ],
)
def test_record_validation_keeps_its_errors(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message
