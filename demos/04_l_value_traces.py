"""Traces of twisted-times-untwisted completed L-values over an orthogonal
basis, evaluated exactly along two independent routes.

For the one-dimensional weight-12 space the trace IS the single product
Lambda(Delta, chi, m+1) Lambda(Delta, n+1) / ||Delta||^2, so these exact
surds are statements about the discriminant form itself.
"""

from heckeperiods import (
    PeriodContext,
    TraceQuery,
    kronecker_character,
    recognize_surd,
    trace_closed_form,
    trace_from_periods,
)

chi = kronecker_character(-3)
ctx = PeriodContext(1, 10, 1, chi)

for m in (1, 3, 5, 7, 9):
    query = TraceQuery(ctx, m)
    value = trace_closed_form(query)
    assert value == trace_from_periods(query)  # cross-path identity
    print(f"m={m}: {recognize_surd(value)}   ~ {value.numeric().real:.3f}")

# The parity hypothesis is enforced: an even m with this odd character has
# no extractable trace.
try:
    TraceQuery(ctx, 2)
except Exception as exc:
    print("m=2:", exc)

# Higher level: with N = 2 and an even character the prefactor brings in
# sqrt(2 * 5) through (i sqrt N)^(m+n+2).
chi5 = kronecker_character(5)
ctx2 = PeriodContext(2, 10, 2, chi5)
value = trace_closed_form(TraceQuery(ctx2, 1))
print("level 2, even n:", recognize_surd(value))

# Quartic characters work the same way; values land in Q(i, sqrt 5).
from heckeperiods import enumerate_primitive_characters

quartic = next(c for c in enumerate_primitive_characters(5) if c.order == 4)
ctx4 = PeriodContext(1, 10, 2, quartic)
value = trace_closed_form(TraceQuery(ctx4, 2))
print("quartic twist trace at (m,n)=(2,2): level", value.level, "number; float", value.numeric())
