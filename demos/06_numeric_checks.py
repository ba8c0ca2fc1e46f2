"""Floating-point sanity anchors for the exact machinery.

The completed L-values of the discriminant form, its Petersson norm via
the zeta-ratio formula, and twisted periods as path integrals are all
computed in plain double precision and compared against the exact traces.
"""

from heckeperiods import (
    PeriodContext,
    TraceQuery,
    kronecker_character,
    lambda_delta,
    petersson_delta_inverse,
    tau_coefficients,
    verify_trace_numeric,
)
from heckeperiods.numeric import assembled_twisted_lambda

# Exact tau values from the 24th power of the pentagonal-number series.
tau = tau_coefficients(10)
print("tau(1..10):", tau.coefficients)

# Completed untwisted L-values; the s <-> 12-s symmetry is built into the
# incomplete-gamma representation.
print("Lambda(Delta, 2) =", lambda_delta(2))
print("Lambda(Delta, 6) =", lambda_delta(6))

# Petersson norm the cheap way: invert the zeta-ratio identity.
print("1/||Delta||^2 =", petersson_delta_inverse())

# Twisted completed L-values assembled from residue path integrals.
chi = kronecker_character(-3)
for m in (1, 3, 5):
    value = assembled_twisted_lambda(m, chi)
    print(f"Lambda(Delta, chi, {m+1}) = {value.real:+.12f}  (|imag| = {abs(value.imag):.1e})")

# End to end: the numeric product matches the exact trace.
ctx = PeriodContext(1, 10, 1, chi)
for m in (1, 3, 5):
    report = verify_trace_numeric(TraceQuery(ctx, m))
    print(f"m={m}: exact {report.expected.real:+.6f}  numeric {report.computed.real:+.6f}  "
          f"rel err {report.rel_err:.2e}  pass={report.passed}")
