"""Dirichlet characters with exact values: Kronecker symbols, enumeration,
Gauss sums, and the four-argument character attached to a quadruple.
"""

from heckeperiods import (
    ExactNumber,
    chi_four_tuple,
    enumerate_primitive_characters,
    gauss_sum,
    kronecker_character,
)

# The quadratic character attached to the fundamental discriminant -3.
chi = kronecker_character(-3)
print("chi = (-3/.)  values:", [str(v.coords[0]) if v.is_rational() else "?" for v in chi.values])
print("parity:", "odd" if chi.is_odd() else "even")

# Non-fundamental arguments are rejected with the actual conductor named.
try:
    kronecker_character(9)
except Exception as exc:
    print("kronecker_character(9):", exc)

# All primitive characters of a modulus, built from unit-group generators.
for modulus in (5, 7, 8, 12):
    chars = enumerate_primitive_characters(modulus)
    print(f"modulus {modulus}: {len(chars)} primitive, orders {[c.order for c in chars]}")

# Gauss sums are exact cyclotomic numbers; the classical norm identity
# tau(chi) tau(conj chi) = chi(-1) * D holds on the nose.
tau = gauss_sum(chi)
print("tau(chi)^2 =", (tau * tau).rational_value(), " numerically", tau.numeric())
for modulus in (5, 7, 12):
    for c in enumerate_primitive_characters(modulus):
        norm = gauss_sum(c) * gauss_sum(c.conjugate())
        assert norm == ExactNumber.from_rational(c.sign_at_minus_one() * modulus)
print("norm identity verified for moduli 5, 7, 12")

# The four-argument character chi(a,c,k,ell) = chi(k b + ell d) with any
# Bezout pair a d - b c = 1.  For modulus 3 the four contributing
# quadruples carry the signs -1, 1, 1, -1.
for quadruple in [(1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1)]:
    value = chi_four_tuple(chi, *quadruple)
    print("chi", quadruple, "=", value.rational_value())
