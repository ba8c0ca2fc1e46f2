"""Dirichlet characters: construction, Gauss sums, the four-argument value."""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from heckeperiods.characters import (
    CharacterError,
    DirichletCharacter,
    bezout_pair,
    chi_four_tuple,
    chi_four_tuple_exponent,
    enumerate_characters,
    enumerate_primitive_characters,
    gauss_sum,
    kronecker_character,
    kronecker_symbol,
)
from heckeperiods.cyclotomic import ExactNumber


def test_kronecker_minus3(chi3):
    assert chi3.modulus == 3
    assert chi3.value(1) == ExactNumber.one()
    assert chi3.value(2) == ExactNumber.from_rational(-1)
    assert chi3.is_odd()
    assert chi3.is_primitive


def test_kronecker_5(chi5):
    assert chi5.value(2) == ExactNumber.from_rational(-1)
    assert chi5.value(4) == ExactNumber.one()
    assert chi5.is_even()


def test_kronecker_8():
    chi = kronecker_character(8)
    assert chi.is_even()
    values = {h: chi.value(h) for h in (3, 5, 7)}
    assert values[3] == ExactNumber.from_rational(-1)
    assert values[5] == ExactNumber.from_rational(-1)
    assert values[7] == ExactNumber.one()


def test_kronecker_parity_matches_sign():
    for d in (-3, -4, -7, 5, 8, 12, 13, -8, 17):
        chi = kronecker_character(d)
        assert chi.sign_at_minus_one() == (1 if d > 0 else -1)


def is_fundamental_discriminant(d):
    def squarefree(n):
        return all(n % (p * p) for p in range(2, math.isqrt(abs(n)) + 1))

    if d % 4 == 1:
        return squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)


def test_kronecker_accepts_exactly_the_fundamental_discriminants():
    # d = 3 is refused too: its values mod 3 are those of (-3/.), but (3/.)
    # has conductor 12
    accepted = set()
    for d in range(-400, 401):
        if abs(d) < 2:
            continue
        try:
            kronecker_character(d)
        except CharacterError:
            continue
        accepted.add(d)
    assert accepted == {d for d in range(-400, 401) if abs(d) >= 2 and is_fundamental_discriminant(d)}


def test_kronecker_rejects_imprimitive():
    with pytest.raises(CharacterError, match="modulus 1"):
        kronecker_character(9)
    with pytest.raises(CharacterError, match="modulus 5"):
        kronecker_character(45)  # 45 = 9*5, symbol induced from (5/.)


def test_enumerate_counts():
    assert len(enumerate_primitive_characters(3)) == 1
    only_mod4 = enumerate_primitive_characters(4)
    assert len(only_mod4) == 1 and only_mod4[0].is_odd()
    prim5 = enumerate_primitive_characters(5)
    assert sorted(c.order for c in prim5) == [2, 4, 4]
    assert len(enumerate_primitive_characters(2)) == 0
    assert sorted(c.order for c in enumerate_primitive_characters(7)) == [2, 3, 3, 6, 6]
    assert sorted(c.order for c in enumerate_primitive_characters(8)) == [2, 2]
    assert sorted(c.order for c in enumerate_primitive_characters(12)) == [2]


def test_enumerate_rejects_a_modulus_past_the_bound():
    assert enumerate_primitive_characters(100)
    with pytest.raises(CharacterError):
        enumerate_primitive_characters(101)


def test_enumerate_each_exactly_once():
    for d in (5, 7, 8, 9, 12, 15, 16, 24):
        chars = list(enumerate_characters(d))
        assert len(chars) == len(set(chars))
        from heckeperiods.cyclotomic import euler_phi

        assert len(chars) == euler_phi(d)


def test_enumeration_tables_and_order_are_pinned():
    # sha256 of (order, exponents) for every character enumerate_characters
    # yields, in order, and of every sorted primitive list, for 2 <= d <= 100
    rows = [
        (
            d,
            [(chi.order, chi.exponents) for chi in enumerate_characters(d)],
            [(chi.order, chi.exponents) for chi in enumerate_primitive_characters(d)],
        )
        for d in range(2, 101)
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "e2c5524e076ae6a6431919f36e9e24eadcc5e0f1281fc1abca0f3b950c02cd88"


def test_brute_force_character_tables_mod5():
    # the four characters mod 5 are powers of one injective quartic character
    prim = enumerate_primitive_characters(5)
    quartic = next(c for c in prim if c.order == 4)
    z = ExactNumber.zeta(4, 1)
    table = {h: quartic.value(h) for h in range(5)}
    g = next(h for h in (2, 3) if table[h] == z or table[h] == z**3)
    # complete multiplicativity against the explicit cyclic structure
    for a in range(1, 5):
        for b in range(1, 5):
            assert quartic.value(a * b) == quartic.value(a) * quartic.value(b)
    assert g in (2, 3)


def test_multiplicativity_validated():
    # a table breaking chi(ab) = chi(a)chi(b) must be rejected
    with pytest.raises(CharacterError):
        DirichletCharacter(5, 4, [None, 0, 1, 1, 2])


def _multiplicative_by_pairs(d, order, exps):
    """The O(D^2) definition: chi(1) = 1 and chi(ab) = chi(a)chi(b) for
    every pair of units."""
    units = [h for h in range(d) if math.gcd(h, d) == 1]
    return exps[1 % d] % order == 0 and all(
        (exps[a] + exps[b]) % order == exps[a * b % d] % order for a in units for b in units
    )


def test_validation_agrees_with_the_pairwise_definition():
    # genuine tables (at a multiple of their order), the same with one unit's
    # value changed, and random exponents on the units
    rng = random.Random(2024)
    seen = set()
    for _ in range(1500):
        d = rng.randint(2, 48)
        units = [h for h in range(d) if math.gcd(h, d) == 1]
        kind = rng.choice(["genuine", "perturbed", "random"])
        if kind == "random":
            order = rng.randint(1, 12)
            exps = [rng.randrange(order) if h in units else None for h in range(d)]
        else:
            chi = rng.choice(list(enumerate_characters(d)))
            order = chi.order * rng.choice([1, 2, 3] if kind == "genuine" else [2, 3])
            exps = [None if e is None else e * (order // chi.order) for e in chi.exponents]
            if kind == "perturbed":
                h = rng.choice(units)
                exps[h] = (exps[h] + rng.randrange(1, order)) % order
        expected = _multiplicative_by_pairs(d, order, exps)
        try:
            DirichletCharacter(d, order, exps)
            accepted = True
        except CharacterError:
            accepted = False
        assert accepted == expected, (d, order, exps)
        seen.add((kind, expected))
    assert seen >= {("genuine", True), ("perturbed", False), ("random", True), ("random", False)}


def test_validation_is_fast_at_a_large_modulus():
    start = time.monotonic()
    chi = kronecker_character(-19999)
    assert time.monotonic() - start < 2.0
    assert chi.order == 2 and chi.is_primitive


def test_nontrivial_sum_vanishes():
    for d in range(3, 20):
        for chi in enumerate_characters(d):
            if chi.is_trivial():
                continue
            total = ExactNumber.zero(chi.order)
            for h in range(d):
                e = chi.exponents[h]
                if e is not None:
                    total = total + ExactNumber.zeta(chi.order, e)
            assert total.is_zero(), (d, chi)


def test_gauss_sum_mod3(chi3):
    tau = gauss_sum(chi3)
    assert tau == ExactNumber.zeta(3, 1) - ExactNumber.zeta(3, 2)
    assert tau * tau == ExactNumber.from_rational(-3)


def test_gauss_sum_classical_identity_all_d_up_to_40():
    for d in range(2, 41):
        for chi in enumerate_primitive_characters(d):
            lhs = gauss_sum(chi) * gauss_sum(chi.conjugate())
            assert lhs == ExactNumber.from_rational(chi.sign_at_minus_one() * d), d


def test_gauss_sum_inverse_all_d_up_to_31():
    # tau(chi)^-1 = chi(-1) tau(conj chi) / d; the right side never inverts
    for d in range(2, 32):
        for chi in enumerate_primitive_characters(d):
            expected = gauss_sum(chi.conjugate()) * Fraction(chi.sign_at_minus_one(), d)
            assert gauss_sum(chi).inverse() == expected, (d, chi.exponents)


def test_four_tuple_paper_values(chi3):
    # contributing tuples at modulus 3 carry values -1, 1, 1, -1
    assert chi_four_tuple(chi3, 1, 1, 1, 2) == ExactNumber.from_rational(-1)
    assert chi_four_tuple(chi3, 1, 1, 2, 1) == ExactNumber.one()
    assert chi_four_tuple(chi3, 1, 2, 1, 1) == ExactNumber.one()
    assert chi_four_tuple(chi3, 2, 1, 1, 1) == ExactNumber.from_rational(-1)


def test_four_tuple_validation(chi3):
    # gcd > 1; k*a + ell*c != 3; a zero argument, with gcd 1 and k*a + ell*c = 3
    for args in ((2, 2, 1, 1), (1, 1, 1, 1), (0, 1, 1, 3)):
        for four_tuple in (chi_four_tuple, chi_four_tuple_exponent):
            with pytest.raises(CharacterError):
                four_tuple(chi3, *args)


def test_four_tuple_bezout_invariance():
    rng = random.Random(2024)
    characters = []
    for d in (3, 5, 7, 8, 12):
        characters.extend(enumerate_primitive_characters(d))
    checked = 0
    while checked < 1000:
        chi = rng.choice(characters)
        d = chi.modulus
        a = rng.randint(1, d - 1)
        c = rng.randint(1, d - 1)
        if math.gcd(a, c) != 1:
            continue
        # random split of d as k*a + ell*c if one exists
        ks = [k for k in range(1, d) if (d - k * a) > 0 and (d - k * a) % c == 0]
        if not ks:
            continue
        k = rng.choice(ks)
        ell = (d - k * a) // c
        b0, d0 = bezout_pair(a, c)
        reference = chi.value((k * b0 + ell * d0) % d)
        t = rng.randint(-50, 50)
        shifted = chi.value((k * (b0 + t * a) + ell * (d0 + t * c)) % d)
        assert shifted == reference
        assert chi_four_tuple(chi, a, c, k, ell) == reference
        checked += 1


def test_bezout_pair_has_determinant_one():
    for a in range(1, 41):
        for c in range(1, 41):
            if math.gcd(a, c) != 1:
                with pytest.raises(CharacterError):
                    bezout_pair(a, c)
                continue
            b, d = bezout_pair(a, c)
            assert a * d - b * c == 1, (a, c)


def test_kronecker_symbol_values():
    assert kronecker_symbol(-3, 2) == -1
    assert kronecker_symbol(5, 4) == 1
    assert kronecker_symbol(12, 35) == kronecker_symbol(12, 5) * kronecker_symbol(12, 7)
    assert kronecker_symbol(7, 0) == 0
    assert kronecker_symbol(1, 0) == 1


def test_conjugate_and_product():
    prim = enumerate_primitive_characters(5)
    quartic = next(c for c in prim if c.order == 4)
    assert quartic.conjugate().conjugate() == quartic
    square = quartic * quartic
    assert square.order == 2
    trivialized = square * square
    assert trivialized.is_trivial()
