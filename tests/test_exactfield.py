import random
from fractions import Fraction

import pytest

from tilecohom.exactfield import (
    LatticeId,
    ParseError,
    QuadRat,
    format_quadrat,
    lattice_member,
    parse_quadrat,
)

G = LatticeId.G
HALF_G = LatticeId.HALF_G
INV_SQRT3_G = LatticeId.INV_SQRT3_G
INV_2SQRT3_G = LatticeId.INV_2SQRT3_G

#: A Z-basis of each lattice: 1/s and sqrt(3)/s for its defining scalar s.
LATTICE_BASES = {
    G: (QuadRat(1), QuadRat(0, 1)),
    HALF_G: (QuadRat(Fraction(1, 2)), QuadRat(0, Fraction(1, 2))),
    INV_SQRT3_G: (QuadRat(0, Fraction(1, 3)), QuadRat(1)),
    INV_2SQRT3_G: (QuadRat(0, Fraction(1, 6)), QuadRat(Fraction(1, 2))),
}

#: For each lattice, every lattice containing it.
CONTAINMENTS = {
    G: (G, HALF_G, INV_SQRT3_G, INV_2SQRT3_G),
    HALF_G: (HALF_G, INV_2SQRT3_G),
    INV_SQRT3_G: (INV_SQRT3_G, INV_2SQRT3_G),
    INV_2SQRT3_G: (INV_2SQRT3_G,),
}


def rnd_quadrat(rng, span=20, den=12):
    return QuadRat(
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
    )


def test_norm_identity():
    assert QuadRat(1, 1) * QuadRat(1, -1) == QuadRat(-2)


def test_root_squares_to_three():
    assert QuadRat(0, 1) * QuadRat(0, 1) == QuadRat(3)


def test_inverse_of_two_plus_root():
    inv = QuadRat(1) / QuadRat(2, 1)
    assert inv == QuadRat(2, -1)
    assert inv * QuadRat(2, 1) == QuadRat(1)


def test_division_by_zero_reports_zero_divisor():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        QuadRat(1) / QuadRat(0)


def test_conjugation():
    assert QuadRat(1, 2).conj() == QuadRat(1, -2)
    assert QuadRat(5).conj() == QuadRat(5)
    a = QuadRat(Fraction(1, 7), Fraction(1, 11))
    assert a.conj().conj() == a


def test_signs():
    assert QuadRat(2, -1).sign() == 1
    assert QuadRat(-5, 3).sign() == 1
    assert QuadRat(0, 0).sign() == 0
    assert QuadRat(-2, 1).sign() == -1
    assert QuadRat(5, -3).sign() == -1


def test_rational_values_hash_as_their_int_or_fraction():
    # Equal values must hash alike, or sets and dicts mix them up.
    for value in (0, 1, -7, 10**40 + 1, Fraction(1, 2), Fraction(-22, 7)):
        a = QuadRat(value)
        assert a == value and hash(a) == hash(value)
        assert value in {a} and a in {value}
        assert {a: "x"}.get(value) == "x" and {value: "x"}.get(a) == "x"
    assert {QuadRat(0): "zero"}.get(0) == "zero"
    assert {QuadRat(1), 1, Fraction(1), QuadRat(Fraction(2, 2))} == {1}
    root = QuadRat(Fraction(1, 2), 1)
    assert root in {QuadRat(Fraction(2, 4), Fraction(3, 3))}
    assert not {root} & {Fraction(1, 2), 1}


def test_floors():
    assert QuadRat(0, 1).floor() == 1
    assert QuadRat(0, -1).floor() == -2
    assert QuadRat(Fraction(7, 2)).floor() == 3
    assert QuadRat(-3).floor() == -3
    assert QuadRat(Fraction(5, 2), 1).floor() == 4


def test_lattice_membership_examples():
    sixth = QuadRat(0, Fraction(1, 6))  # sqrt(3)/6
    assert lattice_member(sixth, INV_2SQRT3_G)
    assert not lattice_member(sixth, INV_SQRT3_G)
    assert lattice_member(QuadRat(Fraction(1, 2)), HALF_G)
    assert not lattice_member(QuadRat(Fraction(1, 2)), G)


def test_field_axioms_on_random_triples():
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (rnd_quadrat(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if b != QuadRat(0):
            assert (a / b) * b == a
        assert a - a == QuadRat(0)


def test_sign_matches_interval_arithmetic():
    # sqrt(3) bracketed by rationals accurate to 10^-40; random inputs have
    # denominators far too small to fall inside the bracket.
    from math import isqrt

    lo = Fraction(isqrt(3 * 10 ** 80), 10 ** 40)
    hi = lo + Fraction(1, 10 ** 40)
    rng = random.Random(202)
    for _ in range(10_000):
        a = rnd_quadrat(rng, span=30, den=30)
        lo_val = a.p + a.q * (lo if a.q >= 0 else hi)
        hi_val = a.p + a.q * (hi if a.q >= 0 else lo)
        if lo_val > 0:
            assert a.sign() == 1
        elif hi_val < 0:
            assert a.sign() == -1
        else:
            assert a == QuadRat(0) and a.sign() == 0


def test_floor_definition_on_random_values():
    rng = random.Random(303)
    for _ in range(2000):
        a = rnd_quadrat(rng, span=50, den=20)
        n = a.floor()
        assert (a - n).sign() >= 0
        assert (a - (n + 1)).sign() < 0


def test_containment_table():
    rng = random.Random(505)
    for _ in range(100):
        a = QuadRat(rng.randint(-9, 9), rng.randint(-9, 9))
        assert lattice_member(a, G)
        for lattice in CONTAINMENTS[G]:
            assert lattice_member(a, lattice)
    for inner, outers in CONTAINMENTS.items():
        for outer in LatticeId:
            contained = all(lattice_member(g, outer) for g in LATTICE_BASES[inner])
            assert contained == (outer in outers), (inner, outer)
    # strictness spot checks
    assert lattice_member(QuadRat(Fraction(1, 2)), HALF_G)
    assert not lattice_member(QuadRat(Fraction(1, 2)), INV_SQRT3_G)
    assert lattice_member(QuadRat(0, Fraction(1, 3)), INV_SQRT3_G)
    assert not lattice_member(QuadRat(0, Fraction(1, 3)), HALF_G)
    assert lattice_member(QuadRat(Fraction(1, 2), Fraction(1, 6)), INV_2SQRT3_G)


def test_parse_fixed_forms():
    assert parse_quadrat("1/2+1/3√3") == QuadRat(Fraction(1, 2), Fraction(1, 3))
    assert parse_quadrat("√3/3") == QuadRat(0, Fraction(1, 3))
    assert parse_quadrat("2/3sqrt3") == QuadRat(0, Fraction(2, 3))
    assert parse_quadrat("-s") == QuadRat(0, -1)
    assert parse_quadrat("7") == QuadRat(7)
    assert parse_quadrat("-2/5") == QuadRat(Fraction(-2, 5))
    assert parse_quadrat("0") == QuadRat(0)
    assert parse_quadrat("1/7 + √3/11") == QuadRat(Fraction(1, 7), Fraction(1, 11))
    assert parse_quadrat("2√3/3") == QuadRat(0, Fraction(2, 3))
    assert parse_quadrat("1-√3") == QuadRat(1, -1)
    assert parse_quadrat("1/2√3") == QuadRat(0, Fraction(1, 2))
    assert parse_quadrat("2*√3/5") == QuadRat(0, Fraction(2, 5))


def test_parse_rejections():
    for bad in ("", "1.5", "pi", "1/0", "s/0", "++", "1+", "2x",
                "--1", "1--1", "+-1", "-+s", "1/2+-√3", "1 - -1",
                "1/2√3/5", "1/2*√3/5", "-1/2sqrt3/5", "1+1/2s/5"):
        with pytest.raises(ParseError):
            parse_quadrat(bad)


def test_format_round_trip():
    rng = random.Random(606)
    for _ in range(300):
        a = rnd_quadrat(rng, span=40, den=40)
        assert parse_quadrat(format_quadrat(a)) == a
    for special in (QuadRat(0), QuadRat(0, 1), QuadRat(0, -1), QuadRat(-1, -1)):
        assert parse_quadrat(format_quadrat(special)) == special
