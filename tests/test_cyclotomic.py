import random
from fractions import Fraction

import pytest

from tilecohom.exactfield import INV_SQRT3, QuadRat, SQRT3
from tilecohom.cyclotomic import (
    PlanePoint,
    cross,
    decode,
    decompose,
    delta0_coords,
    encode,
    lattice_contains,
    modulus,
    pt_scale_mul,
    qsign,
    times_sqrt3,
    xpow,
    xscale,
)

from line_helper import f_vector


ORIGIN = PlanePoint(QuadRat(0), QuadRat(0))


def rnd_point(rng, span=9, den=6):
    def q():
        return QuadRat(
            Fraction(rng.randint(-span, span), rng.randint(1, den)),
            Fraction(rng.randint(-span, span), rng.randint(1, den)),
        )

    return PlanePoint(q(), q())


def pt_mul(a, b):
    """Full complex product, reducing x^2 = sqrt(3)*x - 1."""
    cross_term = a.v * b.v
    return PlanePoint(a.u * b.u - cross_term, a.u * b.v + a.v * b.u + SQRT3 * cross_term)


def in_zx(p):
    n = modulus(p.u, p.v)
    return lattice_contains(encode(p, n), n)


def in_delta0(p):
    """p in DELTA0 = (1/sqrt 3)Z[x], that is sqrt(3)*p in Z[x]."""
    n = modulus(p.u, p.v)
    return lattice_contains(times_sqrt3(encode(p, n)), n)


def chart(p, i, j):
    """decompose on the int form of p, decoded back to (c_i, c_j)."""
    n = modulus(p.u, p.v)
    ci_p, ci_q, cj_p, cj_q = decompose(encode(p, n), i, j)
    return (QuadRat(Fraction(ci_p, n), Fraction(ci_q, n)),
            QuadRat(Fraction(cj_p, n), Fraction(cj_q, n)))


def congruence_class(t):
    """Mod-3 plane shift induced by any hypercube-lattice lift of t in DELTA0."""
    n = modulus(t.u, t.v)
    coords = delta0_coords(encode(t, n))
    if any(c % n for c in coords):
        raise ValueError("point is not in the translation lattice")
    t1, t2, t3, t4 = (c // n for c in coords)
    return ((t1 - t3) % 3, (t2 - t4) % 3)


def test_xpow_chart():
    assert xpow(2) == PlanePoint(QuadRat(-1), SQRT3)
    assert xpow(6) == PlanePoint(QuadRat(-1), QuadRat(0))
    # x^17 = x^5 since x^12 = 1 (equivalently, applying x^(k+6) = -x^k twice)
    assert xpow(17) == PlanePoint(-SQRT3, QuadRat(1))
    assert xpow(17) == xpow(5)
    assert xpow(0) == PlanePoint(QuadRat(1), QuadRat(0))
    assert xpow(-1) == xpow(11)


def test_f_vectors():
    assert f_vector(1) == PlanePoint(INV_SQRT3, QuadRat(0))
    assert f_vector(5) == f_vector(3) - f_vector(1)
    assert f_vector(6) - f_vector(2) == PlanePoint(QuadRat(1), QuadRat(0))
    assert f_vector(6) - f_vector(2) == pt_scale_mul(f_vector(1), SQRT3)
    with pytest.raises(ValueError):
        f_vector(0)
    with pytest.raises(ValueError):
        f_vector(7)


def test_edge_vector_identities():
    # f_i + f_{i+2} = -sqrt(3) f_{i+1}, indices cycling with x^(k+6) = -x^k
    def f_cyclic(i):
        k = (i - 1) % 6 + 1
        sign = 1 if ((i - 1) // 6) % 2 == 0 else -1
        vec = f_vector(k)
        return vec if sign == 1 else -vec

    for i in range(1, 7):
        lhs = f_cyclic(i) + f_cyclic(i + 2)
        rhs = pt_scale_mul(f_cyclic(i + 1), -SQRT3)
        assert lhs == rhs


def test_basis_action():
    assert pt_mul(PlanePoint(QuadRat(1), QuadRat(0)), xpow(1)) == xpow(1)
    assert pt_mul(PlanePoint(QuadRat(0), QuadRat(1)), xpow(1)) == xpow(2)
    rng = random.Random(11)
    for _ in range(50):
        p = rnd_point(rng)
        assert pt_mul(p, xpow(12)) == p


def test_xpow_multiplicative():
    rng = random.Random(12)
    for _ in range(200):
        a, b = rng.randint(-24, 24), rng.randint(-24, 24)
        assert pt_mul(xpow(a), xpow(b)) == xpow(a + b)


def test_lattice_contains_examples():
    assert in_zx(PlanePoint(SQRT3, QuadRat(-1)))
    assert in_delta0(f_vector(1))
    assert not in_zx(f_vector(1))
    assert not in_delta0(PlanePoint(QuadRat(0), QuadRat(Fraction(1, 2))))


def test_zx_inside_delta0():
    rng = random.Random(13)
    for _ in range(100):
        p = PlanePoint(
            QuadRat(rng.randint(-9, 9), rng.randint(-9, 9)),
            QuadRat(rng.randint(-9, 9), rng.randint(-9, 9)),
        )
        assert in_zx(p)
        assert in_delta0(p)


def test_decompose_chart():
    c0, c3 = chart(xpow(1), 0, 3)
    assert (c0, c3) == (SQRT3 / 2, QuadRat(Fraction(1, 2)))
    c0, c4 = chart(xpow(2), 0, 4)
    assert (c0, c4) == (QuadRat(1), QuadRat(1))
    c0, c3 = chart(xpow(4), 0, 3)
    assert (c0, c3) == (QuadRat(Fraction(-1, 2)), SQRT3 / 2)


def test_decompose_degenerate():
    with pytest.raises(ValueError, match="degenerate basis"):
        decompose(encode(xpow(1), 6), 2, 2)
    with pytest.raises(ValueError, match="degenerate basis"):
        decompose(encode(xpow(1), 6), 1, 7 % 6 + 6)  # same residue mod 6
    # Over 1 the entries of x^1 are not multiples of the divisor 2 of the
    # chart (x^0, x^3), and the int chart refuses instead of flooring.
    with pytest.raises(ValueError, match="divisible by 2"):
        decompose(encode(xpow(1), 1), 0, 3)


def test_decompose_reconstructs():
    rng = random.Random(14)
    for _ in range(200):
        p = rnd_point(rng)
        i = rng.randrange(6)
        j = (i + rng.randint(1, 5)) % 6
        ci, cj = chart(p, i, j)
        assert pt_scale_mul(xpow(i), ci) + pt_scale_mul(xpow(j), cj) == p


def test_delta0_coords_are_f_basis_coords():
    rng = random.Random(15)
    fs = [f_vector(i) for i in range(1, 5)]
    for _ in range(100):
        coeffs = [rng.randint(-7, 7) for _ in range(4)]
        p = ORIGIN
        for c, f in zip(coeffs, fs):
            p = p + pt_scale_mul(f, QuadRat(c))
        n = modulus(p.u, p.v)
        assert tuple(Fraction(c, n) for c in delta0_coords(encode(p, n))) == tuple(
            Fraction(c) for c in coeffs)
        assert in_delta0(p)


def test_congruence_class_generators():
    assert congruence_class(f_vector(1)) == (1, 0)
    assert congruence_class(f_vector(2)) == (0, 1)
    shift = pt_scale_mul(f_vector(1), QuadRat(2)) + f_vector(2)
    assert congruence_class(shift) == (2, 1)
    with pytest.raises(ValueError):
        congruence_class(PlanePoint(QuadRat(Fraction(1, 5)), QuadRat(0)))


def test_congruence_kernel_is_zx():
    # lifts of a DELTA0 element can keep the slicing plane fixed exactly
    # when the element lies in Z[x]
    rng = random.Random(16)
    fs = [f_vector(i) for i in range(1, 5)]
    for _ in range(300):
        p = ORIGIN
        for f in fs:
            p = p + pt_scale_mul(f, QuadRat(rng.randint(-6, 6)))
        in_kernel = congruence_class(p) == (0, 0)
        assert in_kernel == in_zx(p)


def test_congruence_additive():
    rng = random.Random(17)
    fs = [f_vector(i) for i in range(1, 5)]

    def rnd_delta0():
        p = ORIGIN
        for f in fs:
            p = p + pt_scale_mul(f, QuadRat(rng.randint(-6, 6)))
        return p

    for _ in range(100):
        a, b = rnd_delta0(), rnd_delta0()
        ca, cb = congruence_class(a), congruence_class(b)
        assert congruence_class(a + b) == ((ca[0] + cb[0]) % 3, (ca[1] + cb[1]) % 3)


def test_direction_class_span():
    # plane-shift classes of the DELTA0 translations parallel to x^i
    for i in range(6):
        step = pt_scale_mul(xpow(i), INV_SQRT3)
        span = frozenset(congruence_class(pt_scale_mul(step, QuadRat(k)))
                         for k in range(3))
        assert len(span) == 3
        if i % 2 == 0:
            assert span == frozenset({(0, 0), (1, 0), (2, 0)})
        else:
            assert span == frozenset({(0, 0), (0, 1), (0, 2)})


# ---------------------------------------------------------------- int coordinates


def test_encode_decode_round_trip():
    rng = random.Random(18)
    for _ in range(100):
        p = rnd_point(rng)
        n = modulus(p.u, p.v)
        t = encode(p, n)
        assert all(c % 6 == 0 for c in t)
        assert decode(t, n) == p
        assert decode(tuple(3 * c for c in t), 3 * n) == p
    with pytest.raises(ValueError, match="not a multiple"):
        encode(PlanePoint(QuadRat(Fraction(1, 7)), QuadRat(0)), 6)


def test_a_point_is_not_a_sequence():
    p = xpow(1)
    for misuse in (lambda: 2 * p, lambda: p * 2, lambda: p * p, lambda: (0, 1) + p):
        with pytest.raises(TypeError):
            misuse()
    assert pt_scale_mul(p, QuadRat(2)) == p + p
    assert p - p == ORIGIN and not ORIGIN


def test_qsign_matches_quadrat_sign():
    rng = random.Random(19)
    samples = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (7, -4), (-7, 4), (97, -56), (-97, 56)]
    samples += [(rng.randint(-10**40, 10**40), rng.randint(-10**40, 10**40)) for _ in range(300)]
    for p, q in samples:
        assert qsign(p, q) == QuadRat(p, q).sign()


def test_int_products_match_quadrat():
    rng = random.Random(20)
    for _ in range(100):
        p, r = rnd_point(rng), rnd_point(rng)
        k = rng.randrange(-12, 24)
        s = QuadRat(Fraction(rng.randint(-9, 9), 6), Fraction(rng.randint(-9, 9), 6))
        n = 6 * modulus(p.u, p.v, r.u, r.v)
        assert decode(xscale(k, s.p.numerator * (6 // s.p.denominator),
                             s.q.numerator * (6 // s.q.denominator)), 6) == pt_scale_mul(xpow(k), s)
        assert decode(times_sqrt3(encode(p, n)), n) == pt_scale_mul(p, SQRT3)
        cp, cq = cross(encode(p, n), encode(r, n))
        assert QuadRat(Fraction(cp, n * n), Fraction(cq, n * n)) == p.u * r.v - p.v * r.u
