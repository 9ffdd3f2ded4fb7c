"""The internal plane as C with basis {1, x}, x = exp(i*pi/6).

Powers of x close over Q(sqrt 3) because x^2 = sqrt(3)*x - 1; the whole
module works with that reduction.  Two translation lattices matter: the
rank-2-over-G module DELTA0 = (1/sqrt 3)Z[x] that governs line orbits, and
the ring Z[x] (rank 4 over Z, basis 1, x, x^2, x^3) that governs point
orbits.

PlanePoint, with QuadRat coordinates, is the form that results are handed
out in.  The stages compute on the integer coordinates below instead: a
point is an int 4-tuple over one modulus per op, every chart (x^i, x^j) is a
fixed int matrix, and reduction mod Z[x] is `% n`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .exactfield import QuadRat, SQRT3


class PlanePoint(NamedTuple):
    """The complex number u + v*x with exact QuadRat coordinates."""

    u: QuadRat
    v: QuadRat

    def __add__(self, other: "PlanePoint") -> "PlanePoint":
        return PlanePoint(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "PlanePoint") -> "PlanePoint":
        return PlanePoint(self.u - other.u, self.v - other.v)

    def __neg__(self) -> "PlanePoint":
        return PlanePoint(-self.u, -self.v)

    def __bool__(self) -> bool:
        return bool(self.u) or bool(self.v)

    # A point is not a sequence: refuse the tuple repetition and the tuple
    # concatenation from the left that it would otherwise inherit.
    def __mul__(self, other):
        raise TypeError(f"cannot multiply a PlanePoint by {type(other).__name__};"
                        " use pt_scale_mul for a real scalar")

    __rmul__ = __mul__

    def __radd__(self, other):
        raise TypeError(f"cannot add a PlanePoint to {type(other).__name__}")


# (u, v) rows for x^0 .. x^5; the second half of the twelve powers is the
# negative of the first half.
_XPOW_HALF = (
    (QuadRat(1), QuadRat(0)),
    (QuadRat(0), QuadRat(1)),
    (QuadRat(-1), SQRT3),
    (-SQRT3, QuadRat(2)),
    (QuadRat(-2), SQRT3),
    (-SQRT3, QuadRat(1)),
)


def xpow(k: int) -> PlanePoint:
    """x^k as a PlanePoint, for any integer k."""
    k %= 12
    u, v = _XPOW_HALF[k % 6]
    return PlanePoint(u, v) if k < 6 else PlanePoint(-u, -v)


def pt_scale_mul(p: PlanePoint, s: QuadRat) -> PlanePoint:
    """Multiply by a real scalar from Q(sqrt 3)."""
    return PlanePoint(p.u * s, p.v * s)


# -- integer coordinates -----------------------------------------------------------
#
# The stages compute on ints.  Over a modulus n > 0 the scalar (p, q) stands
# for (p + q*sqrt 3)/n, and the point (a, b, c, d) for u + v*x with
# u = (a + b*sqrt 3)/n and v = (c + d*sqrt 3)/n.  Because Z[x] = G + G*x,
# reducing a scalar mod G and a point mod Z[x] are both `% n` on every entry.
#
# One op fixes n = modulus(gamma_1, gamma_2) = 6*D, D the lcm of the four
# denominators of gamma.  A point built from gamma and the powers x^k then
# has every entry divisible by 6, so the chart of a basis (x^i, x^j), whose
# (1, x)-determinant is 1, sqrt 3 or 2 up to sign, divides it exactly.  The
# stages are affine in gamma: their ints are multiplied only by the small
# constants of the x^k, never by each other, and stay a few times n; only
# qsign squares an int, to decide a sign.


def modulus(*values: QuadRat) -> int:
    """6 times the lcm of the denominators of the values."""
    return 6 * lcm(*(d for v in values for d in (v.p.denominator, v.q.denominator)))


def _numerator(x: Fraction, n: int) -> int:
    if n % x.denominator:
        raise ValueError(f"{x} is not a multiple of 1/{n}")
    return x.numerator * (n // x.denominator)


def scalar(a: QuadRat, n: int) -> tuple[int, int]:
    """The scalar a as an int pair over n."""
    return _numerator(a.p, n), _numerator(a.q, n)


def encode(p: PlanePoint, n: int) -> tuple[int, int, int, int]:
    """The point p as an int 4-tuple over n."""
    return (*scalar(p.u, n), *scalar(p.v, n))


def decode(t, n: int) -> PlanePoint:
    """The int point t over n as a PlanePoint."""
    a, b, c, d = t
    return PlanePoint(QuadRat(Fraction(a, n), Fraction(b, n)),
                      QuadRat(Fraction(c, n), Fraction(d, n)))


#: x^k for k in 0..11 as an int point over 1.
XPOW = tuple(encode(xpow(k), 1) for k in range(12))


def qsign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt 3, by comparing p^2 with 3q^2 when the signs differ."""
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sq == 0 or sp == sq:
        return sp
    if sp == 0:
        return sq
    return sp if p * p > 3 * q * q else -sp


def qmul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a + b*sqrt 3)(c + d*sqrt 3) as an int pair."""
    return a * c + 3 * b * d, a * d + b * c


def xscale(k: int, p: int, q: int) -> tuple[int, int, int, int]:
    """The point x^k * (p + q*sqrt 3), over the modulus of the scalar."""
    m1, n1, m2, n2 = XPOW[k % 12]
    return (m1 * p + 3 * n1 * q, m1 * q + n1 * p, m2 * p + 3 * n2 * q, m2 * q + n2 * p)


def times_sqrt3(t):
    """sqrt 3 * t, over the modulus of t."""
    a, b, c, d = t
    return 3 * b, a, 3 * d, c


def cross(s, t) -> tuple[int, int]:
    """The (1, x)-determinant s.u*t.v - s.v*t.u, over the product of the moduli."""
    a, b, c, d = s
    e, f, g, h = t
    return a * g + 3 * b * h - c * e - 3 * d * f, a * h + b * g - c * f - d * e


@lru_cache(maxsize=None)
def _chart(i: int, j: int):
    """Rows and divisor k of the map t -> (c_i, c_j) with t = c_i*x^i + c_j*x^j.

    Cramer's rule: c_i = cross(t, x^j)/det and c_j = cross(x^i, t)/det with
    det = cross(x^i, x^j); 1/det is (det.p - det.q*sqrt 3)/norm."""
    bi, bj = XPOW[i], XPOW[j]
    dp, dq = cross(bi, bj)
    norm = dp * dp - 3 * dq * dq
    columns = []
    for m in range(4):
        unit = tuple(int(m == r) for r in range(4))
        ci = qmul(*cross(unit, bj), dp, -dq)
        cj = qmul(*cross(bi, unit), dp, -dq)
        columns.append((*ci, *cj))
    rows = [[col[r] * (1 if norm > 0 else -1) for col in columns] for r in range(4)]
    k = gcd(norm, *(x for row in rows for x in row))
    return tuple(tuple(x // k for x in row) for row in rows), abs(norm) // k


def decompose(t, i: int, j: int) -> tuple[int, int, int, int]:
    """The unique (c_i, c_j), as one int 4-tuple over the modulus of t, with
    t = c_i*x^i + c_j*x^j.

    The chart of (x^i, x^j) is a fixed int 4x4 matrix and a divisor 1, 2 or 3,
    which must divide the image exactly (it does for every point of an op)."""
    if (i - j) % 6 == 0:
        raise ValueError("degenerate basis")
    rows, k = _chart(i % 12, j % 12)
    a, b, c, d = t
    out = tuple(r0 * a + r1 * b + r2 * c + r3 * d for r0, r1, r2, r3 in rows)
    if k == 1:
        return out
    if any(x % k for x in out):
        raise ValueError(f"the chart of (x^{i}, x^{j}) needs entries divisible by {k}")
    return tuple(x // k for x in out)


def lattice_contains(t, n: int) -> bool:
    """Membership of the int point t over n in Z[x]."""
    return all(c % n == 0 for c in t)


# -- coordinates over DELTA0 -------------------------------------------------------
#
# DELTA0 is free over Z with basis (f_1, f_2, f_3, f_4); a translation by a
# DELTA0 element lifts to hypercube-lattice elements, and Z[x] is exactly the
# subgroup whose lifts can keep the slicing plane fixed.


def delta0_coords(t) -> tuple[int, int, int, int]:
    """Coordinates of the int point t in the basis (f_1, ..., f_4), over the
    modulus of t; all divisible by it iff t lies in DELTA0."""
    a, b, c, d = t
    return 3 * b + 2 * c, -2 * a - 3 * d, -c, a + 3 * d
