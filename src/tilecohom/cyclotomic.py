"""The internal plane as C with basis {1, x}, x = exp(i*pi/6).

Powers of x close over Q(sqrt 3) because x^2 = sqrt(3)*x - 1; the whole
module works with that reduction.  Two translation lattices matter: the
rank-2-over-G module DELTA0 = (1/sqrt 3)Z[x] that governs line orbits, and
the ring Z[x] (rank 4 over Z, basis 1, x, x^2, x^3) that governs point
orbits.  The helpers at the bottom give the DELTA0 coordinates of a point
and the plane shift that the lattice lifts of a DELTA0 translation induce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from enum import Enum

from .exactfield import INV_SQRT3, QuadRat, SQRT3, format_quadrat


@dataclass(frozen=True)
class PlanePoint:
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

    def __str__(self) -> str:
        return format_point(self)


ORIGIN = PlanePoint(QuadRat(0), QuadRat(0))

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


def pt_mul(a: PlanePoint, b: PlanePoint) -> PlanePoint:
    """Full complex product, reducing x^2 = sqrt(3)*x - 1."""
    cross = a.v * b.v
    return PlanePoint(a.u * b.u - cross, a.u * b.v + a.v * b.u + SQRT3 * cross)


def f_vector(i: int) -> PlanePoint:
    """The i-th window edge vector f_i = (1/sqrt 3) x^(5(i-1)), i in 1..6."""
    if not 1 <= i <= 6:
        raise ValueError(f"f index {i} out of range 1..6")
    return pt_scale_mul(xpow(5 * (i - 1)), INV_SQRT3)


class TransLattice(Enum):
    DELTA0 = "delta0"
    ZX = "zx"


def lattice_contains(p: PlanePoint, lattice: TransLattice) -> bool:
    """Membership in Z[x] (both coordinates in G) or DELTA0 = (1/sqrt 3)Z[x]."""
    if lattice is TransLattice.DELTA0:
        p = pt_scale_mul(p, SQRT3)
    return (
        p.u.p.denominator == 1
        and p.u.q.denominator == 1
        and p.v.p.denominator == 1
        and p.v.q.denominator == 1
    )


def decompose(p: PlanePoint, i: int, j: int) -> tuple[QuadRat, QuadRat]:
    """Unique reals (c_i, c_j) with p = c_i*x^i + c_j*x^j, exact.

    Any two powers with i != j mod 6 form an R-basis of the plane; the
    2x2 system is solved by Cramer's rule over Q(sqrt 3).
    """
    if (i - j) % 6 == 0:
        raise ValueError("degenerate basis")
    bi, bj = xpow(i), xpow(j)
    det = bi.u * bj.v - bi.v * bj.u
    c_i = (p.u * bj.v - p.v * bj.u) / det
    c_j = (bi.u * p.v - bi.v * p.u) / det
    return c_i, c_j


def format_point(p: PlanePoint) -> str:
    if not p.v:
        return format_quadrat(p.u)
    vs = format_quadrat(p.v)
    if vs == "1":
        tail = "x"
    elif vs == "-1":
        tail = "-x"
    elif vs.startswith("-") or "+" in vs[1:] or "-" in vs[1:]:
        tail = f"({vs})·x"
    else:
        tail = f"{vs}·x"
    if not p.u:
        return tail
    joiner = "" if tail.startswith("-") else "+"
    return f"{format_quadrat(p.u)}{joiner}{tail}"


# -- coordinates and plane-shift classes over DELTA0 -------------------------------
#
# DELTA0 is free over Z with basis (f_1, f_2, f_3, f_4).  A translation by
# t in DELTA0 lifts to hypercube-lattice elements whose plane shift is only
# determined modulo 3; congruence_class(t) is that mod-3 shift.  Z[x] is
# exactly the kernel, which is why point orbits reduce modulo Z[x] while
# staying inside one slicing plane class.


def delta0_coords(p: PlanePoint) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Coordinates of p in the basis (f_1, f_2, f_3, f_4); integral iff p in DELTA0."""
    u_p, u_q = p.u.p, p.u.q
    v_p, v_q = p.v.p, p.v.q
    t1 = 3 * u_q + 2 * v_p
    t2 = -2 * u_p - 3 * v_q
    t3 = -v_p
    t4 = u_p + 3 * v_q
    return t1, t2, t3, t4


def congruence_class(t: PlanePoint) -> tuple[int, int]:
    """Mod-3 plane shift induced by any hypercube-lattice lift of t in DELTA0."""
    t1, t2, t3, t4 = delta0_coords(t)
    coords = (t1, t2, t3, t4)
    if any(c.denominator != 1 for c in coords):
        raise ValueError("point is not in the translation lattice")
    return (int(t1 - t3) % 3, int(t2 - t4) % 3)
