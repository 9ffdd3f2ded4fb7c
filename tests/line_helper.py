"""QuadRat references for the tests: singular lines built from QuadRat
anchors, and the window's generators f_i.

A SingularLine holds sqrt(3)*anchor as an int point over the modulus of its
op, and lines over two moduli do not compare; lines_over encodes every
anchor of one call over one shared modulus.
"""

from tilecohom.cyclotomic import PlanePoint, encode, modulus, pt_scale_mul, times_sqrt3, xpow
from tilecohom.exactfield import INV_SQRT3
from tilecohom.lineorbits import SingularLine


def f_vector(i: int) -> PlanePoint:
    """The i-th window edge vector f_i = (1/sqrt 3) x^(5(i-1)), i in 1..6, in
    QuadRat arithmetic: the reference the window's int generators are
    checked against."""
    if not 1 <= i <= 6:
        raise ValueError(f"f index {i} out of range 1..6")
    return pt_scale_mul(xpow(5 * (i - 1)), INV_SQRT3)


def lines_over(pairs, n=None):
    """SingularLines for (direction, QuadRat anchor) pairs, all over n, or
    over 6 times the lcm of every denominator of the anchors."""
    pairs = list(pairs)
    if n is None:
        n = modulus(*(c for _, a in pairs for c in (a.u, a.v)))
    return [SingularLine(d, times_sqrt3(encode(a, n)), n) for d, a in pairs]

