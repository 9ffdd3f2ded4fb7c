"""Singular lines built from QuadRat anchors, for the tests.

A SingularLine holds sqrt(3)*anchor as an int point over the modulus of its
op, and lines over two moduli do not compare; these helpers encode every
anchor of one call over one shared modulus.
"""

from tilecohom.cyclotomic import encode, modulus, times_sqrt3
from tilecohom.lineorbits import SingularLine


def lines_over(pairs, n=None):
    """SingularLines for (direction, QuadRat anchor) pairs, all over n, or
    over 6 times the lcm of every denominator of the anchors."""
    pairs = list(pairs)
    if n is None:
        n = modulus(*(c for _, a in pairs for c in (a.u, a.v)))
    return [SingularLine(d, times_sqrt3(encode(a, n)), n) for d, a in pairs]

