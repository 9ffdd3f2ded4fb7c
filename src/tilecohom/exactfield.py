"""Exact arithmetic in Q(sqrt 3) and the four scaling lattices behind every orbit decision.

All quantities in this package live in the real quadratic field Q(sqrt 3),
stored as a pair of rationals.  Nothing here rounds: signs, floors and
lattice membership are decided by integer comparisons only.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from math import isqrt, lcm
from typing import Union

Rational = Union[int, Fraction]


class ParseError(ValueError):
    """A textual value is not an exact element of Q(sqrt 3)."""


def _sgn(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


@total_ordering
class QuadRat:
    """The number p + q*sqrt(3) with exact rational coefficients p, q."""

    __slots__ = ("p", "q")

    def __init__(self, p: Rational = 0, q: Rational = 0) -> None:
        # A Fraction is immutable, so one passed in is kept as it is.
        self.p = p if isinstance(p, Fraction) else Fraction(p)
        self.q = q if isinstance(q, Fraction) else Fraction(q)

    # -- structural protocol ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        # A rational value equals its int or Fraction, so it hashes as one.
        return hash((self.p, self.q)) if self.q else hash(self.p)

    def __bool__(self) -> bool:
        return bool(self.p) or bool(self.q)

    def __repr__(self) -> str:
        return f"QuadRat({self.p!r}, {self.q!r})"

    def __str__(self) -> str:
        return format_quadrat(self)

    # -- field operations ----------------------------------------------------

    def __add__(self, other: object) -> "QuadRat":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QuadRat(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadRat":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QuadRat(self.p - other.p, self.q - other.q)

    def __rsub__(self, other: object) -> "QuadRat":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QuadRat(other.p - self.p, other.q - self.q)

    def __neg__(self) -> "QuadRat":
        return QuadRat(-self.p, -self.q)

    def __pos__(self) -> "QuadRat":
        return self

    def __mul__(self, other: object) -> "QuadRat":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QuadRat(
            self.p * other.p + 3 * self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadRat":
        norm = self.p * self.p - 3 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("zero divisor")
        return QuadRat(self.p / norm, -self.q / norm)

    def __truediv__(self, other: object) -> "QuadRat":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: object) -> "QuadRat":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    # -- exact order structure ------------------------------------------------

    def conj(self) -> "QuadRat":
        """Image under the field automorphism sqrt(3) -> -sqrt(3)."""
        return QuadRat(self.p, -self.q)

    def sign(self) -> int:
        """Exact sign of the real value, never via floating point."""
        sp, sq = _sgn(self.p), _sgn(self.q)
        if sq == 0:
            return sp
        if sp == 0:
            return sq
        if sp == sq:
            return sp
        # Mixed signs: the sign follows whichever of p^2, 3q^2 dominates.
        return sp * _sgn(self.p * self.p - 3 * self.q * self.q)

    def __lt__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def floor(self) -> int:
        """Largest integer n with n <= p + q*sqrt(3), computed exactly.

        Write the value as (P + Q*sqrt(3))/D with integers P, Q and D > 0.
        floor(Q*sqrt(3)) = isqrt(3*Q^2) for Q >= 0; for Q < 0 it is
        -isqrt(3*Q^2) - 1 because 3*Q^2 is never a perfect square.  Then
        floor((P + t)/D) with t = floor(Q*sqrt(3)) gives the answer, since
        P is an integer.
        """
        d = lcm(self.p.denominator, self.q.denominator)
        big_p = self.p.numerator * (d // self.p.denominator)
        big_q = self.q.numerator * (d // self.q.denominator)
        if big_q >= 0:
            t = isqrt(3 * big_q * big_q)
        else:
            t = -isqrt(3 * big_q * big_q) - 1
        return (big_p + t) // d

    def __floor__(self) -> int:
        return self.floor()


def _coerce(value: object) -> "QuadRat | None":
    if isinstance(value, QuadRat):
        return value
    if isinstance(value, (int, Fraction)):
        return QuadRat(value)
    return None


ONE = QuadRat(1)
SQRT3 = QuadRat(0, 1)
INV_SQRT3 = QuadRat(0, Fraction(1, 3))  # 1/sqrt(3) = sqrt(3)/3


# -- the four lattices ----------------------------------------------------------


class LatticeId(Enum):
    """The scaled copies of G = Z[sqrt 3] that classify the shift parameter."""

    G = "G"
    HALF_G = "(1/2)G"
    INV_SQRT3_G = "(1/sqrt3)G"
    INV_2SQRT3_G = "(1/(2 sqrt3))G"


#: Multiplying by this scalar carries the lattice onto G.
LATTICE_SCALE = {
    LatticeId.G: ONE,
    LatticeId.HALF_G: QuadRat(2),
    LatticeId.INV_SQRT3_G: SQRT3,
    LatticeId.INV_2SQRT3_G: QuadRat(0, 2),
}


def lattice_member(a: QuadRat, lattice: LatticeId) -> bool:
    """True iff a belongs to the lattice (scale by the defining scalar, test in G)."""
    scaled = a * LATTICE_SCALE[lattice]
    return scaled.p.denominator == 1 and scaled.q.denominator == 1


# -- text form -------------------------------------------------------------------

_ROOT_TERM = re.compile(r"(?:([0-9]+(?:/[0-9]+)?)\*?)?s(?:/([0-9]+))?")
_RAT_TERM = re.compile(r"[0-9]+(?:/[0-9]+)?")
# Whitespace with a character other than a sign on both sides.
_INNER_SPACE = re.compile(r"[^\s+-]\s+[^\s+-]")


def _parse_term(body: str, sign: int, original: str) -> QuadRat:
    root = _ROOT_TERM.fullmatch(body)
    if not root and not _RAT_TERM.fullmatch(body):
        raise ParseError(f"cannot read {body!r} in {original!r} as an exact value")
    if root and root.group(2) and "/" in (root.group(1) or ""):
        raise ParseError(
            f"ambiguous root term in {original!r}: a denominator on both sides"
            " of the root; write it on one side, as 1/10√3 or √3/10"
        )
    try:
        if not root:
            return QuadRat(sign * Fraction(body))
        coef = Fraction(root.group(1)) if root.group(1) else Fraction(1)
        if root.group(2):
            coef /= Fraction(int(root.group(2)))
        return QuadRat(0, sign * coef)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {original!r}") from None
    except ValueError:
        # The patterns admit ASCII digits only, so this is the interpreter's
        # cap on the length of an integer read from text.
        raise ParseError(
            f"a number has more than {sys.get_int_max_str_digits()} digits,"
            " the most that Python reads as an integer"
        ) from None


def parse_quadrat(text: str) -> QuadRat:
    """Parse `a/b+c/d√3` (√3 may be written √3, sqrt3 or s) into a QuadRat.

    Plain rationals, bare roots (`√3/3`, `-2s`, `sqrt3`) and any signed
    combination of such terms are accepted, with at most one sign before
    each term: `--1` or `1+-1` is ambiguous and refused, and so is a root
    term with a denominator on both sides (`1/2√3/5`).  Decimals are
    rejected: the machinery downstream is exact and silently approximating
    the input would corrupt every orbit count.
    """
    raw = text.strip()
    if not raw:
        raise ParseError("empty value")
    if "." in raw:
        raise ParseError(f"expected an exact rational, got a decimal in {text!r}")
    if _INNER_SPACE.search(raw):
        raise ParseError(f"space inside a term of {text!r}; spaces may stand only next to a sign")
    norm = re.sub(r"\s+", "", raw).replace("√3", "s").replace("sqrt3", "s")
    total = QuadRat(0)
    i, n = 0, len(norm)
    while i < n:
        sign = 1
        if norm[i] in "+-":
            sign = -1 if norm[i] == "-" else 1
            i += 1
        j = i
        while j < n and norm[j] not in "+-":
            j += 1
        if i == j:
            problem = "two signs in a row" if j < n else "dangling sign"
            raise ParseError(f"{problem} in {text!r}")
        total = total + _parse_term(norm[i:j], sign, text)
        i = j
    return total


def format_quadrat(a: QuadRat) -> str:
    """Exact text form that parse_quadrat maps back to the same value."""
    if a.q == 0:
        return str(a.p)
    mag = abs(a.q)
    root = "√3" if mag == 1 else f"{mag}√3"
    if a.p == 0:
        return root if a.q > 0 else f"-{root}"
    joiner = "+" if a.q > 0 else "-"
    return f"{a.p}{joiner}{root}"
