"""Stabilizer groups of the singular directions, the wedge map beta, and
integer Smith normal form with unimodular transforms.

Matrices are plain tuples of tuples of Python ints; sizes here are tiny
(at most 6x6 in production use) but the routines stay correct for
arbitrary integer matrices.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


# -- direction stabilizers ---------------------------------------------------
#
# The translation lattice DELTA0 is free on (f_1, f_2, f_3, f_4) with
# f_5 = f_3 - f_1 and f_6 = f_4 - f_2.  For each singular direction the
# rank-2 subgroup of translations preserving a line of that direction is
# spanned by the two rows below, written in f_1..f_4 coordinates.

_STAB_GENS = {
    1: ((1, 0, 0, 0), (0, -2, 0, 1)),   # f_1,        f_6 - f_2
    2: ((0, 1, 0, 0), (1, 0, 1, 0)),    # f_2,        f_1 + f_3
    3: ((0, 0, 1, 0), (0, 1, 0, 1)),    # f_3,        f_2 + f_4
    4: ((0, 0, 0, 1), (-1, 0, 2, 0)),   # f_4,        f_3 + f_5
    5: ((-1, 0, 1, 0), (0, -1, 0, 2)),  # f_5,        f_4 + f_6
    6: ((0, -1, 0, 1), (2, 0, -1, 0)),  # f_6,        f_5 + f_1
}


class StabilizerBasis(NamedTuple):
    direction: int
    gens: tuple[tuple[int, int, int, int], tuple[int, int, int, int]]


def stabilizer_basis(i: int) -> StabilizerBasis:
    if i not in _STAB_GENS:
        raise ValueError(f"direction index {i} out of range 1..6")
    return StabilizerBasis(i, _STAB_GENS[i])


_WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def wedge(a, b):
    """Exterior product of two 4-vectors in the lexicographic pair basis."""
    return tuple(a[r] * b[s] - a[s] * b[r] for r, s in _WEDGE_PAIRS)


def beta_matrix():
    """6x6 integer matrix whose column i is the wedge of the two stabilizer
    generators of direction i+1."""
    cols = [wedge(*stabilizer_basis(i).gens) for i in range(1, 7)]
    return tuple(tuple(cols[j][r] for j in range(6)) for r in range(6))


# -- Smith normal form --------------------------------------------------------


class SmithForm(NamedTuple):
    factors: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    diagonal: tuple[tuple[int, ...], ...]


def _identity(n):
    return [[1 if r == c else 0 for c in range(n)] for r in range(n)]


def smith(matrix) -> SmithForm:
    """Exact Smith normal form with unimodular transforms.

    Returns factors (non-negative, each dividing the next) and matrices
    left, right with left * matrix * right equal to the diagonal form.
    Pivots are chosen by least absolute value to keep entries small.
    """
    a = [list(row) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    left = _identity(m)
    right = _identity(n)

    def swap_rows(r1, r2):
        a[r1], a[r2] = a[r2], a[r1]
        left[r1], left[r2] = left[r2], left[r1]

    def swap_cols(c1, c2):
        for row in a:
            row[c1], row[c2] = row[c2], row[c1]
        for row in right:
            row[c1], row[c2] = row[c2], row[c1]

    def add_row(dst, src, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + factor * y for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in right:
            row[dst] += factor * row[src]

    def negate_row(r):
        a[r] = [-x for x in a[r]]
        left[r] = [-x for x in left[r]]

    def diagonalize():
        k = 0
        while k < m and k < n:
            pivot = None
            for r in range(k, m):
                for c in range(k, n):
                    if a[r][c] != 0 and (
                        pivot is None or abs(a[r][c]) < abs(a[pivot[0]][pivot[1]])
                    ):
                        pivot = (r, c)
            if pivot is None:
                break
            swap_rows(k, pivot[0])
            swap_cols(k, pivot[1])
            # clear row and column k; a nonzero remainder means a smaller
            # pivot appeared, so re-entering with the same k terminates
            dirty = False
            for r in range(k + 1, m):
                if a[r][k]:
                    add_row(r, k, -(a[r][k] // a[k][k]))
                    if a[r][k]:
                        dirty = True
            for c in range(k + 1, n):
                if a[k][c]:
                    add_col(c, k, -(a[k][c] // a[k][k]))
                    if a[k][c]:
                        dirty = True
            if dirty:
                continue
            if a[k][k] < 0:
                negate_row(k)
            k += 1
        return k

    # Diagonalize, then repair any divisibility violation by mixing the two
    # columns and diagonalizing again; each repair strictly refines the gcd
    # at the earlier position, so the loop is finite.
    while True:
        rank = diagonalize()
        violation = None
        for i in range(rank - 1):
            if a[i + 1][i + 1] % a[i][i]:
                violation = i
                break
        if violation is None:
            break
        add_col(violation, violation + 1, 1)

    factors = tuple(a[i][i] for i in range(min(m, n)))
    return SmithForm(
        factors,
        tuple(tuple(row) for row in left),
        tuple(tuple(row) for row in right),
        tuple(tuple(row) for row in a),
    )


def kernel_basis(matrix):
    """Z-basis of the integer kernel, from the column transform of the SNF."""
    form = smith(matrix)
    n = len(matrix[0])
    rank = sum(1 for f in form.factors if f)
    return tuple(
        tuple(form.right[r][c] for r in range(n)) for c in range(rank, n)
    )


@lru_cache(maxsize=1)
def rank_and_cokernel():
    """Rank R of the wedge map and the structure of its cokernel."""
    form = smith(beta_matrix())
    nonzero = [f for f in form.factors if f]
    return {
        "R": len(nonzero),
        "torsion_free": all(f == 1 for f in nonzero),
        "coker_rank": len(beta_matrix()) - len(nonzero),
        "factors": form.factors,
    }
