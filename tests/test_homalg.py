import random
import unittest
from fractions import Fraction

from tilecohom.cyclotomic import PlanePoint, pt_scale_mul
from tilecohom.exactfield import QuadRat
from tilecohom.homalg import (
    SmithForm,
    beta_matrix,
    kernel_basis,
    rank_and_cokernel,
    smith,
    stabilizer_basis,
    wedge,
)

from line_helper import f_vector


def mat_mul(x, y):
    cols = len(y[0])
    return tuple(
        tuple(sum(x[r][k] * y[k][c] for k in range(len(y))) for c in range(cols))
        for r in range(len(x))
    )


def det_int(matrix) -> int:
    """Integer determinant via fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                a[r][c] = (a[r][c] * a[k][k] - a[r][k] * a[k][c]) // prev
            a[r][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def verify_smith(matrix, form: SmithForm) -> bool:
    """Check left*matrix*right equals the diagonal and transforms are unimodular."""
    if mat_mul(mat_mul(form.left, tuple(tuple(r) for r in matrix)), form.right) != form.diagonal:
        return False
    if abs(det_int(form.left)) != 1 or abs(det_int(form.right)) != 1:
        return False
    nonzero = [f for f in form.factors if f]
    for i in range(len(nonzero) - 1):
        if nonzero[i + 1] % nonzero[i]:
            return False
    return all(f >= 0 for f in form.factors)


def f_coords_to_point(coords):
    p = PlanePoint(QuadRat(0), QuadRat(0))
    for c, i in zip(coords, range(1, 5)):
        p = p + pt_scale_mul(f_vector(i), QuadRat(c))
    return p


def cross(a: PlanePoint, b: PlanePoint) -> QuadRat:
    return a.u * b.v - a.v * b.u


def test_stabilizer_generators_parallel_to_direction():
    for i in range(1, 7):
        basis = stabilizer_basis(i)
        direction = f_vector(i) if i <= 6 else None
        for gen in basis.gens:
            vec = f_coords_to_point(gen)
            assert cross(vec, direction) == QuadRat(0)
            assert vec  # nonzero


def test_stabilizer_table_entries():
    assert stabilizer_basis(1).gens == ((1, 0, 0, 0), (0, -2, 0, 1))
    assert stabilizer_basis(4).gens == ((0, 0, 0, 1), (-1, 0, 2, 0))


def test_beta_columns():
    beta = beta_matrix()
    col = lambda j: tuple(beta[r][j] for r in range(6))
    assert col(0) == (-2, 0, 1, 0, 0, 0)
    assert col(5) == (2, 0, -2, 1, 0, 1)


def test_beta_relations():
    beta = beta_matrix()
    col = lambda j: tuple(beta[r][j] for r in range(6))
    l1, l2, l3, l4, l5 = (col(j) for j in range(5))
    assert all(a - (b - 2 * c - 2 * d) == 0 for a, b, c, d in zip(l4, l1, l2, l3))
    assert all(a - (-2 * b + 3 * c + 2 * d) == 0 for a, b, c, d in zip(l5, l1, l2, l3))


def test_rank_and_cokernel():
    data = rank_and_cokernel()
    assert data["R"] == 3
    assert data["torsion_free"] is True
    assert data["coker_rank"] == 3
    assert data["factors"] == (1, 1, 1, 0, 0, 0)


class SmithFormTests(unittest.TestCase):
    def check(self, matrix, expected=None):
        form = smith(matrix)
        self.assertTrue(verify_smith(matrix, form))
        if expected is not None:
            self.assertEqual(form.factors, expected)
        return form

    def test_already_diagonal(self):
        self.check([[2, 0], [0, 4]], (2, 4))

    def test_unimodular(self):
        self.check([[2, 1], [1, 1]], (1, 1))

    def test_divisibility_repair(self):
        self.check([[2, 0], [0, 3]], (1, 6))
        self.check([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30))

    def test_zero_and_rectangular(self):
        self.check([[0, 0], [0, 0]], (0, 0))
        form = self.check([[2, 4, 6]])
        self.assertEqual(form.factors, (2,))
        form = self.check([[2], [4], [6]])
        self.assertEqual(form.factors, (2,))

    def test_beta_matrix_factors(self):
        self.check(beta_matrix(), (1, 1, 1, 0, 0, 0))

    def test_random_matrices_verify(self):
        rng = random.Random(42)
        for _ in range(100):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            self.check(matrix)

    def test_factors_invariant_under_unimodular_transforms(self):
        rng = random.Random(43)

        def random_unimodular(n):
            mat = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
            for _ in range(3 * n):
                r1, r2 = rng.sample(range(n), 2)
                f = rng.randint(-2, 2)
                for c in range(n):
                    mat[r1][c] += f * mat[r2][c]
            return mat

        for _ in range(40):
            m = rng.randint(2, 6)
            n = rng.randint(2, 6)
            matrix = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            u = random_unimodular(m)
            v = random_unimodular(n)
            transformed = mat_mul(mat_mul(u, matrix), v)
            self.assertEqual(smith(matrix).factors, smith(transformed).factors)

    def test_rank_matches_exact_gaussian_elimination(self):
        def rank_fractions(matrix):
            rows = [[Fraction(x) for x in row] for row in matrix]
            rank = 0
            cols = len(rows[0]) if rows else 0
            for c in range(cols):
                pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
                if pivot is None:
                    continue
                rows[rank], rows[pivot] = rows[pivot], rows[rank]
                for r in range(len(rows)):
                    if r != rank and rows[r][c]:
                        f = rows[r][c] / rows[rank][c]
                        rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
                rank += 1
            return rank

        rng = random.Random(44)
        for _ in range(100):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            matrix = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
            smith_rank = sum(1 for f in smith(matrix).factors if f)
            self.assertEqual(smith_rank, rank_fractions(matrix))


def test_kernel_basis():
    matrix = [[1, 0, -1, 0], [0, 2, 0, -2]]
    basis = kernel_basis(matrix)
    assert len(basis) == 2
    for vec in basis:
        assert all(
            sum(matrix[r][c] * vec[c] for c in range(4)) == 0 for r in range(2)
        )


def test_det_int():
    assert det_int([[2, 1], [1, 1]]) == 1
    assert det_int([[1, 2], [2, 4]]) == 0
    rng = random.Random(45)
    for _ in range(50):
        n = rng.randint(1, 5)
        matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        # compare against cofactor expansion
        def det_rec(m):
            if len(m) == 1:
                return m[0][0]
            total = 0
            for c in range(len(m)):
                minor = [row[:c] + row[c + 1 :] for row in m[1:]]
                total += (-1) ** c * m[0][c] * det_rec(minor)
            return total

        assert det_int(matrix) == det_rec(matrix)


def test_wedge_antisymmetry():
    rng = random.Random(46)
    for _ in range(50):
        a = [rng.randint(-5, 5) for _ in range(4)]
        b = [rng.randint(-5, 5) for _ in range(4)]
        assert wedge(a, b) == tuple(-x for x in wedge(b, a))
        assert wedge(a, a) == (0,) * 6
