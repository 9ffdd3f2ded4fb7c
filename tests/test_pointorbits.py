"""Tests for crossing-point classes on the singular lines."""

import random
from fractions import Fraction
from itertools import product

import pytest

from tilecohom.accept import class_lists_match, closed_form_lines
from tilecohom.cyclotomic import pt_scale_mul, xpow
from tilecohom.exactfield import QuadRat
from tilecohom.homalg import beta_matrix, smith
from tilecohom.lineorbits import (
    LineOrbit,
    LineOrbitSet,
    candidate_lines,
    orbit_partition,
    reduce_gamma,
)
import tilecohom.pointorbits
from tilecohom.pointorbits import (
    OFFSET_MODULUS,
    ConsistencyError,
    build_tables,
    coset_set,
)

from crossing_oracle import global_key, lambda_classes, reference_tables
from line_helper import lines_over


def q(a, b=0):
    return QuadRat(Fraction(a), Fraction(b))


def rnd_fraction(rnd):
    return Fraction(rnd.randrange(-40, 40), rnd.randrange(1, 24))


def rnd_gamma(rnd):
    raw = (
        QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)),
        QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)),
    )
    return reduce_gamma(raw)


A3 = (q(0), q(0, Fraction(1, 3)), q(0, Fraction(2, 3)))
A4 = (q(0), q(Fraction(1, 2)), q(0, Fraction(1, 2)), q(Fraction(1, 2), Fraction(1, 2)))


def engine_keys(tables, orbit_count):
    """Each orbit's set of class keys, read off the incidence bits."""
    keys = [set() for _ in range(orbit_count)]
    for key, members in tables.incidence.items():
        for idx in range(orbit_count):
            if members >> idx & 1:
                keys[idx].add(key)
    return keys


def orbit_class_lists_match(gamma):
    """Check every orbit's engine classes against the closed-form lists
    (accept.class_lists_match), and that every orbit holds a closed-form
    candidate and counts each of its classes once."""
    assert class_lists_match(gamma) == []
    orbits = orbit_partition(candidate_lines(gamma))
    tables = build_tables(orbits)
    closed = {line for line, _, _ in closed_form_lines(gamma)}
    keys = engine_keys(tables, len(orbits.orbits))
    for idx, orbit in enumerate(orbits.orbits):
        assert any((m.direction, m.anchor) in closed for m in orbit.members)
        assert tables.per_orbit[idx].total == len(keys[idx])
    return orbits, tables


GENERIC_GAMMA = (
    QuadRat(Fraction(1, 7), Fraction(1, 11)),
    QuadRat(Fraction(1, 13), Fraction(1, 17)),
)

# gamma, L1, sum L0^alpha, L0, e, L0 split by p, rows as (n, parity, by_p)
WORKED_CASES = [
    ((q(0), q(0)), 6, 36, 14, 22, (9, 4, 0, 0, 1),
     [(6, "e,o", (3, 2, 0, 0, 1))]),
    ((q(0), q(Fraction(1, 2))), 9, 90, 36, 54, (24, 9, 0, 3, 0),
     [(3, "e", (10, 0, 0, 2, 0)), (3, "o", (4, 5, 0, 1, 0)),
      (3, "o", (2, 4, 0, 2, 0))]),
    ((q(0, Fraction(1, 3)), q(0)), 9, 99, 43, 56, (36, 5, 0, 0, 2),
     [(3, "e", (6, 1, 0, 0, 2)), (6, "o", (9, 2, 0, 0, 1))]),
    ((q(0, Fraction(1, 3)), q(0, Fraction(1, 3))), 12, 180, 80, 100,
     (72, 4, 0, 0, 4), [(12, "e,o", (12, 1, 0, 0, 2))]),
    ((q(0, Fraction(1, 3)), q(Fraction(1, 3))), 12, 180, 78, 102,
     (66, 6, 0, 6, 0), [(6, "e", (12, 0, 0, 3, 0)), (6, "o", (10, 3, 0, 2, 0))]),
    ((q(0), q(0, Fraction(1, 6))), 12, 180, 78, 102, (66, 6, 0, 6, 0),
     [(6, "e", (16, 0, 0, 2, 0)), (3, "o", (8, 4, 0, 2, 0)),
      (3, "o", (4, 2, 0, 4, 0))]),
    ((q(Fraction(1, 2)), q(0, Fraction(1, 2))), 12, 144, 56, 88,
     (36, 16, 0, 0, 4), [(12, "e,o", (6, 4, 0, 0, 2))]),
    ((q(Fraction(1, 2)), q(Fraction(1, 2), Fraction(1, 2))), 12, 216, 99, 117,
     (90, 0, 9, 0, 0), [(6, None, (18, 0, 2, 0, 0)), (6, None, (12, 0, 4, 0, 0))]),
    (GENERIC_GAMMA, 24, 1056, 516, 540, (504, 0, 12, 0, 0),
     [(24, "e,o", (42, 0, 2, 0, 0))]),
]


def offset_values(d):
    n = OFFSET_MODULUS
    return tuple(q(Fraction(a, n), Fraction(b, n)) for a, b in coset_set(d).offsets)


def test_coset_sets_pinned():
    assert offset_values(1) == (q(0),)
    assert offset_values(5) == (q(0),)
    assert set(offset_values(2)) == set(A3)
    assert set(offset_values(4)) == set(A3)
    assert set(offset_values(3)) == set(A4)
    for d in range(1, 6):
        assert coset_set(d).index == d


def first_component(k, d):
    """c with x^k = c*x^0 + c'*x^d, by Cramer's rule over Q(sqrt 3)."""
    p, b = xpow(k), xpow(d)
    return (p.u * b.v - p.v * b.u) / b.v  # det(x^0, x^d) = b.v


def test_offset_subgroup_index_by_smith():
    # The offsets form H/G with H = G + <first components of 1, x, x^2, x^3
    # in the basis (x^0, x^d)>.  Scaled by 6 every generator is an int pair,
    # so [H : G] = [6H : 6G] = 36 / [Z^2 : 6H], and [Z^2 : 6H] is the
    # product of the Smith factors of the generator rows; no closure needed.
    for d, size in zip(range(1, 6), (1, 3, 4, 3, 1)):
        rows = [(6, 0), (0, 6)]
        for k in range(4):
            c = first_component(k, d) * q(6)
            assert c.p.denominator == 1 and c.q.denominator == 1
            rows.append((int(c.p), int(c.q)))
        factors = smith(rows).factors
        assert all(factors)
        index = 36 // (factors[0] * factors[1])
        assert index * factors[0] * factors[1] == 36
        assert index == size == len(coset_set(d).offsets)


def test_smith_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    def sympy_factors(rows):
        form = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        return tuple(abs(int(form[i, i])) for i in range(min(form.shape)))

    matrices = [beta_matrix()]
    rnd = random.Random(61)
    for _ in range(30):
        m, n = rnd.randint(4, 6), rnd.randint(4, 6)
        if rnd.random() < 0.5:
            rows = [[rnd.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        else:
            # a product through a narrow middle, scaled: rank deficit and
            # nontrivial invariant factors
            r = rnd.randint(1, min(m, n) - 1)
            scale = rnd.choice((1, 2, 3, 6))
            left = [[rnd.randint(-4, 4) for _ in range(r)] for _ in range(m)]
            right = [[rnd.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            rows = [[scale * sum(left[i][k] * right[k][j] for k in range(r))
                     for j in range(n)] for i in range(m)]
        matrices.append(rows)
    for rows in matrices:
        assert smith(rows).factors == sympy_factors(rows), rows


def test_coset_set_rejects_out_of_range():
    for d in (0, 6, -1):
        with pytest.raises(ValueError, match="out of range"):
            coset_set(d)


def test_lambda_classes_parallel_never_cross():
    a, b = lines_over([(2, xpow(0)), (2, xpow(1))])
    with pytest.raises(ValueError, match="never cross"):
        lambda_classes(a, b)


def test_lambda_classes_enumerate_translate_cosets():
    rnd = random.Random(17)
    anchor = pt_scale_mul(xpow(1), q(rnd_fraction(rnd)))
    for d in range(1, 6):
        alpha, beta = lines_over([
            (0, anchor), (d, pt_scale_mul(xpow(d + 1), q(rnd_fraction(rnd))))])
        classes = lambda_classes(alpha, beta)
        assert len(classes) == len(coset_set(d).offsets)
        assert len(set(classes)) == len(classes)
        keys = {global_key(alpha, lam) for lam in classes}
        assert len(keys) == len(classes)


def test_generic_line_class_lists():
    gamma = reduce_gamma(GENERIC_GAMMA)
    orbits, tables = orbit_class_lists_match(gamma)
    assert len(orbits.orbits) == 24
    assert all(entry.total == 44 for entry in tables.per_orbit)
    assert tables.L0 == 516
    assert tables.L0_by_p == (504, 0, 12, 0, 0)


def test_random_gamma_line_class_lists():
    rnd = random.Random(31)
    for _ in range(6):
        orbit_class_lists_match(rnd_gamma(rnd))


def test_merged_orbit_class_lists_at_worked_gammas():
    for raw, *_ in WORKED_CASES:
        orbit_class_lists_match(reduce_gamma(raw))


def test_worked_case_tables():
    for raw, l1, sum_a, l0, e, l0_by_p, rows in WORKED_CASES:
        gamma = reduce_gamma(raw)
        orbits = orbit_partition(candidate_lines(gamma))
        tables = build_tables(orbits)
        assert orbits.L1 == l1
        assert tables.sum_L0alpha == sum_a
        assert tables.L0 == l0
        assert tables.e == e
        assert -tables.L0 + tables.sum_L0alpha == e
        assert tables.L0_by_p == l0_by_p
        got = [(t.n, t.parity, t.by_p) for t in tables.types]
        assert sorted((n, bp) for n, _, bp in got) == sorted(
            (n, bp) for n, _, bp in rows
        )
        for n, parity, by_p in rows:
            if parity is not None:
                assert (n, parity, by_p) in got


def test_double_count_identity():
    rnd = random.Random(47)
    for _ in range(4):
        tables = build_tables(orbit_partition(candidate_lines(rnd_gamma(rnd))))
        for slot, count in enumerate(tables.L0_by_p):
            p = slot + 2
            on_lines = sum(entry.by_p[slot] for entry in tables.per_orbit)
            assert on_lines == p * count
        assert tables.L0 == sum(tables.L0_by_p)
        assert tables.e == -tables.L0 + tables.sum_L0alpha


def test_representative_choice_invariance():
    rnd = random.Random(3)
    for raw, *_ in WORKED_CASES[:4] + WORKED_CASES[-1:]:
        gamma = reduce_gamma(raw)
        lines = candidate_lines(gamma)
        base = build_tables(orbit_partition(lines))
        shuffled = list(lines)
        rnd.shuffle(shuffled)
        redone = build_tables(orbit_partition(shuffled))
        assert redone.L0 == base.L0
        assert redone.L0_by_p == base.L0_by_p
        assert redone.e == base.e
        assert redone.sum_L0alpha == base.sum_L0alpha
        assert sorted(e.by_p for e in redone.per_orbit) == sorted(
            e.by_p for e in base.per_orbit
        )
        assert sorted((t.n, t.parity, t.by_p) for t in redone.types) == sorted(
            (t.n, t.parity, t.by_p) for t in base.types
        )


def _q3(a, b):
    return QuadRat(Fraction(a), Fraction(b))


#: Shifts whose denominators stress the int kernel: parts above 10^30 and
#: 10^200, and rational parts over 2, 3, 4, 6, 9, 12 and 36, where the factor
#: 6 of the modulus has to clear the sqrt(3)/3 and 1/2 offsets on its own.
STRESS_GAMMAS = [
    (_q3(Fraction(12345, 10**31 + 3), Fraction(7, 10**33 + 9)),
     _q3(Fraction(1, 10**30 + 11), Fraction(-2, 10**32 + 17))),
    (_q3(Fraction(10**200, 3 * 10**200 + 7), Fraction(1, 10**201 + 1)),
     _q3(Fraction(-5, 10**202 + 3), Fraction(10**199, 10**200 + 9))),
    (_q3(Fraction(1, 2), 0), _q3(Fraction(1, 3), 0)),
    (_q3(Fraction(1, 4), 0), _q3(Fraction(1, 6), 0)),
    (_q3(Fraction(1, 9), 0), _q3(Fraction(5, 12), 0)),
    (_q3(Fraction(5, 36), 0), _q3(Fraction(-7, 36), 0)),
    (_q3(Fraction(1, 2), Fraction(1, 3)), _q3(Fraction(1, 4), Fraction(1, 6))),
    (_q3(Fraction(5, 36), Fraction(1, 9)), _q3(Fraction(1, 12), Fraction(7, 36))),
    (_q3(Fraction(1, 6), Fraction(1, 2)), _q3(Fraction(2, 9), Fraction(1, 4))),
    (_q3(0, Fraction(1, 12)), _q3(Fraction(1, 36), Fraction(1, 36))),
]


def test_kernel_at_stress_denominators():
    rnd = random.Random(101)
    for raw in STRESS_GAMMAS:
        gamma = reduce_gamma(raw)
        assert class_lists_match(gamma) == []
        lines = candidate_lines(gamma)
        base = build_tables(orbit_partition(lines))
        summary = (base.L0, base.L0_by_p, base.e, base.sum_L0alpha)
        for _ in range(2):
            shuffled = list(lines)
            rnd.shuffle(shuffled)
            redone = build_tables(orbit_partition(shuffled))
            assert (redone.L0, redone.L0_by_p, redone.e, redone.sum_L0alpha) == summary
            assert sorted(e.by_p for e in redone.per_orbit) == sorted(
                e.by_p for e in base.per_orbit)


#: The N = 6 grid ((1/6)G)^2 mod G^2: 6^4 = 1,296 shifts, covering the
#: degenerate strata of denominators 2, 3 and 6.
GRID_6 = [
    (_q3(Fraction(a, 6), Fraction(b, 6)), _q3(Fraction(c, 6), Fraction(d, 6)))
    for a, b, c, d in product(range(6), repeat=4)
]


def test_fused_tables_match_the_reference():
    # the per-pair pass of build_tables against the one-crossing-at-a-time
    # reference, field for field, at the worked shifts, the stress
    # denominators and every 9th shift of the N = 6 grid
    raws = [raw for raw, *_ in WORKED_CASES] + STRESS_GAMMAS + GRID_6[::9]
    for raw in raws:
        orbits = orbit_partition(candidate_lines(reduce_gamma(raw)))
        fused, reference = build_tables(orbits), reference_tables(orbits)
        assert fused.per_orbit == reference.per_orbit, raw
        assert fused.incidence == reference.incidence, raw
        assert fused.modulus == orbits.orbits[0].representative.modulus, raw
        assert fused.types == reference.types, raw
        assert fused.L0_by_p == reference.L0_by_p, raw
        assert (fused.L0, fused.e) == (reference.L0, reference.e), raw


def test_too_fine_partition_is_refused():
    # Every candidate its own orbit: at gamma = 0 the coincident candidates
    # become two representatives of one orbit, which claim the same classes.
    lines = candidate_lines(reduce_gamma((q(0), q(0))))
    with pytest.raises(ConsistencyError, match="two representatives lie in one orbit"):
        build_tables(orbit_partition(lines, test=lambda a, b: False))
    # One orbit per direction is too coarse at a generic shift (L1 is 24),
    # but no check in build_tables can see that: one line per direction
    # crosses consistently, whichever lines they are.
    lines = candidate_lines(reduce_gamma(GENERIC_GAMMA))
    merged = orbit_partition(lines, test=lambda a, b: True)
    assert merged.L1 == 6
    assert build_tables(merged).L0 > 0


def test_chart_divisibility_is_checked():
    # A point off the op's lattice: build_tables refuses it, and so does the
    # oracle, whose decompose finds a charted difference that the chart
    # divisor does not divide.
    orbits = orbit_partition(candidate_lines(reduce_gamma(GENERIC_GAMMA)))
    first, *rest = orbits.orbits

    def moved_by(entry, step):
        point = list(first.representative.point)
        point[entry] += step
        moved = first.representative._replace(point=tuple(point))
        return LineOrbitSet((LineOrbit(moved, (moved,)), *rest))

    for tables in (build_tables, reference_tables):
        with pytest.raises(ValueError, match="needs entries divisible by"):
            tables(moved_by(2, 1))
    # Every point of an op has all entries divisible by 6.  Some moves off
    # that lattice keep every chart image divisible (entry 0 or 1 by 1, 2 or
    # 3, entry 3 by 2) and would yield tables for other lines; build_tables
    # refuses them all.
    for entry, step in product(range(4), range(1, 6)):
        with pytest.raises(ValueError, match="needs entries divisible by"):
            build_tables(moved_by(entry, step))


def test_tables_repr_leaves_out_the_incidence():
    tables = build_tables(orbit_partition(candidate_lines(
        reduce_gamma((q(Fraction(1, 5)), q(Fraction(1, 7)))))))
    text = repr(tables)
    assert text.startswith("IntersectionTables(per_orbit=")
    assert f"modulus={tables.modulus})" in text
    assert "incidence" not in text
    assert not any(repr(key) in text for key in tables.incidence)
    assert len(tables.incidence) == tables.L0


@pytest.mark.parametrize("kept, message", [
    (slice(1, None), "two different line sets"),
    (slice(None, -1), "double counting broken"),
])
def test_checks_run_before_the_points_are_read(monkeypatch, kept, message):
    # Drop one crossing offset of the pair (0, 3): orbits of direction 0 then
    # miss classes that orbits of direction 3 still claim.  Dropping the
    # zero offset breaks a shared class's line set, dropping the last one
    # leaves a class of p = 2 claimed once; build_tables itself refuses
    # both, before any caller reads the classes.
    chart = tilecohom.pointorbits._pair_chart
    alpha_side, beta_side, k, steps = chart(0, 3)
    assert len(steps) == 4

    def truncated(i, j):
        if (i, j) == (0, 3):
            return alpha_side, beta_side, k, steps[kept]
        return chart(i, j)

    monkeypatch.setattr(tilecohom.pointorbits, "_pair_chart", truncated)
    for raw in ((q(0), q(0)), GENERIC_GAMMA):
        orbits = orbit_partition(candidate_lines(reduce_gamma(raw)))
        with pytest.raises(ConsistencyError, match=message):
            build_tables(orbits)


@pytest.mark.parametrize("i, j", [(i, j) for i in range(6) for j in range(6) if i != j])
def test_every_ordered_pass_is_checked(monkeypatch, i, j):
    # Each of the 30 ordered passes is computed and compared on its own:
    # one pass that loses its last offset, the others intact, is refused at
    # gamma = 0 and at a generic shift, with its direction pair named.
    chart = tilecohom.pointorbits._pair_chart
    alpha_side, beta_side, k, steps = chart(i, j)

    def truncated(a, b):
        if (a, b) == (i, j):
            return alpha_side, beta_side, k, steps[:-1]
        return chart(a, b)

    monkeypatch.setattr(tilecohom.pointorbits, "_pair_chart", truncated)
    named = r"directions \(%d, %d\)" % (min(i, j), max(i, j))
    for raw in ((q(0), q(0)), GENERIC_GAMMA):
        orbits = orbit_partition(candidate_lines(reduce_gamma(raw)))
        with pytest.raises(ConsistencyError, match=named):
            build_tables(orbits)


def test_a_crossing_lost_from_both_sides_is_refused(monkeypatch):
    # Both passes of the pair {0, 3} lose their zero offset: the two dicts
    # still agree, but a shared class (p = 6 at gamma = 0, p = 4 at the
    # generic shift) is then met by too few direction pairs.
    chart = tilecohom.pointorbits._pair_chart

    def truncated(i, j):
        alpha_side, beta_side, k, steps = chart(i, j)
        if {i, j} == {0, 3}:
            return alpha_side, beta_side, k, steps[1:]
        return alpha_side, beta_side, k, steps

    monkeypatch.setattr(tilecohom.pointorbits, "_pair_chart", truncated)
    for raw in ((q(0), q(0)), GENERIC_GAMMA):
        orbits = orbit_partition(candidate_lines(reduce_gamma(raw)))
        with pytest.raises(ConsistencyError, match="direction pairs with .* double counting broken"):
            build_tables(orbits)
