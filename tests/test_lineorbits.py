"""Tests for candidate singular lines and their orbit partition."""

import random
from fractions import Fraction

import pytest

from tilecohom.cyclotomic import (
    PlanePoint,
    encode,
    lattice_contains,
    modulus,
    pt_scale_mul,
    times_sqrt3,
    xpow,
)
from tilecohom.exactfield import INV_SQRT3, SQRT3, LatticeId, QuadRat, lattice_member
from tilecohom.lineorbits import (
    GammaParam,
    SingularLine,
    candidate_lines,
    orbit_key,
    orbit_partition,
    reduce_gamma,
    same_orbit,
)

from line_helper import f_vector, lines_over
from test_pointorbits import GRID_6, STRESS_GAMMAS, WORKED_CASES

# orbit counts attainable by the candidate partition
L1_VALUES = frozenset({6, 9, 12, 15, 18, 21, 24})


ORIGIN = PlanePoint(QuadRat(0), QuadRat(0))


def qr(a, b=0):
    return QuadRat(Fraction(a), Fraction(b))


def rnd_fraction(rnd):
    return Fraction(rnd.randrange(-40, 40), rnd.randrange(1, 24))


def rnd_gamma(rnd):
    raw = (
        QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)),
        QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)),
    )
    return reduce_gamma(raw)


def even_pair(gamma, i):
    """The two positively signed anchors of even direction i."""
    c1 = gamma.g1 * INV_SQRT3
    c2 = gamma.g2 * INV_SQRT3
    side = pt_scale_mul(xpow(i + 1), c2)
    return lines_over([(i, pt_scale_mul(xpow(i), c1) + side),
                       (i, pt_scale_mul(xpow(i + 2), c1) + side)])


def odd_pair(gamma, i):
    """The two positively signed anchors of odd direction i."""
    c1 = gamma.g1 * INV_SQRT3
    c2 = gamma.g2 * INV_SQRT3
    side = pt_scale_mul(xpow(i + 1), c1)
    return lines_over([(i, pt_scale_mul(xpow(i + 4), c2) + side),
                       (i, pt_scale_mul(xpow(i + 6), c2) + side)])


def negated(line):
    """The line through -anchor, over the same modulus."""
    return SingularLine(line.direction, tuple(-c for c in line.point), line.modulus)


def in_delta0(p):
    """p in DELTA0 = (1/sqrt 3)Z[x], that is sqrt(3)*p in Z[x]."""
    n = modulus(p.u, p.v)
    return lattice_contains(times_sqrt3(encode(p, n)), n)


def perp_component(l1, l2) -> QuadRat:
    """Coefficient of x^((i+3) mod 6) in the anchor difference of two parallel
    lines, by Cramer's rule over Q(sqrt 3): the QuadRat reference for same_orbit."""
    if l1.direction % 6 != l2.direction % 6:
        raise ValueError(
            f"cannot compare lines of directions {l1.direction} and {l2.direction}"
        )
    i = l1.direction % 6
    bi, bj = xpow(i), xpow((i + 3) % 6)
    diff = l2.anchor - l1.anchor
    return (bi.u * diff.v - bi.v * diff.u) / (bi.u * bj.v - bi.v * bj.u)


def same_orbit_reference(l1, l2) -> bool:
    return lattice_member(SQRT3 * perp_component(l1, l2), LatticeId.HALF_G)


def orbit_witness(l1, l2) -> PlanePoint:
    """A translation t in (1/sqrt 3)Z[x] with l2.anchor - l1.anchor - t
    parallel to the common direction.  Only exists when same_orbit holds."""
    if not same_orbit(l1, l2):
        raise ValueError("lines are in different orbits")
    i = l1.direction % 6
    c_p = perp_component(l1, l2)
    w = SQRT3 * c_p * 2  # in G by the membership test
    mu = QuadRat(Fraction(w.p, 2), Fraction(w.q, 6))
    t = pt_scale_mul(xpow(i), mu) + pt_scale_mul(xpow((i + 3) % 6), c_p)
    if not in_delta0(t):
        raise AssertionError("witness fell outside the lattice")
    return t


# ---------------------------------------------------------------- reduction


def test_reduce_gamma_examples():
    g = reduce_gamma((QuadRat(0, 1), qr(-1, 0) * QuadRat(Fraction(1, 2))))
    assert g.g1 == QuadRat(-1, 1)
    assert g.g2 == qr(Fraction(1, 2))
    assert reduce_gamma((qr(0), qr(0))) == GammaParam(qr(0), qr(0))
    g = reduce_gamma((QuadRat(Fraction(5, 2), 1), qr(Fraction(1, 3))))
    assert g.g1 == QuadRat(Fraction(-3, 2), 1)
    assert g.g2 == qr(Fraction(1, 3))


def test_reduce_gamma_random_offsets():
    rnd = random.Random(2)
    for _ in range(30):
        raw1 = QuadRat(rnd_fraction(rnd), rnd_fraction(rnd))
        raw2 = QuadRat(rnd_fraction(rnd), rnd_fraction(rnd))
        g = reduce_gamma((raw1, raw2))
        for raw, red in ((raw1, g.g1), (raw2, g.g2)):
            diff = raw - red
            assert diff.q == 0 and diff.p.denominator == 1
            assert red.sign() >= 0
            assert (QuadRat(1) - red).sign() > 0


def test_gamma_param_rejects_unreduced():
    with pytest.raises(ValueError, match="not reduced"):
        GammaParam(qr(-1, 0) * qr(Fraction(1, 4)), qr(0))
    with pytest.raises(ValueError, match="not reduced"):
        GammaParam(qr(1), qr(0))
    with pytest.raises(ValueError, match="not reduced"):
        GammaParam(qr(0), QuadRat(0, 1))


# ---------------------------------------------------------------- candidates


def test_candidate_count_and_directions():
    rnd = random.Random(4)
    for _ in range(10):
        cands = candidate_lines(rnd_gamma(rnd))
        assert len(cands) == 24
        per_dir = {}
        for c in cands:
            per_dir[c.direction] = per_dir.get(c.direction, 0) + 1
        assert per_dir == {i: 4 for i in range(6)}


def test_candidates_zero_gamma():
    cands = candidate_lines(GammaParam(qr(0), qr(0)))
    assert all(c.anchor == ORIGIN for c in cands)
    assert orbit_partition(cands).L1 == 6


def test_candidates_on_axis_coincidences():
    # With g1 = 0, each odd direction keeps a symmetric pair of offset lines
    # while the two remaining anchors collapse onto the line through the
    # origin.
    t = qr(Fraction(1, 5))
    gamma = GammaParam(qr(0), t)
    origin = dict(enumerate(lines_over((i, ORIGIN) for i in range(6))))
    for i in (1, 3, 5):
        a, b = odd_pair(gamma, i)
        assert perp_component(b, origin[i]) == QuadRat(0)
        assert perp_component(negated(b), origin[i]) == QuadRat(0)
        assert perp_component(a, origin[i]) != QuadRat(0)
        assert perp_component(negated(a), origin[i]) != QuadRat(0)


def test_perp_component_rejects_direction_mismatch():
    l1, l2 = lines_over([(0, ORIGIN), (1, ORIGIN)])
    with pytest.raises(ValueError, match="directions"):
        same_orbit(l1, l2)
    # lines over two moduli are not brought to a common one
    [l3] = lines_over([(0, ORIGIN)], n=2 * l1.modulus)
    with pytest.raises(ValueError, match="moduli"):
        same_orbit(l1, l3)


# ---------------------------------------------------------------- merge laws


def test_even_leads_merge_condition():
    rnd = random.Random(6)
    gammas = [rnd_gamma(rnd) for _ in range(30)]
    gammas += [GammaParam(qr(0, Fraction(1, 3)), qr(Fraction(1, 7))),
               GammaParam(qr(0), qr(0)),
               GammaParam(qr(Fraction(1, 2)), qr(Fraction(1, 3)))]
    for gamma in gammas:
        cond = lattice_member(SQRT3 * gamma.g1, LatticeId.G)
        for i in (0, 2, 4):
            a, b = even_pair(gamma, i)
            assert same_orbit(a, b) is cond


def test_even_sign_pair_condition():
    rnd = random.Random(7)
    gammas = [rnd_gamma(rnd) for _ in range(30)]
    gammas += [GammaParam(qr(Fraction(1, 5)), qr(Fraction(1, 2))),
               GammaParam(qr(Fraction(1, 5)), qr(0, Fraction(1, 2))),
               GammaParam(qr(Fraction(1, 5)), QuadRat(Fraction(-1, 2), Fraction(1, 2)))]
    for gamma in gammas:
        cond = lattice_member(gamma.g2, LatticeId.HALF_G)
        for i in (0, 2, 4):
            a, _ = even_pair(gamma, i)
            assert same_orbit(a, negated(a)) is cond


def test_odd_sign_pair_condition():
    rnd = random.Random(8)
    gammas = [rnd_gamma(rnd) for _ in range(30)]
    gammas += [GammaParam(qr(Fraction(1, 2)), qr(0, Fraction(1, 4))),
               GammaParam(qr(Fraction(1, 4)), qr(0, Fraction(1, 4)))]
    for gamma in gammas:
        cond = lattice_member((SQRT3 * gamma.g2 + gamma.g1) * QuadRat(2), LatticeId.G)
        for i in (1, 3, 5):
            a, _ = odd_pair(gamma, i)
            assert same_orbit(a, negated(a)) is cond


def test_odd_leads_merge_condition():
    rnd = random.Random(9)
    for _ in range(30):
        gamma = rnd_gamma(rnd)
        cond = lattice_member(SQRT3 * gamma.g2, LatticeId.G)
        for i in (1, 3, 5):
            a, b = odd_pair(gamma, i)
            assert same_orbit(a, b) is cond


# ---------------------------------------------------------------- relation laws


def test_same_orbit_is_equivalence_on_candidates():
    rnd = random.Random(10)
    gammas = [rnd_gamma(rnd) for _ in range(6)]
    gammas += [GammaParam(qr(0), qr(Fraction(1, 2))),
               GammaParam(qr(0, Fraction(1, 3)), qr(0)),
               GammaParam(qr(0, Fraction(1, 3)), qr(0, Fraction(1, 3))),
               GammaParam(qr(Fraction(1, 2)), QuadRat(Fraction(-1, 2), Fraction(1, 2)))]
    for gamma in gammas:
        for d in range(6):
            group = [c for c in candidate_lines(gamma) if c.direction == d]
            for a in group:
                assert same_orbit(a, a)
                for b in group:
                    assert same_orbit(a, b) == same_orbit(b, a)
                    assert same_orbit(a, b) == same_orbit_reference(a, b)
                    for c in group:
                        if same_orbit(a, b) and same_orbit(b, c):
                            assert same_orbit(a, c)


def test_regauging_invariance():
    rnd = random.Random(13)
    for _ in range(25):
        gamma = rnd_gamma(rnd)
        d = rnd.randrange(6)
        group = [c for c in candidate_lines(gamma) if c.direction == d]
        a, b = rnd.sample(group, 2)
        mu = QuadRat(rnd_fraction(rnd), rnd_fraction(rnd))
        a, b, shifted = lines_over([(d, a.anchor), (d, b.anchor),
                                    (d, b.anchor + pt_scale_mul(xpow(d), mu))])
        assert same_orbit(a, b) == same_orbit(a, shifted)
        assert perp_component(a, b) == perp_component(a, shifted)


def test_lattice_translate_invariance():
    rnd = random.Random(14)
    for _ in range(25):
        gamma = rnd_gamma(rnd)
        d = rnd.randrange(6)
        group = [c for c in candidate_lines(gamma) if c.direction == d]
        a, b = rnd.sample(group, 2)
        t = ORIGIN
        for j in range(1, 7):
            t = t + pt_scale_mul(f_vector(j), QuadRat(rnd.randrange(-3, 4)))
        assert in_delta0(t)
        a, b, shifted = lines_over([(d, a.anchor), (d, b.anchor), (d, b.anchor + t)])
        assert same_orbit(b, shifted)
        assert same_orbit(a, b) == same_orbit(a, shifted)


def test_orbit_witnesses():
    rnd = random.Random(16)
    gammas = [GammaParam(qr(0), qr(Fraction(1, 2))),
              GammaParam(qr(0, Fraction(1, 3)), qr(0)),
              GammaParam(qr(0, Fraction(1, 3)), qr(0, Fraction(1, 3))),
              GammaParam(qr(Fraction(1, 2)), qr(0, Fraction(1, 2)))]
    gammas += [rnd_gamma(rnd) for _ in range(20)]
    found = 0
    for gamma in gammas:
        for d in range(6):
            group = [c for c in candidate_lines(gamma) if c.direction == d]
            a, b = rnd.sample(group, 2)
            found += _check_witness_pair(a, b, d)
    assert found >= 10


def _check_witness_pair(a, b, d):
    found = 0
    if same_orbit(a, b):
        w = orbit_witness(a, b)
        assert in_delta0(w)
        [residue] = lines_over([(d, a.anchor + w)])
        assert perp_component(residue, b) == QuadRat(0)
        found += 1
    else:
        with pytest.raises(ValueError, match="different orbits"):
            orbit_witness(a, b)
    return found


# ---------------------------------------------------------------- L1 chart


REGION_SAMPLES = [
    ((qr(0), qr(0)), 6, (1, 1, 1, 1, 1, 1)),
    ((qr(0), qr(Fraction(1, 2))), 9, (1, 2, 1, 2, 1, 2)),
    ((qr(0, Fraction(1, 3)), qr(0)), 9, (1, 2, 1, 2, 1, 2)),
    ((qr(0, Fraction(1, 3)), qr(0, Fraction(1, 3))), 12, (2, 2, 2, 2, 2, 2)),
    ((qr(0, Fraction(1, 3)), qr(Fraction(1, 3))), 12, (2, 2, 2, 2, 2, 2)),
    ((qr(0), qr(0, Fraction(1, 6))), 12, (2, 2, 2, 2, 2, 2)),
    ((qr(Fraction(1, 2)), qr(Fraction(1, 2))), 12, (2, 2, 2, 2, 2, 2)),
    ((qr(Fraction(1, 2)), qr(0, Fraction(1, 2))), 12, (2, 2, 2, 2, 2, 2)),
    ((qr(Fraction(1, 2)), QuadRat(Fraction(1, 2), Fraction(1, 2))), 12, (2, 2, 2, 2, 2, 2)),
    ((qr(Fraction(1, 5)), qr(Fraction(1, 7))), 24, (4, 4, 4, 4, 4, 4)),
    ((QuadRat(Fraction(1, 7), Fraction(1, 11)), QuadRat(Fraction(1, 13), Fraction(1, 17))),
     24, (4, 4, 4, 4, 4, 4)),
]


def test_l1_region_chart():
    for raw, expected_l1, per_dir in REGION_SAMPLES:
        gamma = reduce_gamma(raw)
        orbits = orbit_partition(candidate_lines(gamma))
        assert orbits.L1 == expected_l1, raw
        counts = orbits.per_direction()
        assert tuple(counts[i] for i in range(6)) == per_dir, raw
        assert orbits.L1 in L1_VALUES
        for d in range(6):
            assert 1 <= counts[d] <= 4
            assert len(orbits.orbits_for(d)) == counts[d]


def test_l1_always_in_known_value_set():
    rnd = random.Random(17)
    for _ in range(20):
        gamma = rnd_gamma(rnd)
        orbits = orbit_partition(candidate_lines(gamma))
        assert orbits.L1 in L1_VALUES
        for orbit in orbits.orbits:
            for m in orbit.members:
                assert same_orbit(orbit.representative, m)
        reps = [o.representative for o in orbits.orbits]
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                if a.direction == b.direction:
                    assert not same_orbit(a, b)


# ------------------------------------------------- merge-set disjointness


def _in_S(g1, g2):
    return not (lattice_member(g1, LatticeId.INV_2SQRT3_G)
                and lattice_member(g2, LatticeId.HALF_G))


def _in_Sp(g1, g2):
    return not (lattice_member(g1, LatticeId.HALF_G)
                and lattice_member(g2, LatticeId.INV_2SQRT3_G))


def _merge_sets(gamma):
    g1, g2 = gamma.g1, gamma.g2
    two = QuadRat(2)
    in_A = _in_S(g1, g2) and lattice_member(two * SQRT3 * g1 + two * g2, LatticeId.G)
    in_B = _in_S(g1, g2) and lattice_member(SQRT3 * g1 + two * g2, LatticeId.G)
    in_D = _in_Sp(g1, g2) and lattice_member(two * SQRT3 * g2 + two * g1, LatticeId.G)
    in_E = _in_Sp(g1, g2) and lattice_member(SQRT3 * g2 + two * g1, LatticeId.G)
    return in_A, in_B, in_D, in_E


def _quarter_parity_profile(g1, g2):
    """Whether (g1, g2) matches the quarter-lattice parity characterisation."""
    if lattice_member(g1, LatticeId.INV_2SQRT3_G) and lattice_member(
            g2, LatticeId.INV_2SQRT3_G):
        return False
    f1, f2 = QuadRat(4) * g1, QuadRat(4) * g2
    if f1.p.denominator != 1 or f1.q.denominator != 1:
        return False
    if f2.p.denominator != 1 or f2.q.denominator != 1:
        return False
    a, b = int(f1.p) % 2, int(f1.q) % 2
    c, d = int(f2.p) % 2, int(f2.q) % 2
    return (a, b, c, d) in {(0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)}


def test_merge_sets_disjoint():
    rnd = random.Random(18)
    gammas = [rnd_gamma(rnd) for _ in range(40)]
    gammas += [
        GammaParam(qr(0, Fraction(1, 4)), qr(Fraction(1, 4))),
        GammaParam(qr(Fraction(1, 4)), qr(0, Fraction(1, 4))),
        GammaParam(QuadRat(Fraction(1, 4), Fraction(1, 4)),
                   QuadRat(Fraction(1, 4), Fraction(1, 4))),
        GammaParam(qr(0, Fraction(1, 4)), qr(Fraction(3, 4))),
        GammaParam(qr(Fraction(1, 4)), qr(Fraction(1, 4))),
        GammaParam(qr(Fraction(1, 2)), qr(Fraction(1, 3))),
    ]
    for gamma in gammas:
        in_A, in_B, in_D, in_E = _merge_sets(gamma)
        assert not (in_A and in_B)
        assert not (in_D and in_E)
        assert not (in_B and in_D)
        assert not (in_B and in_E)
        assert not (in_A and in_E)
        assert (in_A and in_D) == _quarter_parity_profile(gamma.g1, gamma.g2)


def test_quarter_lattice_samples_lie_in_both_merge_sets():
    for g1, g2 in [
        (qr(0, Fraction(1, 4)), qr(Fraction(1, 4))),
        (qr(Fraction(1, 4)), qr(0, Fraction(1, 4))),
        (QuadRat(Fraction(1, 4), Fraction(1, 4)), QuadRat(Fraction(1, 4), Fraction(1, 4))),
        (qr(0, Fraction(1, 4)), qr(Fraction(3, 4))),
    ]:
        in_A, _, in_D, _ = _merge_sets(GammaParam(g1, g2))
        assert in_A and in_D


# ------------------------------------------------------------- keyed orbits


def _shape(orbits):
    """Each orbit as the identities of its representative and its members."""
    return [(id(o.representative), [id(m) for m in o.members]) for o in orbits.orbits]


def test_keyed_partition_equals_the_pairwise_one():
    # orbit_key against same_orbit: the same representatives, members in
    # order and orbit order, on the N = 6 grid, the stress denominators and
    # shuffled candidates at the worked shifts.
    rnd = random.Random(21)
    samples = [candidate_lines(reduce_gamma(raw)) for raw in GRID_6 + STRESS_GAMMAS]
    for raw, *_ in WORKED_CASES:
        for _ in range(4):
            shuffled = candidate_lines(reduce_gamma(raw))
            rnd.shuffle(shuffled)
            samples.append(shuffled)
    for lines in samples:
        keyed = orbit_partition(lines)
        assert _shape(keyed) == _shape(orbit_partition(lines, test=same_orbit))
        for orbit in keyed.orbits:
            assert {orbit_key(m) for m in orbit.members} == {orbit_key(orbit.representative)}


def test_keyed_partition_refuses_two_moduli():
    # refused whether or not the two lines share a direction
    [l1] = lines_over([(0, ORIGIN)])
    for direction in (0, 1):
        [l2] = lines_over([(direction, ORIGIN)], n=2 * l1.modulus)
        with pytest.raises(ValueError, match="moduli"):
            orbit_partition([l1, l2])
