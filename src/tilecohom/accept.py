"""Acceptance suite: one checker per acceptance criterion, exact comparisons.

Also home of the closed-form crossing-class reference lists that the
pointorbits engine is checked against (criterion 12 and the unit tests).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple

from .exactfield import INV_SQRT3, SQRT3, LatticeId, QuadRat, lattice_member, mod_canon
from .cyclotomic import pt_scale_mul, xpow
from .homalg import rank_and_cokernel, smith, beta_matrix
from .lineorbits import (
    candidate_lines,
    orbit_partition,
    reduce_gamma,
)
from .pointorbits import build_tables
from .report import compute
from .window import enumerate_cubes, slice_detailed, verify_counts


def _q(a, b=0):
    return QuadRat(Fraction(a), Fraction(b))


# -- closed-form crossing-class lists ------------------------------------------
#
# For one candidate line the classes mod G of its crossing parameters have
# closed forms c1*gamma_1 + c2*gamma_2 plus a translate offset from A3, A4
# or nothing.  Keyed by the lead power offset of the candidate family: even
# directions carry their gamma_1 term on x^i or x^(i+2), odd directions
# their gamma_2 term on x^(i+4) or x^(i+6).

A3 = (_q(0), _q(0, Fraction(1, 3)), _q(0, Fraction(2, 3)))
A4 = (_q(0), _q(Fraction(1, 2)), _q(0, Fraction(1, 2)),
      _q(Fraction(1, 2), Fraction(1, 2)))
ONCE = (_q(0),)

_S23 = _q(0, Fraction(2, 3))  # 2/sqrt3
_S16 = _q(0, Fraction(1, 6))  # 1/(2 sqrt3)
_S12 = _q(0, Fraction(1, 2))  # sqrt3/2
_R13 = _q(Fraction(1, 3))
_R23 = _q(Fraction(2, 3))
_H = _q(Fraction(1, 2))

CROSS_CLASS_LISTS = {
    0: (
        ((-INV_SQRT3, -_R23), A3), ((-_S23, -_R23), A3), ((-INV_SQRT3, _q(0)), A3),
        ((_q(0), _q(0)), A3), ((-INV_SQRT3, _q(-1)), A3), ((-_S23, _q(-1)), A3),
        ((_q(0), -_R13), A3), ((-INV_SQRT3, -_R13), A3),
        ((-_S16, _q(0)), A4), ((-_S12, _q(-1)), A4),
        ((-_S16, -_H), A4), ((-_S12, -_H), A4),
        ((_q(0), _q(0)), ONCE), ((_q(0), _q(-1)), ONCE), ((-_S23, _q(-2)), ONCE),
        ((-_S23, _q(-1)), ONCE), ((-_S23, _q(0)), ONCE), ((_q(0), _q(1)), ONCE),
    ),
    2: (
        ((_q(0), -_R23), A3), ((-INV_SQRT3, -_R23), A3), ((_q(0), _q(0)), A3),
        ((INV_SQRT3, _q(0)), A3), ((-INV_SQRT3, _q(-1)), A3), ((-_S23, _q(-1)), A3),
        ((_q(0), -_R13), A3), ((-INV_SQRT3, -_R13), A3),
        ((_q(0), _q(0)), A4), ((-INV_SQRT3, _q(-1)), A4),
        ((-INV_SQRT3, -_H), A4), ((_q(0), -_H), A4),
        ((-INV_SQRT3, _q(0)), ONCE), ((-INV_SQRT3, _q(-1)), ONCE), ((-SQRT3, _q(-2)), ONCE),
        ((-SQRT3, _q(-1)), ONCE), ((_q(0), _q(-1)), ONCE), ((_S23, _q(0)), ONCE),
        ((_S23, _q(1)), ONCE),
    ),
    4: (
        ((-_R23, _q(0)), A3), ((-_R23, INV_SQRT3), A3), ((_q(0), _S23), A3),
        ((_q(0), INV_SQRT3), A3), ((_q(-1), _q(0)), A3), ((-_R13, _q(0)), A3),
        ((_q(-1), -INV_SQRT3), A3), ((-_R13, INV_SQRT3), A3),
        ((-_H, INV_SQRT3), A4), ((_q(0), INV_SQRT3), A4), ((_q(-1), _q(0)), A4),
        ((-_H, _q(0)), A4),
        ((_q(-2), -_S23), ONCE), ((_q(-1), _q(0)), ONCE), ((_q(-1), -_S23), ONCE),
        ((_q(0), _q(0)), ONCE), ((_q(-1), INV_SQRT3), ONCE), ((_q(0), INV_SQRT3), ONCE),
        ((_q(0), SQRT3), ONCE), ((_q(1), SQRT3), ONCE),
    ),
    6: (
        ((-_R23, _q(0)), A3), ((-_R23, INV_SQRT3), A3), ((_q(0), _S23), A3),
        ((_q(0), INV_SQRT3), A3), ((_q(-1), _q(0)), A3), ((_q(-1), INV_SQRT3), A3),
        ((-_R13, _S23), A3), ((-_R13, INV_SQRT3), A3),
        ((_q(-1), _S16), A4), ((-_H, _S16), A4), ((-_H, _S12), A4),
        ((_q(0), _S12), A4),
        ((_q(0), _S23), ONCE), ((_q(-1), _S23), ONCE), ((_q(-1), _q(0)), ONCE),
        ((_q(-2), _q(0)), ONCE), ((_q(0), _q(0)), ONCE), ((_q(1), _S23), ONCE),
    ),
}


def lead_anchor(gamma, i, lead):
    """Positive anchor of the candidate with its lead term on x^(i+lead)."""
    if i % 2 == 0:
        main, side = gamma.g1 * INV_SQRT3, gamma.g2 * INV_SQRT3
    else:
        main, side = gamma.g2 * INV_SQRT3, gamma.g1 * INV_SQRT3
    return pt_scale_mul(xpow(i + lead), main) + pt_scale_mul(xpow(i + 1), side)


def predicted_keys(gamma, i, lead, sign):
    """Crossing classes of one candidate, keyed mod Z[x] like the engine.

    On the rescaled line the gamma-dependent base picks up the sqrt3 factor
    of the anchors while the translate offsets are Z[x] components and stay
    as listed.  A negated anchor negates every class parameter.
    """
    anchor = lead_anchor(gamma, i, lead)
    if sign < 0:
        anchor = -anchor
    scaled, step = pt_scale_mul(anchor, SQRT3), xpow(i)
    keys = set()
    for (c1, c2), offsets in CROSS_CLASS_LISTS[lead]:
        base = c1 * gamma.g1 + c2 * gamma.g2
        for off in offsets:
            lam = SQRT3 * base + off
            if sign < 0:
                lam = -lam
            point = scaled + pt_scale_mul(step, lam)
            keys.add((mod_canon(point.u), mod_canon(point.v)))
    return keys


def closed_form_lines(gamma) -> list[tuple[tuple, int, int]]:
    """The 24 closed-form candidates as ((direction, anchor), lead, sign)."""
    out = []
    for i in range(6):
        for lead in ((0, 2) if i % 2 == 0 else (4, 6)):
            anchor = lead_anchor(gamma, i, lead)
            out.append(((i, anchor), lead, 1))
            out.append(((i, -anchor), lead, -1))
    return out


def class_lists_match(gamma) -> list[str]:
    """Compare every orbit's engine classes with the closed-form lists.

    Returns failure descriptions; an orbit merged from several candidates is
    checked against the union of its members' instantiated lists.
    Membership compares (direction, anchor) pairs: the closed-form anchor
    against each member's decoded one.
    """
    failures = []
    orbits = orbit_partition(candidate_lines(gamma))
    tables = build_tables(orbits)
    closed = closed_form_lines(gamma)
    engine_by_orbit = [set() for _ in orbits.orbits]
    for gc in tables.points:
        canon = gc.canon
        for idx in gc.incident_orbits:
            engine_by_orbit[idx].add((canon.u, canon.v))
    for idx, orbit in enumerate(orbits.orbits):
        members = {(line.direction, line.anchor) for line in orbit.members}
        union = set()
        for line, lead, sign in closed:
            if line in members:
                union |= predicted_keys(gamma, line[0], lead, sign)
        engine = engine_by_orbit[idx]
        if union != engine:
            failures.append(
                f"orbit {idx} at gamma=({gamma.g1}, {gamma.g2}):"
                f" {len(union)} predicted vs {len(engine)} computed classes"
            )
        if tables.per_orbit[idx].total > 44:
            failures.append(f"orbit {idx}: L0^alpha {tables.per_orbit[idx].total} > 44")
    return failures


# -- criteria -------------------------------------------------------------------


class CriterionResult(NamedTuple):
    number: int
    title: str
    ok: bool
    detail: str = ""


def _result(number, title, failures):
    return CriterionResult(number, title, not failures, "; ".join(failures))


def _expect(failures, label, got, want):
    if got != want:
        failures.append(f"{label}: got {got!r}, want {want!r}")


def criterion_1() -> CriterionResult:
    failures = []
    start = time.perf_counter()
    counts = verify_counts()
    elapsed = time.perf_counter() - start
    _expect(failures, "vertices", counts["vertices"], 52)
    _expect(failures, "edges", counts["edges"], 132)
    _expect(failures, "faces", counts["faces"], 120)
    _expect(failures, "cubes", counts["cubes"], 40)
    _expect(failures, "long cubes", counts["long_cubes"], 4)
    _expect(failures, "valencies", counts["valency_histogram"], {4: 12, 5: 24, 6: 16})
    _expect(failures, "cubes per vertex", counts["cubes_per_vertex"],
            {4: [4], 5: [6], 6: [8]})
    _expect(failures, "all checks", counts["ok"], True)
    if elapsed >= 5.0:
        failures.append(f"window verification took {elapsed:.1f}s (budget 5s)")
    return _result(1, "window combinatorics", failures)


def criterion_2() -> CriterionResult:
    failures = []
    _, incidences = slice_detailed((_q(Fraction(1, 5)), _q(Fraction(1, 7))))
    _expect(failures, "incidences at (1/5,1/7)", len(incidences), 72)
    cubes = {c.ident: c for c in enumerate_cubes()}
    _, incidences = slice_detailed((_q(0), _q(Fraction(1, 5))))
    longs = {i for i, _ in incidences if cubes[i].kind == "long"}
    _expect(failures, "sliced long cubes at (0,1/5)", len(longs), 2)
    _expect(failures, "long cube codes", {cubes[i].codes for i in longs}, {(1, 5, 9)})
    return _result(2, "slicing census", failures)


def criterion_3() -> CriterionResult:
    failures = []
    info = rank_and_cokernel()
    _expect(failures, "R", info["R"], 3)
    nonzero = tuple(f for f in info["factors"] if f)
    _expect(failures, "invariant factors", nonzero, (1, 1, 1))
    _expect(failures, "torsion-free", info["torsion_free"], True)
    factors = smith(beta_matrix()).factors
    _expect(failures, "smith of beta", factors, info["factors"])
    return _result(3, "homological constants", failures)


def _pipeline(failures, g1, g2):
    report = compute((g1, g2))
    if report.timing >= 60.0:
        failures.append(f"pipeline took {report.timing:.1f}s (budget 60s)")
    return report


def criterion_4() -> CriterionResult:
    failures = []
    report = _pipeline(failures, _q(0), _q(0))
    _expect(failures, "L1", report.L1, 6)
    _expect(failures, "sum L0^a", report.sum_L0alpha, 36)
    _expect(failures, "L0", report.L0, 14)
    _expect(failures, "e", report.e, 22)
    _expect(failures, "ranks", (report.h0, report.h1, report.h2), (1, 7, 28))
    rows = [(t.n, t.by_p) for t in report.line_type_table]
    _expect(failures, "profile", rows, [(6, (3, 2, 0, 0, 1))])
    return _result(4, "gamma = (0,0)", failures)


def criterion_5() -> CriterionResult:
    failures = []
    report = _pipeline(failures, _q(0), _q(Fraction(1, 2)))
    _expect(failures, "L1", report.L1, 9)
    _expect(failures, "sum L0^a", report.sum_L0alpha, 90)
    _expect(failures, "L0", report.L0, 36)
    _expect(failures, "e", report.e, 54)
    _expect(failures, "rk H2", report.h2, 63)
    totals = sorted((t.total for t in report.line_type_table), reverse=True)
    _expect(failures, "type totals", totals, [12, 10, 8])
    return _result(5, "gamma = (0,1/2)", failures)


def criterion_6() -> CriterionResult:
    failures = []
    report = _pipeline(failures, _q(0, Fraction(1, 3)), _q(0))
    _expect(failures, "L1", report.L1, 9)
    _expect(failures, "sum L0^a", report.sum_L0alpha, 99)
    _expect(failures, "L0", report.L0, 43)
    _expect(failures, "e", report.e, 56)
    _expect(failures, "rk H2", report.h2, 65)
    return _result(6, "gamma = (√3/3,0)", failures)


def criterion_7() -> CriterionResult:
    failures = []
    report = _pipeline(failures, _q(0, Fraction(1, 3)), _q(0, Fraction(1, 3)))
    _expect(failures, "L1", report.L1, 12)
    _expect(failures, "sum L0^a", report.sum_L0alpha, 180)
    _expect(failures, "L0", report.L0, 80)
    _expect(failures, "e", report.e, 100)
    _expect(failures, "rk H2", report.h2, 112)
    rows = [(t.n, t.by_p) for t in report.line_type_table]
    _expect(failures, "profile", rows, [(12, (12, 1, 0, 0, 2))])
    return _result(7, "gamma = (√3/3,√3/3)", failures)


def criterion_8() -> CriterionResult:
    failures = []
    g1, g2 = _q(0, Fraction(1, 3)), _q(Fraction(1, 3))
    member = lattice_member(g1 * _q(2) + g2 * SQRT3, LatticeId.G)
    _expect(failures, "2g1+√3 g2 in G", member, True)
    _expect(failures, "g2 outside (1/(2√3))G",
            lattice_member(g2, LatticeId.INV_2SQRT3_G), False)
    report = _pipeline(failures, g1, g2)
    _expect(failures, "L0", report.L0, 78)
    _expect(failures, "rk H2", report.h2, 114)
    return _result(8, "gamma = (√3/3,1/3)", failures)


def criterion_9() -> CriterionResult:
    failures = []
    report = _pipeline(failures, _q(0), _q(0, Fraction(1, 6)))
    _expect(failures, "L0", report.L0, 78)
    _expect(failures, "rk H2", report.h2, 114)
    odd_totals = sorted(
        (t.total for t in report.line_type_table if t.parity == "o"),
        reverse=True,
    )
    _expect(failures, "odd type totals", odd_totals, [14, 10])
    return _result(9, "gamma = (0,√3/6)", failures)


def _in_half_one_plus_sqrt3_g(value: QuadRat) -> bool:
    # ((√3+1)/2)G = {((a+3b) + (a+b)√3)/2}: doubled coordinates are integers
    # of equal parity.
    doubled = value * _q(2)
    p, q = doubled.p, doubled.q
    if p.denominator != 1 or q.denominator != 1:
        return False
    return (p.numerator - q.numerator) % 2 == 0


def criterion_10() -> CriterionResult:
    failures = []
    g1, g2 = _q(Fraction(1, 2)), _q(0, Fraction(1, 2))
    _expect(failures, "g1+g2 in ((√3+1)/2)G",
            _in_half_one_plus_sqrt3_g(g1 + g2), True)
    report = _pipeline(failures, g1, g2)
    _expect(failures, "L0", report.L0, 56)
    _expect(failures, "e", report.e, 88)
    _expect(failures, "rk H2", report.h2, 100)
    g1, g2 = _q(Fraction(1, 2)), _q(Fraction(1, 2), Fraction(1, 2))
    _expect(failures, "second g1+g2 outside ((√3+1)/2)G",
            _in_half_one_plus_sqrt3_g(g1 + g2), False)
    report = _pipeline(failures, g1, g2)
    _expect(failures, "second L0", report.L0, 99)
    _expect(failures, "second e", report.e, 117)
    _expect(failures, "second rk H2", report.h2, 129)
    return _result(10, "gamma = (1/2,√3/2) and (1/2,(1+√3)/2)", failures)


def criterion_11() -> CriterionResult:
    failures = []
    report = _pipeline(
        failures, _q(Fraction(1, 7), Fraction(1, 11)),
        _q(Fraction(1, 13), Fraction(1, 17)),
    )
    _expect(failures, "L1", report.L1, 24)
    _expect(failures, "sum L0^a", report.sum_L0alpha, 1056)
    _expect(failures, "L0", report.L0, 516)
    _expect(failures, "e", report.e, 540)
    _expect(failures, "ranks", (report.h0, report.h1, report.h2), (1, 25, 564))
    rows = [(t.n, t.by_p) for t in report.line_type_table]
    _expect(failures, "profile", rows, [(24, (42, 0, 2, 0, 0))])
    return _result(11, "generic sample gamma", failures)


L1_REGION_SAMPLES = (
    ((_q(0), _q(0)), 6),
    ((_q(0), _q(Fraction(1, 2))), 9),
    ((_q(0, Fraction(1, 3)), _q(0)), 9),
    ((_q(0, Fraction(1, 3)), _q(0, Fraction(1, 3))), 12),
    ((_q(0, Fraction(1, 3)), _q(Fraction(1, 3))), 12),
    ((_q(0), _q(0, Fraction(1, 6))), 12),
    ((_q(Fraction(1, 2)), _q(Fraction(1, 2))), 12),
    ((_q(Fraction(1, 2)), _q(0, Fraction(1, 2))), 12),
    ((_q(Fraction(1, 2)), _q(Fraction(1, 2), Fraction(1, 2))), 12),
    ((_q(Fraction(1, 5)), _q(Fraction(1, 7))), 24),
    ((_q(Fraction(1, 7), Fraction(1, 11)), _q(Fraction(1, 13), Fraction(1, 17))), 24),
)


def criterion_12() -> CriterionResult:
    failures = []
    for raw, want in L1_REGION_SAMPLES:
        gamma = reduce_gamma(raw)
        got = orbit_partition(candidate_lines(gamma)).L1
        if got != want:
            failures.append(
                f"L1 at ({gamma.g1}, {gamma.g2}): got {got}, want {want}"
            )
    rnd = random.Random(2026)
    for _ in range(20):
        raw = (
            QuadRat(Fraction(rnd.randrange(-40, 40), rnd.randrange(1, 24)),
                    Fraction(rnd.randrange(-40, 40), rnd.randrange(1, 24))),
            QuadRat(Fraction(rnd.randrange(-40, 40), rnd.randrange(1, 24)),
                    Fraction(rnd.randrange(-40, 40), rnd.randrange(1, 24))),
        )
        gamma = reduce_gamma(raw)
        failures.extend(class_lists_match(gamma))
        # representative independence and the double-counting identity
        lines = candidate_lines(gamma)
        base = build_tables(orbit_partition(lines))
        shuffled = list(lines)
        rnd.shuffle(shuffled)
        redone = build_tables(orbit_partition(shuffled))
        summary = (base.L0, base.L0_by_p, base.e, base.sum_L0alpha)
        if summary != (redone.L0, redone.L0_by_p, redone.e, redone.sum_L0alpha):
            failures.append(f"representative dependence at ({gamma.g1}, {gamma.g2})")
        for slot, count in enumerate(base.L0_by_p):
            p = slot + 2
            on_lines = sum(entry.by_p[slot] for entry in base.per_orbit)
            if on_lines != p * count:
                failures.append(
                    f"double counting at p={p}, gamma=({gamma.g1}, {gamma.g2})"
                )
    return _result(12, "property suites", failures)


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12,
)


def run_all(stream=None) -> bool:
    """Run every criterion, print one pass/fail line each, return overall."""
    all_ok = True
    for check in CRITERIA:
        result = check()
        line = f"{'PASS' if result.ok else 'FAIL'} criterion {result.number}: {result.title}"
        if result.detail:
            line += f" [{result.detail}]"
        print(line, file=stream)
        all_ok = all_ok and result.ok
    return all_ok
