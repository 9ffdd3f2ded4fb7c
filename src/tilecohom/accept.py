"""Acceptance suite: twelve criteria, exact comparisons; criteria 4-11 read one table.

Also home of the closed-form crossing-class reference lists that the
pointorbits engine is checked against (criterion 12 and the unit tests).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple

from .exactfield import INV_SQRT3, SQRT3, LatticeId, QuadRat, lattice_member
from .cyclotomic import encode, pt_scale_mul, xpow
from .homalg import rank_and_cokernel, smith, beta_matrix
from .lineorbits import (
    candidate_lines,
    orbit_partition,
    reduce_gamma,
)
from .pointorbits import ConsistencyError, build_tables
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


def predicted_keys(gamma, i, lead, sign, n):
    """Crossing classes of one candidate as Z[x] keys over n, like the engine's.

    On the rescaled line the gamma-dependent base picks up the sqrt3 factor
    of the anchors while the translate offsets are Z[x] components and stay
    as listed.  A negated anchor negates every class parameter.  The points
    are built in QuadRat, apart from the kernel, and keyed only at the end:
    `% n` on every entry is reduction mod Z[x].  Returns the keys and the
    number of points off the 1/n grid, which match no class of the op.
    """
    anchor = lead_anchor(gamma, i, lead)
    if sign < 0:
        anchor = -anchor
    scaled, step = pt_scale_mul(anchor, SQRT3), xpow(i)
    keys, off_grid = set(), 0
    for (c1, c2), offsets in CROSS_CLASS_LISTS[lead]:
        base = c1 * gamma.g1 + c2 * gamma.g2
        for off in offsets:
            lam = SQRT3 * base + off
            if sign < 0:
                lam = -lam
            try:
                key = encode(scaled + pt_scale_mul(step, lam), n)
            except ValueError:
                off_grid += 1
                continue
            keys.add(tuple(x % n for x in key))
    return keys, off_grid


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
    against each member's decoded one.  Classes compare as Z[x] keys over
    the modulus of the tables.
    """
    failures = []
    orbits = orbit_partition(candidate_lines(gamma))
    tables = build_tables(orbits)
    n = tables.modulus
    closed = closed_form_lines(gamma)
    engine_by_orbit = [set() for _ in orbits.orbits]
    for key, members in tables.incidence.items():
        for idx in range(members.bit_length()):
            if members >> idx & 1:
                engine_by_orbit[idx].add(key)
    for idx, orbit in enumerate(orbits.orbits):
        members = {(line.direction, line.anchor) for line in orbit.members}
        union, off_grid = set(), 0
        for line, lead, sign in closed:
            if line in members:
                keys, off = predicted_keys(gamma, line[0], lead, sign, n)
                union |= keys
                off_grid += off
        engine = engine_by_orbit[idx]
        if union != engine or off_grid:
            failures.append(
                f"orbit {idx} at gamma=({gamma.g1}, {gamma.g2}):"
                f" {len(union) + off_grid} predicted vs {len(engine)} computed classes"
                + (f", {off_grid} predicted off the 1/{n} grid" if off_grid else "")
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


def _criterion(number, title):
    """Make body(failures) a checker that returns its CriterionResult.

    The checker carries its title, so `run_all` can name a criterion that
    raised instead of returning.
    """
    def wrap(body):
        def check() -> CriterionResult:
            failures = []
            body(failures)
            return CriterionResult(number, title, not failures, "; ".join(failures))
        check.title = title
        return check
    return wrap


def _expect(failures, label, got, want):
    if got != want:
        failures.append(f"{label}: got {got!r}, want {want!r}")


@_criterion(1, "window combinatorics")
def criterion_1(failures):
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


@_criterion(2, "slicing census")
def criterion_2(failures):
    _, incidences = slice_detailed((_q(Fraction(1, 5)), _q(Fraction(1, 7))))
    _expect(failures, "incidences at (1/5,1/7)", len(incidences), 72)
    cubes = {c.ident: c for c in enumerate_cubes()}
    _, incidences = slice_detailed((_q(0), _q(Fraction(1, 5))))
    longs = {i for i, _ in incidences if cubes[i].kind == "long"}
    _expect(failures, "sliced long cubes at (0,1/5)", len(longs), 2)
    _expect(failures, "long cube codes", {cubes[i].codes for i in longs}, {(1, 5, 9)})


@_criterion(3, "homological constants")
def criterion_3(failures):
    info = rank_and_cokernel()
    _expect(failures, "R", info["R"], 3)
    nonzero = tuple(f for f in info["factors"] if f)
    _expect(failures, "invariant factors", nonzero, (1, 1, 1))
    _expect(failures, "torsion-free", info["torsion_free"], True)
    factors = smith(beta_matrix()).factors
    _expect(failures, "smith of beta", factors, info["factors"])


#: How each label of a pinned paper value is read off a CohomologyReport.
READERS = {
    "L1": lambda r: r.L1,
    "sum L0^a": lambda r: r.sum_L0alpha,
    "L0": lambda r: r.L0,
    "e": lambda r: r.e,
    "ranks": lambda r: (r.h0, r.h1, r.h2),
    "rk H2": lambda r: r.h2,
    "profile": lambda r: [(t.n, t.by_p) for t in r.line_type_table],
    "type totals": lambda r: sorted((t.total for t in r.line_type_table), reverse=True),
    "odd type totals": lambda r: sorted(
        (t.total for t in r.line_type_table if t.parity == "o"), reverse=True),
}


class PinnedCase(NamedTuple):
    """One worked γ: conditions (label, test(g1, g2), want) and {label: paper value}.

    `prefix` starts every label of the case, to tell apart two γ of one criterion.
    """

    gamma: tuple[QuadRat, QuadRat]
    values: dict
    conditions: tuple = ()
    prefix: str = ""


#: Criteria 4-11 as (number, title, cases): the paper's values at the worked γ.
PINNED = (
    (4, "gamma = (0,0)", (PinnedCase((_q(0), _q(0)), {
        "L1": 6, "sum L0^a": 36, "L0": 14, "e": 22, "ranks": (1, 7, 28),
        "profile": [(6, (3, 2, 0, 0, 1))]}),)),
    (5, "gamma = (0,1/2)", (PinnedCase((_q(0), _H), {
        "L1": 9, "sum L0^a": 90, "L0": 36, "e": 54, "rk H2": 63,
        "type totals": [12, 10, 8]}),)),
    (6, "gamma = (√3/3,0)", (PinnedCase((INV_SQRT3, _q(0)), {
        "L1": 9, "sum L0^a": 99, "L0": 43, "e": 56, "rk H2": 65}),)),
    (7, "gamma = (√3/3,√3/3)", (PinnedCase((INV_SQRT3, INV_SQRT3), {
        "L1": 12, "sum L0^a": 180, "L0": 80, "e": 100, "rk H2": 112,
        "profile": [(12, (12, 1, 0, 0, 2))]}),)),
    (8, "gamma = (√3/3,1/3)", (PinnedCase((INV_SQRT3, _R13), {
        "L1": 12, "L0": 78, "rk H2": 114}, (
        ("2g1+√3 g2 in G",
         lambda g1, g2: lattice_member(g1 * _q(2) + g2 * SQRT3, LatticeId.G), True),
        ("g2 outside (1/(2√3))G",
         lambda g1, g2: lattice_member(g2, LatticeId.INV_2SQRT3_G), False),
    )),)),
    (9, "gamma = (0,√3/6)", (PinnedCase((_q(0), _S16), {
        "L1": 12, "L0": 78, "rk H2": 114, "odd type totals": [14, 10]}),)),
    # ((√3+1)/2)G is (√3−1)⁻¹G, since (√3+1)(√3−1) = 2.
    (10, "gamma = (1/2,√3/2) and (1/2,(1+√3)/2)", (
        PinnedCase((_H, _S12), {"L1": 12, "L0": 56, "e": 88, "rk H2": 100}, (
            ("g1+g2 in ((√3+1)/2)G",
             lambda g1, g2: lattice_member((g1 + g2) * _q(-1, 1), LatticeId.G), True),
        )),
        PinnedCase((_H, _H + _S12), {"L1": 12, "L0": 99, "e": 117, "rk H2": 129}, (
            ("g1+g2 outside ((√3+1)/2)G",
             lambda g1, g2: lattice_member((g1 + g2) * _q(-1, 1), LatticeId.G), False),
        ), "second "),
    )),
    (11, "generic sample gamma", (PinnedCase(
        (_q(Fraction(1, 7), Fraction(1, 11)), _q(Fraction(1, 13), Fraction(1, 17))), {
            "L1": 24, "sum L0^a": 1056, "L0": 516, "e": 540, "ranks": (1, 25, 564),
            "profile": [(24, (42, 0, 2, 0, 0))]}),)),
)


def _pinned_criterion(number, title, cases):
    """The checker of one PINNED row: per case, its conditions, then the pipeline."""
    @_criterion(number, title)
    def check(failures):
        for case in cases:
            g1, g2 = case.gamma
            for label, test, want in case.conditions:
                _expect(failures, case.prefix + label, test(g1, g2), want)
            report = compute((g1, g2))
            if report.timing >= 60.0:
                failures.append(f"pipeline took {report.timing:.1f}s (budget 60s)")
            for label, want in case.values.items():
                _expect(failures, case.prefix + label, READERS[label](report), want)
    return check


#: L1 at the two γ of the region samples that PINNED does not hold.
L1_REGION_SAMPLES = (
    ((_H, _H), 12),
    ((_q(Fraction(1, 5)), _q(Fraction(1, 7))), 24),
)


@_criterion(12, "property suites")
def criterion_12(failures):
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


CRITERIA = (
    criterion_1, criterion_2, criterion_3,
    *(_pinned_criterion(*row) for row in PINNED),
    criterion_12,
)


def run_all(stream=None) -> bool:
    """Run every criterion, print one pass/fail line each, return overall."""
    all_ok = True
    for number, check in enumerate(CRITERIA, 1):
        try:
            result = check()
        except (ConsistencyError, AssertionError, ValueError) as exc:
            result = CriterionResult(number, check.title, False,
                                     f"{type(exc).__name__}: {exc}")
        line = f"{'PASS' if result.ok else 'FAIL'} criterion {result.number}: {result.title}"
        if result.detail:
            line += f" [{result.detail}]"
        print(line, file=stream)
        all_ok = all_ok and result.ok
    return all_ok
