"""Acceptance gate: one test per acceptance criterion, exact values, zero tolerance.

Each criterion test runs the matching checker of tilecohom.accept.CRITERIA
and reports its failure detail verbatim, so `pytest -v` gives one pass/fail
line per criterion.  The tests after them check that every pinned paper
value of criteria 4-11 is read and compared, that the benchmark's copy of
those values agrees with them, that a criterion that raises is reported as
a failure, and that criterion 12 fails on a wrong closed form.
"""

import functools
import importlib.util
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tilecohom.accept as accept
from tilecohom.cli import main
from tilecohom.exactfield import LatticeId, QuadRat, lattice_member
from tilecohom.lineorbits import reduce_gamma
from tilecohom.pointorbits import ConsistencyError
from tilecohom.report import parse_gamma

#: The test name of each criterion, in CRITERIA order.
NAMES = (
    "01_window_combinatorics", "02_slicing_census", "03_homological_constants",
    "04_gamma_zero", "05_gamma_zero_half", "06_gamma_third_sqrt3_zero",
    "07_gamma_third_sqrt3_pair", "08_gamma_third_sqrt3_third",
    "09_gamma_zero_sixth_sqrt3", "10_gamma_half_pair_cases",
    "11_generic_sample", "12_property_suites",
)


def _criterion_test(position):
    def test():
        result = accept.CRITERIA[position]()
        assert result.number == position + 1
        assert result.ok, result.detail
    return test


for _position, _name in enumerate(NAMES):
    globals()[f"test_criterion_{_name}"] = _criterion_test(_position)


def test_every_criterion_has_its_test():
    assert len(NAMES) == len(accept.CRITERIA)


def test_run_all_prints_one_line_per_criterion(monkeypatch):
    stubs = (
        lambda: accept.CriterionResult(1, "stub pass", True, ""),
        lambda: accept.CriterionResult(2, "stub fail", False, "got 0, want 1"),
    )
    monkeypatch.setattr(accept, "CRITERIA", stubs)
    stream = io.StringIO()
    assert accept.run_all(stream=stream) is False
    lines = stream.getvalue().splitlines()
    assert lines == [
        "PASS criterion 1: stub pass",
        "FAIL criterion 2: stub fail [got 0, want 1]",
    ]


@pytest.mark.parametrize("error", [ConsistencyError, AssertionError, ValueError])
def test_a_raising_criterion_fails_and_the_rest_still_run(monkeypatch, error):
    def raising():
        raise error("stage broke")

    raising.title = "stub raise"
    stubs = (
        lambda: accept.CriterionResult(1, "stub pass", True, ""),
        raising,
        lambda: accept.CriterionResult(3, "stub after", True, ""),
    )
    monkeypatch.setattr(accept, "CRITERIA", stubs)
    out, err = io.StringIO(), io.StringIO()
    assert main(["--selftest"], out, err) == 3
    assert out.getvalue().splitlines() == [
        "PASS criterion 1: stub pass",
        f"FAIL criterion 2: stub raise [{error.__name__}: stage broke]",
        "PASS criterion 3: stub after",
    ]
    assert err.getvalue() == ""


# -- every pinned value is read and compared --------------------------------------

COMPUTED = functools.lru_cache(maxsize=None)(accept.compute)


def _plus_one(field):
    return lambda r: r._replace(**{field: getattr(r, field) + 1})


#: Report changes, each moving some pinned readings; together they move all.
PERTURBATIONS = {
    **{f"{field} + 1": _plus_one(field)
       for field in ("L1", "sum_L0alpha", "L0", "e", "h0", "h1", "h2")},
    "last line type dropped": lambda r: r._replace(line_type_table=r.line_type_table[:-1]),
    "every parity odd": lambda r: r._replace(line_type_table=tuple(
        t._replace(parity="o") for t in r.line_type_table)),
}


def test_every_pinned_value_is_read_and_compared(monkeypatch):
    unmoved = {(number, case.prefix + label)
               for number, _, cases in accept.PINNED for case in cases
               for label in case.values}
    for name, perturb in PERTURBATIONS.items():
        monkeypatch.setattr(accept, "compute", lambda gamma, p=perturb: p(COMPUTED(gamma)))
        for number, title, cases in accept.PINNED:
            wanted = []
            for case in cases:
                report = perturb(COMPUTED(case.gamma))
                for label, want in case.values.items():
                    got = accept.READERS[label](report)
                    if got != want:
                        wanted.append(f"{case.prefix}{label}: got {got!r}, want {want!r}")
                        unmoved.discard((number, case.prefix + label))
            result = accept.CRITERIA[number - 1]()
            assert result == (number, title, not wanted, "; ".join(wanted)), name
    assert not unmoved, f"no perturbation moves {sorted(unmoved)}"


def test_every_gamma_condition_is_compared(monkeypatch):
    monkeypatch.setattr(accept, "compute", COMPUTED)
    negated = 0
    for number, title, cases in accept.PINNED:
        for c, case in enumerate(cases):
            for k, (label, test, want) in enumerate(case.conditions):
                conditions = list(case.conditions)
                conditions[k] = (label, lambda g1, g2, t=test: not t(g1, g2), want)
                changed = list(cases)
                changed[c] = case._replace(conditions=tuple(conditions))
                result = accept._pinned_criterion(number, title, changed)()
                assert result.detail == f"{case.prefix}{label}: got {not want!r}, want {want!r}"
                negated += 1
    assert negated == 4


def test_half_sqrt3_plus_one_g_is_g_over_sqrt3_minus_one():
    # ((√3+1)/2)G = {((a+3b) + (a+b)√3)/2}: doubled coordinates are integers
    # of equal parity.
    rnd = random.Random(23)
    values = [QuadRat(Fraction(rnd.randrange(-12, 12), rnd.choice((1, 2, 3, 4))),
                      Fraction(rnd.randrange(-12, 12), rnd.choice((1, 2, 3, 4))))
              for _ in range(400)]
    for value in values:
        doubled = value * QuadRat(2)
        in_half = (doubled.p.denominator == doubled.q.denominator == 1
                   and (doubled.p.numerator - doubled.q.numerator) % 2 == 0)
        assert lattice_member(value * QuadRat(-1, 1), LatticeId.G) == in_half, value
    assert sum(lattice_member(v * QuadRat(-1, 1), LatticeId.G) for v in values) > 20


# -- the benchmark's copy of the paper values ----------------------------------------

_spec = importlib.util.spec_from_file_location(
    "tilecohom_bench", Path(__file__).resolve().parent.parent / "bench" / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses resolve annotations through it
_spec.loader.exec_module(bench)

#: The PINNED label of each bench/run.py PAPER_VALUES label read on its own.
BENCH_LABELS = {"L1": "L1", "sum_L0alpha": "sum L0^a", "L0": "L0", "e": "e",
                "h2": "rk H2", "type_totals": "type totals",
                "odd_type_totals": "odd type totals"}


def _bench_readings(row):
    """A PAPER_VALUES row as {PINNED label: value}: h0, h1 and h2 together
    are the ranks, and a profile row [n, by_p] is the pair (n, by_p)."""
    row = dict(row)
    readings = {}
    if "h0" in row:
        readings["ranks"] = (row.pop("h0"), row.pop("h1"), row.pop("h2"))
    if "profile" in row:
        readings["profile"] = [(n, tuple(by_p)) for n, by_p in row.pop("profile")]
    readings.update((BENCH_LABELS[label], value) for label, value in row.items())
    return readings


def test_bench_paper_values_are_the_pinned_ones():
    cases = {case.gamma: case for number, _, cases in accept.PINNED if number <= 10
             for case in cases}
    rows = {}
    for text, row in bench.PAPER_VALUES.items():
        gamma = parse_gamma(text)
        assert gamma in cases, f"{text}: no γ of criteria 4-10"
        readings = _bench_readings(row)
        values = cases[gamma].values
        assert readings == {label: values.get(label) for label in readings}, text
        # the bench rows of criteria 8-10 do not hold their L1
        assert set(values) - set(readings) <= {"L1"}, text
        rows[gamma] = text
    assert set(rows) == set(cases)


# -- criterion 12 against a wrong closed form -----------------------------------------

#: The generic γ of criterion 11.
GENERIC_GAMMA = accept.PINNED[-1][2][0].gamma


@pytest.mark.parametrize("shift, off_grid", [(Fraction(1, 3), False), (Fraction(1, 5), True)],
                         ids=["on-grid", "off-grid"])
def test_criterion_12_fails_on_a_wrong_closed_form(monkeypatch, shift, off_grid):
    # c1 of the first lead-0 closed form moved by 1/3 keeps its points on the
    # 1/N grid of the generic γ (N = 6 times the lcm of its denominators) and
    # by 1/5 moves them off it; either way the six orbits that instantiate
    # it fail, and nothing raises.
    first, *rest = accept.CROSS_CLASS_LISTS[0]
    (c1, c2), offsets = first
    monkeypatch.setitem(accept.CROSS_CLASS_LISTS, 0,
                        (((c1 + QuadRat(shift), c2), offsets), *rest))
    failures = accept.class_lists_match(reduce_gamma(GENERIC_GAMMA))
    assert len({failure.split(" at ")[0] for failure in failures}) == len(failures) == 6
    assert all(("off the 1/" in failure) == off_grid for failure in failures)
    out, err = io.StringIO(), io.StringIO()
    assert main(["--selftest"], out, err) == 3
    assert [line.split(":")[0] for line in out.getvalue().splitlines()] == [
        *(f"PASS criterion {k}" for k in range(1, 12)), "FAIL criterion 12"]
    assert err.getvalue() == ""
