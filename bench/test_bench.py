"""Tests of the benchmark itself: seeded inputs, strata, reference checking."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "tilecohom_bench", Path(__file__).with_name("run.py"))
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses resolve annotations through it
_spec.loader.exec_module(bench)

from tilecohom.lineorbits import candidate_lines, orbit_partition, reduce_gamma  # noqa: E402
from tilecohom.report import compute, parse_gamma, render  # noqa: E402


def first_round(workload, seed):
    return next(bench.rounds(workload, seed))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_seed_fixes_the_strings(workload):
    texts = [item.text for item in first_round(workload, 7)]
    assert texts == [item.text for item in first_round(workload, 7)]
    assert set(texts).isdisjoint(item.text for item in first_round(workload, 8))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_each_input_reduces_to_its_reference_gamma(workload):
    for item in first_round(workload, 3):
        assert reduce_gamma(parse_gamma(item.text)) == reduce_gamma(parse_gamma(item.key))


def test_reference_covers_every_pool_gamma():
    reference = bench.load_reference()
    for workload in bench.WORKLOADS:
        keys = {bench.gamma_text(g1, g2) for g1, g2, _ in bench.pool(workload)}
        assert set(reference[workload]) == keys


@pytest.mark.parametrize("workload", ["generic", "huge-denominator"])
def test_generic_region_gammas_have_at_least_21_line_orbits(workload):
    for g1, g2, _ in bench.pool(workload):
        gamma = reduce_gamma(parse_gamma(bench.gamma_text(g1, g2)))
        assert orbit_partition(candidate_lines(gamma)).L1 >= 21


def test_huge_denominators_have_their_magnitude():
    for g1, g2, group in bench.pool("huge-denominator"):
        digits = int(group[2:])
        for part in (*g1, *g2):
            assert 10**digits <= part.denominator < 2 * 10**digits


def test_degenerate_gammas_carry_the_paper_values():
    for item in first_round("degenerate", 5):
        payload = json.loads(render(compute(parse_gamma(item.text)), "json"))
        assert 6 <= payload["L1"] <= 12
        assert bench.paper_mismatches(payload, bench.PAPER_VALUES[item.key]) == []
        payload["h2"] += 1
        assert bench.paper_mismatches(payload, {"h2": payload["h2"] - 1})


def test_window_slice_pool_has_generic_and_axis_gammas():
    groups = {}
    for g1, g2, group in bench.pool("window-slice"):
        groups.setdefault(group, []).append(g1 == (0, 0) or g2 == (0, 0))
    assert set(groups) == {"generic", "axis"}
    assert all(groups["axis"]) and not any(groups["generic"])


def test_exact_reference_gives_zero_error_rate():
    checker = bench.Checker("degenerate", bench.load_reference())
    bench.closed_loop("degenerate", 1, 0.0, checker)
    assert checker.attempted > bench.TAIL_BEYOND
    assert checker.failed == 0


def test_perturbed_reference_gives_nonzero_error_rate():
    reference = bench.load_reference()
    reference["degenerate"]["0,0"]["report"] = "0" * 64
    checker = bench.Checker("degenerate", reference)
    loop = bench.closed_loop("degenerate", 1, 0.0, checker)
    warm_up = first_round("degenerate", 1)[0].key == "0,0"
    assert checker.failed == loop.groups.count("0,0") + warm_up > 0
    assert checker.failed / checker.attempted > 0


def test_tail_has_ten_samples_beyond_it():
    value, percentile = bench.tail([float(v) for v in range(100)])
    assert value == 89.0 and percentile == 90.0


def test_per_input_median_averages_each_input_first():
    times = [1.0, 3.0, 10.0, 4.0, 4.0]
    inputs = ["a", "a", "b", "c", "c"]
    assert bench.per_input_median(times, inputs) == 4.0
