"""Tests for the rank report pipeline: compute, parse helpers, rendering."""

import json
import random
import sys
from fractions import Fraction

import pytest

import tilecohom.report
from tilecohom.exactfield import ParseError, QuadRat
from tilecohom.lineorbits import candidate_lines, orbit_partition, reduce_gamma, same_orbit
from tilecohom.report import compute, parse_gamma, payload, render

from test_pointorbits import GRID_6, STRESS_GAMMAS


def rnd_fraction(rnd):
    return Fraction(rnd.randrange(-40, 40), rnd.randrange(1, 24))


def component_text(a, b):
    """a + b*sqrt3 with one sign before each term."""
    return f"{a}{'-' if b < 0 else '+'}{abs(b)}√3"


def rnd_gamma_text(rnd):
    def one(_):
        return component_text(rnd_fraction(rnd), rnd_fraction(rnd))

    return ",".join(one(k) for k in range(2))


def test_compute_fixed_point_case():
    report = compute(parse_gamma("0,0"))
    assert report.L1 == 6
    assert report.per_direction == (1, 1, 1, 1, 1, 1)
    assert report.R == 3
    assert report.sum_L0alpha == 36
    assert report.L0 == 14
    assert report.L0_by_p == (9, 4, 0, 0, 1)
    assert report.e == 22
    assert (report.h0, report.h1, report.h2) == (1, 7, 28)
    assert report.torsion_free
    assert report.timing >= 0.0


def test_compute_single_shift_case():
    report = compute(parse_gamma("√3/3,0"))
    assert report.L1 == 9
    assert report.L0 == 43
    assert report.e == 56
    assert (report.h0, report.h1, report.h2) == (1, 10, 65)


def test_compute_generic_case():
    report = compute(parse_gamma("1/7+1/11√3,1/13+1/17√3"))
    assert report.L1 == 24
    assert report.sum_L0alpha == 1056
    assert report.L0 == 516
    assert report.e == 540
    assert (report.h0, report.h1, report.h2) == (1, 25, 564)


def test_rank_identities_random_gamma():
    rnd = random.Random(11)
    for _ in range(4):
        raw = (
            QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)),
            QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)),
        )
        report = compute(raw)
        assert report.h0 == 1
        assert report.R == 3
        assert report.torsion_free
        assert report.h1 == report.L1 + 1
        assert report.h1 - report.h2 == 1 - report.e
        assert sum(report.per_direction) == report.L1
        assert sum(report.L0_by_p) == report.L0
        assert sum(row.n * row.total for row in report.line_type_table) == report.sum_L0alpha


def test_render_text_fixed_point():
    text = render(compute(parse_gamma("0,0"))).decode("utf-8")
    assert "gamma = (0, 0)" in text
    assert "L1 = 6   per direction: 1 1 1 1 1 1" in text
    assert "R = 3   torsion-free: yes" in text
    assert "n | dir | p=2 | p=3 | p=4 | p=5 | p=6 | total" in text
    assert "sum L0^a | L0 | L1 | e | rk H2 | rk H1 | rk H0" in text
    assert "36 | 14 | 6 | 22 | 28 | 7 | 1" in text


def test_render_text_multi_row_table():
    text = render(compute(parse_gamma("0,1/2"))).decode("utf-8")
    assert "3 |   e |  10 |   0 |   0 |   2 |   0 |    12" in text
    assert "3 |   o |   4 |   5 |   0 |   1 |   0 |    10" in text
    assert "3 |   o |   2 |   4 |   0 |   2 |   0 |     8" in text
    assert "90 | 36 | 9 | 54 | 63 | 10 | 1" in text


def test_render_text_reduces_gamma_first():
    text = render(compute(parse_gamma("1/2,1/2+1/2√3"))).decode("utf-8")
    assert "gamma = (1/2, -1/2+1/2√3)" in text
    assert "216 | 99 | 12 | 117 | 129 | 13 | 1" in text


def test_render_json_shape():
    payload = json.loads(render(compute(parse_gamma("0,1/2")), format="json"))
    assert payload["schema"] == 1
    assert payload["gamma"] == ["0", "1/2"]
    assert payload["L1"] == 9
    assert payload["h2"] == 63
    assert payload["torsion_free"] is True
    assert payload["L0_by_p"] == [24, 9, 0, 3, 0]
    rows = payload["line_types"]
    assert [row["n"] for row in rows] == [3, 3, 3]
    assert rows[0]["by_p"] == [10, 0, 0, 2, 0]
    assert rows[0]["dir"] == "e"
    assert rows[0]["total"] == 12


def test_render_json_deterministic_bytes():
    first = render(compute(parse_gamma("1/5,1/7")), format="json")
    second = render(compute(parse_gamma("1/5,1/7")), format="json")
    assert first == second
    assert first.endswith(b"\n")


def test_report_fields_read_by_name():
    report = compute(parse_gamma("1/5,1/7"))
    data = payload(report)
    for name in ("L1", "R", "sum_L0alpha", "L0", "e", "h0", "h1", "h2", "torsion_free"):
        assert data[name] == getattr(report, name)
    assert data["per_direction"] == list(report.per_direction)
    assert data["L0_by_p"] == list(report.L0_by_p)
    assert (report.gamma.g1, report.gamma.g2) == (QuadRat(Fraction(1, 5)), QuadRat(Fraction(1, 7)))
    assert [row["total"] for row in data["line_types"]] == [
        row.total for row in report.line_type_table]
    assert report.timing >= 0


def test_render_rejects_unknown_format():
    report = compute(parse_gamma("0,0"))
    with pytest.raises(ValueError, match="format"):
        render(report, format="yaml")


def test_parse_gamma_round_trip():
    g1, g2 = parse_gamma("1/2,-1/2+1/2√3")
    assert g1 == QuadRat(Fraction(1, 2), Fraction(0))
    assert g2 == QuadRat(Fraction(-1, 2), Fraction(1, 2))


def test_parse_gamma_requires_two_components():
    with pytest.raises(ParseError, match="two comma-separated"):
        parse_gamma("1/2")
    with pytest.raises(ParseError, match="two comma-separated"):
        parse_gamma("1/2,1/3,1/5")


def test_parse_gamma_rejects_inexact_tokens():
    with pytest.raises(ParseError, match="exact"):
        parse_gamma("0.5,0")
    with pytest.raises(ParseError, match="exact"):
        parse_gamma("1/2,x")


def test_parse_gamma_random_round_trip():
    rnd = random.Random(23)
    for _ in range(20):
        text = rnd_gamma_text(rnd)
        g1, g2 = parse_gamma(text)
        a, b = text.split(",")
        assert component_text(g1.p, g1.q) == a
        assert component_text(g2.p, g2.q) == b


def test_parse_gamma_spaces_only_next_to_a_sign():
    with pytest.raises(ParseError, match="space"):
        parse_gamma("1/2 3,0")
    with pytest.raises(ParseError, match="space"):
        parse_gamma("0,√ 3")
    g1, g2 = parse_gamma(" 1/7 + √3/11 , - 1/2 ")
    assert g1 == QuadRat(Fraction(1, 7), Fraction(1, 11))
    assert g2 == QuadRat(Fraction(-1, 2))


def test_parse_gamma_rejects_non_ascii_digits():
    for text in ("٣/7,0", "0,1/٧", "0,２√3"):
        with pytest.raises(ParseError):
            parse_gamma(text)


def test_parse_gamma_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for text in ("1" * (limit + 1) + ",0", f"0,1/{'7' * (limit + 1)}√3"):
        with pytest.raises(ParseError, match=f"more than {limit} digits"):
            parse_gamma(text)


#: The stages compute() looks up in tilecohom.report when it runs; the
#: benchmark times each by rebinding its name there (bench/run.py).
STAGES = ("reduce_gamma", "candidate_lines", "orbit_partition", "build_tables")


def test_compute_calls_its_stages_through_report(monkeypatch):
    called = []
    for name in STAGES:
        def stage(*args, _name=name, _run=getattr(tilecohom.report, name), **kwargs):
            called.append(_name)
            return _run(*args, **kwargs)

        monkeypatch.setattr(tilecohom.report, name, stage)
    report = compute(parse_gamma("1/5,1/7"))
    assert called == list(STAGES)
    assert report.L1 == 24


def test_orbit_partition_calls_its_test():
    lines = candidate_lines(reduce_gamma(parse_gamma("1/5,1/7")))
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return same_orbit(a, b)

    assert orbit_partition(lines, test=counted) == orbit_partition(lines)
    assert calls


def _fields(raw):
    """The report payload at raw, without its gamma."""
    out = payload(compute(raw))
    del out["gamma"]
    return out


def _line_types(fields, flip=False):
    swap = {"e": "o", "o": "e", "e,o": "e,o"}
    return sorted((row["n"], swap[row["dir"]] if flip else row["dir"], row["by_p"])
                  for row in fields["line_types"])


def test_gamma_symmetries_keep_the_report():
    # (g1, g2) -> (-conj g1, conj g2) and gamma -> -gamma keep every field but
    # gamma; the swap (g2, g1) keeps the counts and ranks and exchanges the
    # even and odd line types.
    for g1, g2 in GRID_6[::9] + STRESS_GAMMAS:
        base = _fields((g1, g2))
        assert _fields((-g1.conj(), g2.conj())) == base, (g1, g2)
        assert _fields((-g1, -g2)) == base, (g1, g2)
        swapped = _fields((g2, g1))
        for key in ("L1", "L0", "L0_by_p", "sum_L0alpha", "e", "h1", "h2"):
            assert swapped[key] == base[key], (key, g1, g2)
        assert _line_types(swapped) == _line_types(base, flip=True), (g1, g2)
