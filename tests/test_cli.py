"""Tests for the command line front end, driven through main() with captured streams."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tilecohom.accept
import tilecohom.report
from tilecohom.cli import main
from tilecohom.exactfield import ParseError
from tilecohom.pointorbits import ConsistencyError


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_report_text():
    code, out, err = run_cli(["report", "--gamma", "0,0"])
    assert code == 0
    assert err == ""
    assert "gamma = (0, 0)" in out
    assert "36 | 14 | 6 | 22 | 28 | 7 | 1" in out


def test_report_json():
    code, out, _ = run_cli(["report", "--gamma", "0,1/2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["L1"] == 9
    assert payload["h2"] == 63


def test_report_bad_gamma_exits_2():
    code, out, err = run_cli(["report", "--gamma", "0.5,0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    code, _, err = run_cli(["report", "--gamma", "1/2"])
    assert code == 2
    assert "two comma-separated" in err


def test_l1_text_lists_representatives():
    code, out, _ = run_cli(["l1", "--gamma", "0,1/2"])
    assert code == 0
    assert "L1 = 9" in out
    assert "per direction: 1 2 1 2 1 2" in out
    assert "x^0:" in out and "x^5:" in out


def test_l1_json():
    code, out, _ = run_cli(["l1", "--gamma", "0,1/2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["L1"] == 9
    assert payload["gamma"] == ["0", "1/2"]
    assert payload["per_direction"] == [1, 2, 1, 2, 1, 2]


def test_tables_text():
    code, out, _ = run_cli(["tables", "--gamma", "√3/3,0"])
    assert code == 0
    assert "p=2" in out and "p=6" in out
    assert "sum L0^a = 99   L0 = 43" in out


def test_tables_json():
    code, out, _ = run_cli(["tables", "--gamma", "√3/3,0", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["L0"] == 43
    assert payload["sum_L0alpha"] == 99
    assert payload["L0_by_p"] == [36, 5, 0, 0, 2]


def test_smith_text_and_json():
    code, out, _ = run_cli(["smith"])
    assert code == 0
    assert "invariant factors: 1 1 1 0 0 0" in out
    assert "R = 3" in out
    assert "torsion-free: yes" in out
    code, out, _ = run_cli(["smith", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == 3
    assert payload["factors"] == [1, 1, 1, 0, 0, 0]
    assert payload["torsion_free"] is True


def test_verify_window_text():
    code, out, _ = run_cli(["verify-window"])
    assert code == 0
    assert "vertices: 52" in out
    assert "edges: 132" in out
    assert "faces: 120" in out
    assert "cubes: 40" in out
    assert "ok: True" in out


def test_verify_window_json_dumps_geometry():
    code, out, _ = run_cli(["verify-window", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["edges"] == 132
    assert len(payload["vertices"]) == 52
    assert len(payload["cubes"]) == 40
    assert sum(1 for cube in payload["cubes"] if cube["kind"] == "long") == 4


def modules_loaded_by(module):
    """The modules that importing module loads, in a fresh interpreter: the
    tests above have already imported everything."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = (f"import sys; before = set(sys.modules); import {module};"
             " print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_importing_the_cli_leaves_the_window_unloaded():
    loaded = modules_loaded_by("tilecohom.cli")
    assert "tilecohom.report" in loaded
    assert "tilecohom.window" not in loaded
    assert "dataclasses" not in loaded
    # The records are NamedTuples, so no module needs dataclasses.
    for module in ("tilecohom.window", "tilecohom.accept"):
        loaded = modules_loaded_by(module)
        assert module in loaded and "dataclasses" not in loaded


def test_large_denominator_runs_without_a_warning():
    code, out, err = run_cli(["l1", "--gamma", "1/1000001,0"])
    assert code == 0
    assert "L1 = 15" in out
    assert err == ""


def test_gamma_value_may_start_with_a_minus_sign():
    joined = run_cli(["report", "--gamma=-27/2,0"])
    assert joined[0] == 0
    assert run_cli(["report", "--gamma", "-27/2,0"]) == joined
    assert run_cli(["tables", "--gamma", "-1/3√3,-1/2", "--json"]) == run_cli(
        ["tables", "--json", "--gamma=-1/3√3,-1/2"])


def test_input_faults_exit_2_with_a_clear_message():
    for gamma, message in (("1/2 3,0", "space"), ("٣/7,0", "cannot read"),
                           ("1--1,0", "two signs"), ("0,+-1/3", "two signs"),
                           ("1" * 5000 + ",0", f"{sys.get_int_max_str_digits()} digits")):
        code, out, err = run_cli(["report", "--gamma", gamma])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert "set_int_max_str_digits" not in err
    # 1/2√3/5 could be √3/10 or 5/(2√3)
    code, out, err = run_cli(["l1", "--gamma=1/2√3/5,0"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "ambiguous root term" in err


@pytest.mark.parametrize("error", [
    ConsistencyError("double counting broken"),
    AssertionError("witness fell outside the lattice"),
    ValueError("point is not in the translation lattice"),
])
def test_engine_faults_exit_3_with_the_gamma(monkeypatch, error):
    def broken(orbits):
        raise error

    monkeypatch.setattr(tilecohom.report, "build_tables", broken)
    code, out, err = run_cli(["report", "--gamma", "1/5,1/7"])
    assert (code, out) == (3, "")
    assert "--gamma=1/5,1/7" in err
    assert type(error).__name__ in err and str(error) in err


def test_only_parse_errors_exit_2(monkeypatch):
    def broken(orbits):
        raise ParseError("unreadable")

    monkeypatch.setattr(tilecohom.report, "build_tables", broken)
    code, _, err = run_cli(["tables", "--gamma", "1/5,1/7"])
    assert code == 2
    assert err == "error: unreadable\n"


def test_no_command_exits_2():
    code, _, err = run_cli([])
    assert code == 2
    assert "usage" in err.lower()


def test_selftest_flag_routes_to_acceptance(monkeypatch):
    calls = []

    def fake_run_all(stream=None):
        calls.append(stream)
        stream.write("PASS stub\n")
        return True

    monkeypatch.setattr(tilecohom.accept, "run_all", fake_run_all)
    code, out, _ = run_cli(["--selftest"])
    assert code == 0
    assert out == "PASS stub\n"
    assert len(calls) == 1

    monkeypatch.setattr(tilecohom.accept, "run_all", lambda stream=None: False)
    code, _, _ = run_cli(["--selftest"])
    assert code == 3
