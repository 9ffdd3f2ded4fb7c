"""Byte-for-byte stdout of every CLI subcommand and of the demos.

`golden_stdout.json` maps a command line to the exact stdout it printed
when the file was recorded.  Keys starting with `demos/` are scripts run
in a fresh interpreter; every other key is an argv for `tilecohom`,
split on spaces.  Any change to these bytes is a change to the program's
output and has to be deliberate.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tilecohom.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).with_name("golden_stdout.json")).read_text("utf-8"))


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_recorded_bytes(command):
    if command.startswith("demos/"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, command], cwd=ROOT, env=env,
                              capture_output=True, check=False)
        code, out, err = done.returncode, done.stdout, done.stderr.decode("utf-8")
    else:
        stdout, stderr = io.StringIO(), io.StringIO()
        code = main(command.split(" "), stdout, stderr)
        out, err = stdout.getvalue().encode("utf-8"), stderr.getvalue()
    assert (code, err) == (0, "")
    assert out == GOLDEN[command].encode("utf-8")
