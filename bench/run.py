#!/usr/bin/env python3
"""Benchmark for the tilecohom rank report.

    python3 bench/run.py --workload generic --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
benchmark hands it only the ``"<q>,<q>"`` strings it generates from
``--seed``.  Each workload runs in this one process as a closed loop, one
gamma at a time, with no worker pool.  Every output is checked against
``bench/reference.json`` and the paper values.  End-to-end times are
divided by the host's speed, measured by the reference work of
``bench/hostref.py`` that runs next to the ops.  The last line of stdout is
the result object; the full record (environment, sample counts, failures,
tables, spans) goes to ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from math import gcd
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"

for _path in (SRC, BENCH_DIR):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import hostref  # noqa: E402
from tilecohom import cli, homalg, lineorbits, report, window  # noqa: E402

if Path(report.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"tilecohom was imported from {report.__file__}, not from {SRC}")

WORKLOADS = ("generic", "degenerate", "huge-denominator", "window-slice")
PIPELINE = frozenset({"generic", "degenerate", "huge-denominator"})

#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
SETUP_REPS = 5
#: Subprocess calls per member of the fixed subset, fewer where a call is slow.
CLI_ROUNDS = {"generic": 4, "degenerate": 6, "huge-denominator": 4, "window-slice": 6}
CENSUS_REPS = 3
COLD_REPS = 5
#: Share of the loop's op time that the reference kernel runs between ops.
KERNEL_SHARE = 0.2
#: Times of hostref.kernel() and of the reference child at the reference
#: host speed: about their medians on an idle 2-core x86_64 VM, Python 3.11.
KERNEL_REF_S = 0.015
CHILD_REF_S = 0.14
POST_LOOP_S = 1.0
#: Integer shifts added to each base gamma; the report depends on gamma mod Z^2.
SHIFT = 40

# -- inputs -----------------------------------------------------------------------
#
# Each workload has a fixed pool of base gammas, drawn once from the workload's
# own pool seed.  A run's input stream is a sequence of rounds; each round is
# the whole pool in a seeded order, every gamma shifted by a seeded integer
# pair.  The run seed thus changes every string the program sees, while every
# run measures the same mix of strata, so medians are comparable across seeds
# and every output has a recorded reference.

SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23)
MAGNITUDES = (6, 30, 200)


def _small_part(rng: random.Random) -> Fraction:
    # A prime denominator >= 5 keeps the part out of every lattice
    # G, (1/2)G, (1/sqrt3)G, (1/(2 sqrt3))G that pins a degenerate stratum.
    d = rng.choice(SMALL_PRIMES)
    while True:
        n = rng.randrange(-40, 40)
        if n % d:
            return Fraction(n, d)


def _generic_gamma(rng: random.Random) -> tuple:
    return (_small_part(rng), _small_part(rng)), (_small_part(rng), _small_part(rng))


def _huge_part(rng: random.Random, digits: int) -> Fraction:
    d = rng.randrange(10**digits, 2 * 10**digits)
    while True:
        n = rng.randrange(1, d)
        if gcd(n, d) == 1:
            return Fraction(n, d)


def component_text(p: Fraction, q: Fraction) -> str:
    """p + q*sqrt3 written as the CLI accepts it."""
    if q == 0:
        return str(p)
    root = f"{abs(q)}√3"
    if p == 0:
        return root if q > 0 else f"-{root}"
    return f"{p}{'+' if q > 0 else '-'}{root}"


def gamma_text(g1, g2) -> str:
    return f"{component_text(*g1)},{component_text(*g2)}"


_F = Fraction
#: Criteria 4-10 of tilecohom.accept: gamma and the paper values pinned there.
PAPER_VALUES = {
    "0,0": {"L1": 6, "sum_L0alpha": 36, "L0": 14, "e": 22, "h0": 1, "h1": 7,
            "h2": 28, "profile": [[6, [3, 2, 0, 0, 1]]]},
    "0,1/2": {"L1": 9, "sum_L0alpha": 90, "L0": 36, "e": 54, "h2": 63,
              "type_totals": [12, 10, 8]},
    "1/3√3,0": {"L1": 9, "sum_L0alpha": 99, "L0": 43, "e": 56, "h2": 65},
    "1/3√3,1/3√3": {"L1": 12, "sum_L0alpha": 180, "L0": 80, "e": 100,
                    "h2": 112, "profile": [[12, [12, 1, 0, 0, 2]]]},
    "1/3√3,1/3": {"L0": 78, "h2": 114},
    "0,1/6√3": {"L0": 78, "h2": 114, "odd_type_totals": [14, 10]},
    "1/2,1/2√3": {"L0": 56, "e": 88, "h2": 100},
    "1/2,1/2+1/2√3": {"L0": 99, "e": 117, "h2": 129},
}
_DEGENERATE = (
    ((_F(0), _F(0)), (_F(0), _F(0))),
    ((_F(0), _F(0)), (_F(1, 2), _F(0))),
    ((_F(0), _F(1, 3)), (_F(0), _F(0))),
    ((_F(0), _F(1, 3)), (_F(0), _F(1, 3))),
    ((_F(0), _F(1, 3)), (_F(1, 3), _F(0))),
    ((_F(0), _F(0)), (_F(0), _F(1, 6))),
    ((_F(1, 2), _F(0)), (_F(0), _F(1, 2))),
    ((_F(1, 2), _F(0)), (_F(1, 2), _F(1, 2))),
)
#: Criteria 1-2: the window census and the slicing census.
WINDOW_CENSUS = {"vertices": 52, "edges": 132, "faces": 120, "cubes": 40,
                 "long_cubes": 4, "valency_histogram": {4: 12, 5: 24, 6: 16},
                 "cubes_per_vertex": {4: [4], 5: [6], 6: [8]}, "ok": True}
SLICE_INCIDENCES = 72  # at (1/5,1/7)
SLICE_LONG_CODES = [(1, 5, 9), (1, 5, 9)]  # codes of the long cubes cut at (0,1/5)


def pool(workload: str) -> list[tuple[tuple, tuple, str]]:
    """The fixed base gammas of a workload, as (g1, g2, group) triples."""
    rng = random.Random(f"tilecohom-bench/{workload}")
    # Pools have an odd size, so that the median op of whole rounds is one
    # gamma's, not the midpoint between two strata of different cost.
    if workload == "generic":
        return [(*_generic_gamma(rng), "generic") for _ in range(13)]
    if workload == "degenerate":
        # (√3/3,1/3) is drawn twice per round to make the size odd; the
        # median op then falls inside the dense cluster of L1 = 12 strata,
        # not on its edge above the three cheaper strata.
        return [(g1, g2, gamma_text(g1, g2)) for g1, g2 in (*_DEGENERATE, _DEGENERATE[4])]
    if workload == "huge-denominator":
        return [((_huge_part(rng, k), _huge_part(rng, k)),
                 (_huge_part(rng, k), _huge_part(rng, k)), f"1e{k}")
                for k in MAGNITUDES for _ in range(3)]
    if workload == "window-slice":
        out = [(*_generic_gamma(rng), "generic") for _ in range(8)]
        for k in range(5):
            g = (_small_part(rng), _small_part(rng) if k % 2 else _F(0))
            zero = (_F(0), _F(0))
            out.append((zero, g, "axis") if k < 3 else (g, zero, "axis"))
        return out
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Item:
    text: str  # the string handed to the program
    key: str  # the base gamma, which keys the reference
    group: str
    index: int  # position in the pool


def rounds(workload: str, seed: int):
    """Endless seeded rounds; each is the whole pool, shuffled and shifted."""
    base = pool(workload)
    rng = random.Random(seed)
    while True:
        order = list(range(len(base)))
        rng.shuffle(order)
        batch = []
        for index in order:
            (p1, q1), (p2, q2), group = base[index]
            m, n = rng.randint(-SHIFT, SHIFT), rng.randint(-SHIFT, SHIFT)
            batch.append(Item(gamma_text((p1 + m, q1), (p2 + n, q2)),
                              gamma_text((p1, q1), (p2, q2)), group, index))
        yield batch


# -- operations and their checks ------------------------------------------------------


def pipeline_op(text: str) -> bytes:
    """One report: parse_gamma -> compute -> render(..., "json")."""
    return report.render(report.compute(report.parse_gamma(text)), "json")


def slice_op(text: str):
    gamma = lineorbits.reduce_gamma(report.parse_gamma(text))
    return window.slice_detailed(gamma.pair())


def _qr(value) -> list[str]:
    return [str(value.p), str(value.q)]


def slice_bytes(result) -> bytes:
    """Canonical serialisation of slice_detailed output, for digesting."""
    lines, incidences = result
    payload = {
        "lines": [[line.direction, *_qr(line.anchor.u), *_qr(line.anchor.v),
                   [[ident, list(delta)] for ident, delta in line.sources]]
                  for line in lines],
        "incidences": sorted([ident, list(delta)] for ident, delta in incidences),
    }
    return json.dumps(payload, separators=(",", ":")).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def paper_mismatches(payload: dict, pinned: dict) -> list[str]:
    derived = {
        "profile": [[t["n"], t["by_p"]] for t in payload["line_types"]],
        "type_totals": sorted((t["total"] for t in payload["line_types"]),
                              reverse=True),
        "odd_type_totals": sorted((t["total"] for t in payload["line_types"]
                                   if t["dir"] == "o"), reverse=True),
    }
    out = []
    for name, want in pinned.items():
        got = derived[name] if name in derived else payload[name]
        if got != want:
            out.append(f"{name}: got {got!r}, want {want!r}")
    return out


class Checker:
    """Counts attempted and failed operations, keeping the failure messages."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, where: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{where}: {message}")

    def run(self, where: str, call):
        """Count one attempted operation; a raised exception is a failure."""
        self.attempted += 1
        try:
            return call()
        except Exception as exc:  # noqa: BLE001 - the loop must go on; the failure is counted
            self.fail(where, f"{type(exc).__name__}: {exc}")
            return None

    def output(self, item: Item, output, kind: str) -> None:
        """Compare a report (JSON bytes) or a slice with the reference."""
        where = f"{kind} at gamma {item.text!r}"
        data = output if kind == "report" else slice_bytes(output)
        want = self.reference[self.workload].get(item.key)
        if want is None:
            self.fail(where, f"no reference for base gamma {item.key!r}")
        elif sha256(data) != want[kind]:
            self.fail(where, "output differs from the reference")
        elif kind == "report" and self.workload == "degenerate":
            bad = paper_mismatches(json.loads(data), PAPER_VALUES[item.key])
            if bad:
                self.fail(where, "; ".join(bad))

    def window_census(self, verify_counts=window.verify_counts) -> None:
        """Criterion 1: the census that verify_counts reports."""
        counts = self.run("verify_counts", verify_counts)
        if counts is not None:
            bad = sorted(k for k, v in WINDOW_CENSUS.items() if counts[k] != v)
            if bad:
                self.fail("verify_counts", f"census differs in {bad}")

    def slice_census(self) -> None:
        """Criterion 2: incidences at (1/5,1/7), sliced long cubes at (0,1/5)."""
        result = self.run("slice census", lambda: (slice_op("1/5,1/7"), slice_op("0,1/5")))
        if result is None:
            return
        (_, incidences), (_, axis_incidences) = result
        if len(incidences) != SLICE_INCIDENCES:
            self.fail("slice census", f"{len(incidences)} incidences at (1/5,1/7)")
        cubes = {c.ident: c for c in window.enumerate_cubes()}
        longs = sorted(cubes[i].codes for i in {i for i, _ in axis_incidences}
                       if cubes[i].kind == "long")
        if longs != SLICE_LONG_CODES:
            self.fail("slice census", f"long cubes at (0,1/5) have codes {longs}")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- tracing ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, gamma index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[dict] = []  # one dict per traced pipeline op
        self.slices: list[tuple[int, int]] = []  # (lines, incidences) per traced slice
        self.gamma: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.gamma]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def traced(self, name: str, fn):
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list[float]:
        child = {}
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] = child.get(s[3], 0.0) + s[2] - s[1]
        return [s[2] - s[1] - child.get(i, 0.0)
                for i, s in enumerate(self.spans) if s[0] == name]


#: Stages that compute() looks up in tilecohom.report, with their span names.
COMPUTE_STAGES = {
    "reduce_gamma": "lineorbits.reduce_gamma",
    "candidate_lines": "lineorbits.candidate_lines",
    "orbit_partition": "lineorbits.orbit_partition",
    "build_tables": "pointorbits.build_tables",
}


@contextmanager
def instrumented_compute(tracer: Tracer):
    """Time the stages of compute() as child spans, without touching src/.

    The names compute() resolves in tilecohom.report are rebound to traced
    wrappers for the duration of one traced op; orbit_partition gets a
    counting same_orbit through its public test= argument.  Stage time not
    in a child span (rank_and_cokernel's cache hit, assembling the report)
    is compute's self time.
    """
    # A stage name that tilecohom.report no longer has is left out, and its
    # span metric then reads 0.
    saved = {name: getattr(report, name) for name in COMPUTE_STAGES if hasattr(report, name)}
    op = tracer.counts[-1]

    def candidate_lines(gamma):
        lines = saved["candidate_lines"](gamma)
        op["lineorbits.candidates"] += len(lines)
        return lines

    def orbit_partition(lines, test=lineorbits.same_orbit):
        def counted(a, b):
            op["lineorbits.same_orbit_tests"] += 1
            return test(a, b)

        return saved["orbit_partition"](lines, test=counted)

    wrappers = {"candidate_lines": candidate_lines, "orbit_partition": orbit_partition}
    try:
        for name, fn in saved.items():
            setattr(report, name, tracer.traced(COMPUTE_STAGES[name], wrappers.get(name, fn)))
        yield
    finally:
        for name, fn in saved.items():
            setattr(report, name, fn)


def traced_pipeline_op(tracer: Tracer, text: str) -> bytes:
    tracer.counts.append({"lineorbits.candidates": 0, "lineorbits.same_orbit_tests": 0})
    with instrumented_compute(tracer), tracer.span("op"):
        with tracer.span("report.parse_gamma"):
            raw = report.parse_gamma(text)
        with tracer.span("report.compute"):
            result = report.compute(raw)
        with tracer.span("report.render_json"):
            out = report.render(result, "json")
    with tracer.span("report.render_text"):
        report.render(result, "text")
    counts = tracer.counts[-1]
    counts["lineorbits.orbits"] = result.L1
    counts["pointorbits.orbit_pairs"] = sum(
        c * (result.L1 - c) for c in result.per_direction)
    counts["pointorbits.claims"] = result.sum_L0alpha
    counts["pointorbits.classes"] = result.L0
    return out


def traced_slice_op(tracer: Tracer, text: str):
    with tracer.span("op"):
        with tracer.span("report.parse_gamma"):
            raw = report.parse_gamma(text)
        with tracer.span("lineorbits.reduce_gamma"):
            gamma = lineorbits.reduce_gamma(raw)
        with tracer.span("window.slice_detailed"):
            result = window.slice_detailed(gamma.pair())
    tracer.slices.append((len(result[0]), len(result[1])))
    return result


# -- measurement -------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def per_input_median(times, inputs):
    """The median, over distinct inputs, of each input's mean time.

    On a shared host the cores run at one of two speeds, about 1.7 times
    apart, depending on load outside the benchmark; the median of single
    short ops jumps to whichever speed held for most of the run.  Each
    input's mean over its repeats moves in proportion to that share instead.
    """
    by_input: dict = {}
    for t, key in zip(times, inputs):
        by_input.setdefault(key, []).append(t)
    return median([statistics.fmean(ts) for ts in by_input.values()])


def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if not ordered:
        return 0.0, 100.0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Loop:
    latencies: list = field(default_factory=list)  # untraced op times, s
    indices: list = field(default_factory=list)  # pool index of each untraced op
    slots: list = field(default_factory=list)  # each op with its checks, s
    traced: list = field(default_factory=list)  # traced op times, s
    kernel: list = field(default_factory=list)  # hostref.kernel() times, s
    groups: list = field(default_factory=list)  # group of each untraced op
    first_round: dict = field(default_factory=dict)  # pool index -> (item, output)
    wall: float = 0.0  # the sum of the slots
    rounds: int = 0


def closed_loop(workload: str, seed: int, seconds: float, checker: Checker,
                tracer: Tracer | None = None, side=None) -> Loop:
    """One gamma at a time, in whole rounds, for about `seconds` seconds.

    One untimed op first fills the lru_caches, which set-up pays for, not
    the loop.  Stopping at a round boundary keeps the mix of strata
    identical across runs.  With a tracer every gamma runs twice, untraced
    then traced, so the two latencies are paired; the traced one is the
    duration of the op span.

    `side`, if given, maps the loop after its first round to a list of calls
    (the subprocess measurements, which need round one's outputs).  They run
    between ops, spread evenly over the rest of the run, so that they sample
    the same stretch of time as the ops.  The reference kernel runs between
    ops too, for KERNEL_SHARE of their time.  `seconds` covers both, so a
    run lasts about as long whatever they cost; loop.wall leaves them out.
    """
    kind = "report" if workload in PIPELINE else "slice"
    op = pipeline_op if kind == "report" else slice_op
    traced_op = traced_pipeline_op if kind == "report" else traced_slice_op
    loop = Loop()
    attempted = 0
    tasks, done, first_round_end = [], 0, 0.0
    stream = rounds(workload, seed)
    batch = next(stream)
    warm = batch[0]
    out = checker.run(f"warm-up gamma {warm.text!r}", lambda: op(warm.text))
    if out is not None:
        checker.output(warm, out, kind)
    start = time.perf_counter()
    while True:
        for item in batch:
            attempted += 1
            where = f"gamma {item.text!r}"
            t0 = time.perf_counter()
            out = checker.run(where, lambda: op(item.text))
            elapsed = time.perf_counter() - t0
            if out is not None:
                checker.output(item, out, kind)
                loop.latencies.append(elapsed)
                loop.indices.append(item.index)
                loop.groups.append(item.group)
                if loop.rounds == 0:
                    loop.first_round[item.index] = (item, out)
            if out is not None and tracer is not None:
                tracer.gamma, first = item.index, len(tracer.spans)
                out = checker.run(f"traced {where}", lambda: traced_op(tracer, item.text))
                tracer.gamma = None
                if out is not None:
                    checker.output(item, out, kind)
                    _, begin, end, _, _ = tracer.spans[first]
                    loop.traced.append(end - begin)
            if out is not None:
                loop.slots.append(time.perf_counter() - t0)
            while sum(loop.kernel) < KERNEL_SHARE * sum(loop.slots):
                t1 = time.perf_counter()
                hostref.kernel()
                loop.kernel.append(time.perf_counter() - t1)
            if done < len(tasks):
                span = seconds - first_round_end
                due = first_round_end + span * (done + 0.5) / len(tasks)
                if time.perf_counter() - start >= due:
                    tasks[done]()
                    done += 1
        loop.rounds += 1
        total = time.perf_counter() - start
        loop.wall = sum(loop.slots)
        if loop.rounds == 1 and side is not None:
            tasks, first_round_end = side(loop), total
        # Stop at the last round boundary that another average round would
        # carry past the deadline, so that a run does not overrun --seconds.
        round_time = total / loop.rounds
        if total + round_time >= seconds and attempted > TAIL_BEYOND:
            break
        batch = next(stream)
    for task in tasks[done:]:
        task()
    return loop


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child interpreter in the repository root; return its wall time."""
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=120, check=False)
    return time.perf_counter() - t0, done


SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
kind, text = sys.argv[1:]
if kind == "report":
    from tilecohom.report import compute, parse_gamma, render
    out = render(compute(parse_gamma(text)), "json")
else:
    from tilecohom.lineorbits import reduce_gamma
    from tilecohom.report import parse_gamma
    from tilecohom.window import slice_detailed
    lines, incidences = slice_detailed(reduce_gamma(parse_gamma(text)).pair())
    out = f"{len(lines)} {len(incidences)}".encode()
elapsed = time.perf_counter() - t0
sys.stdout.buffer.write(repr(elapsed).encode() + b"\\n" + out)
"""


def setup_tasks(workload: str, items: list, checker: Checker, times: list) -> list:
    """Set-up probes: import tilecohom plus the first op, in fresh interpreters.

    Each child times itself from before the import to after its first op,
    which fills the lru_caches; interpreter start-up is excluded.
    """
    kind = "report" if workload in PIPELINE else "slice"

    def probe(item: Item, output) -> None:
        expected = output if kind == "report" else f"{len(output[0])} {len(output[1])}".encode()
        argv = [sys.executable, "-c", SETUP_CHILD, kind, item.text]
        result = checker.run(f"set-up child {item.text!r}", lambda: run_child(argv))
        if result is None:
            return
        done = result[1]
        head, _, body = done.stdout.partition(b"\n")
        if done.returncode != 0 or body != expected:
            checker.fail(f"set-up child {item.text!r}",
                         f"exit {done.returncode}; output differs from the in-process op")
        else:
            times.append(float(head))

    return [partial(probe, *items[rep % len(items)]) for rep in range(SETUP_REPS if items else 0)]


def cli_calls(workload: str, items: list, verify_window: bytes | None):
    """(argv, expected stdout) for the fixed CLI subset of a workload."""
    if workload in PIPELINE:
        # `--gamma=` keeps a value that starts with "-" from being read as an option.
        calls = [(["report", "--json", f"--gamma={item.text}"], out) for item, out in items]
    else:
        calls = [(["verify-window", "--json"], verify_window)] * len(items)
    return calls * CLI_ROUNDS[workload]


def cli_tasks(workload: str, items: list, checker: Checker,
              verify_window: bytes | None, times: list, reference) -> list:
    """Wall time of `python -m tilecohom.cli ...`, start-up included.

    Each call is followed at once by `reference()`, a reference child; a
    call appends (its time, the reference child's time).
    """

    def call(args: list, expected: bytes) -> None:
        argv = [sys.executable, "-m", "tilecohom.cli", *args]
        result = checker.run(f"cli {args!r}", lambda: run_child(argv))
        if result is None:
            return
        elapsed, done = result
        if done.returncode != 0 or done.stdout != expected:
            checker.fail(f"cli {args!r}",
                         f"exit {done.returncode}; stdout differs from the in-process output")
            return
        ref = reference()
        if ref is not None:
            times.append((elapsed, ref))

    return [partial(call, args, expected)
            for args, expected in cli_calls(workload, items, verify_window)]


def reference_child(checker: Checker, expected: bytes) -> float | None:
    """Wall time of `python bench/hostref.py`, the CLI's reference."""
    argv = [sys.executable, str(BENCH_DIR / "hostref.py")]
    result = checker.run("reference child", lambda: run_child(argv))
    if result is None:
        return None
    elapsed, done = result
    if done.returncode != 0 or done.stdout.strip() != expected:
        checker.fail("reference child", f"exit {done.returncode}; unexpected output")
        return None
    return elapsed


def in_process_verify_window(checker: Checker) -> bytes:
    """`verify-window --json` through cli.main, checked against the reference."""
    out = io.StringIO()
    code = checker.run("verify-window --json", lambda: cli.main(["verify-window", "--json"],
                                                                out, io.StringIO()))
    data = out.getvalue().encode("utf-8")
    if code is not None and (code != 0 or sha256(data) != checker.reference["verify-window"]):
        checker.fail("verify-window --json", f"exit {code}; output differs from the reference")
    return data


#: Pool positions whose first-round strings form the fixed subset that the
#: CLI, the set-up probes and the traced side calls use.
CLI_POOL = {
    "generic": (0, 1, 2),
    "degenerate": (3, 4, 5, 6, 7),
    "huge-denominator": (0, 3, 6),
    "window-slice": (0, 1, 2, 8, 9),
}


def cli_items(workload: str, loop: Loop) -> list:
    return [loop.first_round[i] for i in CLI_POOL[workload] if i in loop.first_round]


# -- the two kinds of run ---------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, deadline: float, checker: Checker):
    """Untraced run: the end-to-end metrics and the record that explains them."""
    verify_window = None if workload in PIPELINE else in_process_verify_window(checker)
    cli_times, setup_times = [], []

    def side(loop: Loop) -> list:
        # A CLI child runs first and warms the bytecode and file caches.
        items = cli_items(workload, loop)
        reference = partial(reference_child, checker,
                            str(hostref.kernel(hostref.CHILD_POINTS)).encode())
        pairs = zip_longest(
            cli_tasks(workload, items, checker, verify_window, cli_times, reference),
            setup_tasks(workload, items, checker, setup_times))
        return [task for pair in pairs for task in pair if task is not None]

    loop = closed_loop(workload, seed, deadline - time.perf_counter(), checker, side=side)
    if workload not in PIPELINE:
        for _ in range(CENSUS_REPS):
            checker.window_census()
        checker.slice_census()
    cli_elapsed, child_times = zip(*cli_times) if cli_times else ((), ())
    raw = {
        "latency_p50_s": per_input_median(loop.latencies, loop.indices),
        "latency_tail_s": tail(loop.latencies)[0],
        "ops_per_s": len(loop.latencies) / loop.wall,
        "cli_latency_p50_s": median(cli_elapsed),
        "setup_s": median(setup_times),
    }
    # How much slower than the reference speed the host ran, in the loop and
    # for the child processes (see bench/hostref.py).  Dividing by it
    # cancels a change of host speed between runs.  A CLI call is divided
    # by its own reference child, which ran right after it.
    slow = mean(loop.kernel) / KERNEL_REF_S or 1.0
    child_slow = mean(child_times) / CHILD_REF_S or 1.0
    cli_scaled = median([e / r * CHILD_REF_S for e, r in zip(cli_elapsed, child_times)])
    metrics = {
        "latency_p50_s": metric(raw["latency_p50_s"] / slow, "s"),
        "latency_tail_s": metric(raw["latency_tail_s"] / slow, "s"),
        "throughput_ops_s": metric(raw["ops_per_s"] * slow, "ops/s"),
        "cli_latency_p50_s": metric(cli_scaled, "s"),
        "setup_s": metric(raw["setup_s"] / child_slow, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "samples": {"ops": len(loop.latencies), "rounds": loop.rounds,
                    "loop_wall_s": loop.wall, "cli": len(cli_times),
                    "setup": len(setup_times), "kernel": len(loop.kernel),
                    "reference_child": len(child_times)},
        "latency_tail_percentile": tail(loop.latencies)[1],
        "host": {"kernel_mean_s": mean(loop.kernel), "kernel_ref_s": KERNEL_REF_S,
                 "child_mean_s": mean(child_times), "child_ref_s": CHILD_REF_S},
        # The same figures in plain wall-clock time, before the division.
        "unscaled": raw,
    }
    if workload == "huge-denominator":
        details["denominator_table"] = {}
        for group in (f"1e{k}" for k in MAGNITUDES):
            mine = [(t, i) for t, i, g in zip(loop.latencies, loop.indices, loop.groups)
                    if g == group]
            details["denominator_table"][group] = {
                "latency_p50_s": per_input_median(*zip(*mine)) / slow if mine else 0.0,
                "samples": len(mine)}
    return metrics, details


def per_layer(workload: str, seed: int, deadline: float, checker: Checker, tracer: Tracer):
    """Traced run: one span per public call, then the per-layer metrics."""
    # Cached stages are timed cold, with the cache cleared, which is what
    # set-up pays for them; later calls are cache hits.
    for name, fn in (("homalg.rank_and_cokernel", homalg.rank_and_cokernel),
                     ("window.build_window", window.build_window)):
        for _ in range(COLD_REPS):
            fn.cache_clear()
            checker.run(name, tracer.traced(name, fn))
    verify_window = None if workload in PIPELINE else in_process_verify_window(checker)
    loop = closed_loop(workload, seed, deadline - time.perf_counter(), checker, tracer)
    items = cli_items(workload, loop)
    # Side calls at the fixed subset, outside the loop, give every layer a
    # measurement on every workload: slices on the pipeline workloads,
    # reports on window-slice.
    kind = "slice" if workload in PIPELINE else "report"
    side_op = traced_slice_op if kind == "slice" else traced_pipeline_op
    for item, _ in items:
        tracer.gamma = item.index
        out = checker.run(f"side {kind} {item.text!r}", lambda: side_op(tracer, item.text))
        tracer.gamma = None
        if out is not None:
            checker.output(item, out, kind)
    for _ in range(CENSUS_REPS):
        checker.window_census(tracer.traced("window.verify_counts", window.verify_counts))
    for args, expected in cli_calls(workload, items, verify_window)[:len(items)]:
        out = io.StringIO()
        main_call = tracer.traced("cli.main", lambda: cli.main(args, out, io.StringIO()))
        code = checker.run(f"cli.main {args!r}", main_call)
        if code is not None and (code != 0 or out.getvalue().encode("utf-8") != expected):
            checker.fail(f"cli.main {args!r}", f"exit {code}; output differs from the in-process op")
    op_self = tracer.self_times("op")[:len(loop.traced)]  # the loop's ops come first
    details = {
        "samples": {"ops": len(loop.latencies), "traced_ops": len(loop.traced),
                    "rounds": loop.rounds, "loop_wall_s": loop.wall,
                    "spans": len(tracer.spans), "side_ops": len(items)},
        "latency_p50_untraced_s": median(loop.latencies),
        "latency_p50_traced_s": median(loop.traced),
        "tracing_overhead_s": median(loop.traced) - median(loop.latencies),
        # Time inside an op span but in none of its child spans; the stage
        # spans plus compute's self time account for the rest of the op.
        "op_unaccounted_p50_s": median(op_self),
    }
    return layer_metrics(tracer), details


TIMED_SPANS = (
    "pointorbits.build_tables", "lineorbits.reduce_gamma", "lineorbits.candidate_lines",
    "lineorbits.orbit_partition", "report.parse_gamma", "report.render_text",
    "report.render_json", "homalg.rank_and_cokernel", "window.build_window",
    "window.slice_detailed", "window.verify_counts", "cli.main",
)


def ratio(numerator, denominator) -> float:
    """numerator / denominator, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Medians of span durations; counts as means per traced op; ratios of sums."""
    metrics = {f"{name}_s": metric(median(tracer.durations(name)), "s") for name in TIMED_SPANS}
    metrics["report.compute_self_s"] = metric(median(tracer.self_times("report.compute")), "s")

    def total(key):
        return sum(op.get(key, 0) for op in tracer.counts)

    for key in ("pointorbits.orbit_pairs", "pointorbits.claims", "lineorbits.candidates",
                "lineorbits.orbits", "lineorbits.same_orbit_tests"):
        metrics[key] = metric(ratio(total(key), len(tracer.counts)), "count")
    metrics["pointorbits.classes_per_claim"] = metric(
        ratio(total("pointorbits.classes"), total("pointorbits.claims")), "ratio")
    metrics["lineorbits.orbits_per_test"] = metric(
        ratio(total("lineorbits.orbits"), total("lineorbits.same_orbit_tests")), "ratio")
    metrics["window.sliced_lines"] = metric(
        ratio(sum(lines for lines, _ in tracer.slices), len(tracer.slices)), "count")
    metrics["window.incidences"] = metric(
        ratio(sum(inc for _, inc in tracer.slices), len(tracer.slices)), "count")
    return metrics


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "commit": git_commit(), "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The checks after the loop take about POST_LOOP_S; the loop ends that
    # much early, so that a whole run lasts about --seconds.
    deadline = time.perf_counter() + args.seconds - POST_LOOP_S

    checker = Checker(args.workload, load_reference())
    tracer = Tracer() if args.trace else None
    if tracer is None:
        metrics, details = end_to_end(args.workload, args.seed, deadline, checker)
    else:
        metrics, details = per_layer(args.workload, args.seed, deadline, checker, tracer)
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed), **details,
        "attempted": checker.attempted, "failed": checker.failed,
        "error_rate": checker.failed / checker.attempted, "failures": checker.failures,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump = dict(record)
    if tracer is not None:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        dump["spans"] = [{"name": name, "start": start - origin, "end": end - origin,
                          "parent": parent, "gamma": gamma}
                         for name, start, end, parent, gamma in tracer.spans]
    path.write_text(json.dumps(dump, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
