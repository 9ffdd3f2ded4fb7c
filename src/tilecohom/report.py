"""End-to-end rank report: pipeline orchestration and text/JSON rendering."""

from __future__ import annotations

import json
import time
from typing import NamedTuple

from .exactfield import ParseError, format_quadrat, parse_quadrat
from .homalg import rank_and_cokernel
from .lineorbits import GammaParam, candidate_lines, orbit_partition, reduce_gamma
from .pointorbits import LineType, build_tables


class CohomologyReport(NamedTuple):
    """All pipeline outputs for one gamma, reduced echo included."""

    gamma: GammaParam
    L1: int
    per_direction: tuple[int, int, int, int, int, int]
    R: int
    sum_L0alpha: int
    L0: int
    L0_by_p: tuple[int, int, int, int, int]
    e: int
    h0: int
    h1: int
    h2: int
    torsion_free: bool
    line_type_table: tuple[LineType, ...]
    timing: float


def compute(gamma_raw) -> CohomologyReport:
    """Run the whole pipeline on a raw gamma pair.

    Stages: reduce gamma into [0,1)^2, partition the candidate lines into
    orbits (L1), take the gamma-independent homological constants (R,
    torsion), count crossing-point orbits (L0, e), and assemble the ranks
    h0 = 1, h1 = 4 + L1 - R, h2 = 3 + L1 + e - R.
    """
    start = time.perf_counter()
    gamma = reduce_gamma(gamma_raw)
    orbits = orbit_partition(candidate_lines(gamma))
    homology = rank_and_cokernel()
    tables = build_tables(orbits)
    L1, R, e = orbits.L1, homology["R"], tables.e
    counts = orbits.per_direction()
    return CohomologyReport(
        gamma=gamma,
        L1=L1,
        per_direction=tuple(counts[i] for i in range(6)),
        R=R,
        sum_L0alpha=tables.sum_L0alpha,
        L0=tables.L0,
        L0_by_p=tables.L0_by_p,
        e=e,
        h0=1,
        h1=4 + L1 - R,
        h2=3 + L1 + e - R,
        torsion_free=homology["torsion_free"],
        line_type_table=tables.types,
        timing=time.perf_counter() - start,
    )


# -- gamma parsing --------------------------------------------------------------


def parse_gamma(text: str):
    """Parse `"<q>,<q>"` into a pair of exact Q(√3) values."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(
            f"expected two comma-separated gamma components, got {text!r}"
        )
    try:
        return (parse_quadrat(parts[0]), parse_quadrat(parts[1]))
    except ParseError as exc:
        raise ParseError(
            f"gamma components must be exact Q(√3) rationals"
            f" written p/q+r/s√3: {exc}"
        ) from exc


# -- rendering -----------------------------------------------------------------


def dump_json(payload) -> bytes:
    """The one JSON encoding of every output: sorted keys, compact, UTF-8."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def dump_text(lines) -> bytes:
    """The one text encoding of every output: newline-terminated lines, UTF-8."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def table_lines(rows, footer=None) -> list[str]:
    """The line-type table, right-aligned, with an optional last row of cells."""
    header = ["n", "dir", "p=2", "p=3", "p=4", "p=5", "p=6", "total"]
    body = [
        [str(row.n), row.parity, *[str(c) for c in row.by_p], str(row.total)]
        for row in rows
    ]
    if footer is not None:
        body.append([str(c) for c in footer])
    widths = [max(len(h), *(len(r[k]) for r in body)) for k, h in enumerate(header)]
    out = [" | ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in body:
        out.append(" | ".join(c.rjust(w) for c, w in zip(r, widths)))
    return out


def payload(report: CohomologyReport) -> dict:
    """The JSON payload (schema 1); rationals as p/q+r/s√3 strings, no timing."""
    return {
        "schema": 1,
        "gamma": [format_quadrat(report.gamma.g1),
                  format_quadrat(report.gamma.g2)],
        "L1": report.L1,
        "per_direction": list(report.per_direction),
        "R": report.R,
        "sum_L0alpha": report.sum_L0alpha,
        "L0": report.L0,
        "L0_by_p": list(report.L0_by_p),
        "e": report.e,
        "h0": report.h0,
        "h1": report.h1,
        "h2": report.h2,
        "torsion_free": report.torsion_free,
        "line_types": [
            {
                "n": row.n,
                "dir": row.parity,
                "by_p": list(row.by_p),
                "total": row.total,
            }
            for row in report.line_type_table
        ],
    }


def render(report: CohomologyReport, format: str = "text") -> bytes:
    """Render as aligned text tables or versioned JSON (schema 1).

    The text layout is the line-type table followed by the summary row
    `sum L0^a | L0 | L1 | e | rk H2 | rk H1 | rk H0`; the summary row
    itself is unpadded.  JSON output is byte-deterministic.
    """
    if format == "json":
        return dump_json(payload(report))
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    return dump_text([
        f"gamma = ({report.gamma.g1}, {report.gamma.g2})",
        f"L1 = {report.L1}   per direction: "
        + " ".join(str(c) for c in report.per_direction),
        f"R = {report.R}   torsion-free: {'yes' if report.torsion_free else 'NO'}",
        "",
        *table_lines(report.line_type_table),
        "",
        "sum L0^a | L0 | L1 | e | rk H2 | rk H1 | rk H0",
        f"{report.sum_L0alpha} | {report.L0} | {report.L1} | {report.e}"
        f" | {report.h2} | {report.h1} | {report.h0}",
    ])
