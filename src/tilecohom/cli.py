"""Command line front end: report, l1, tables, smith, verify-window."""

from __future__ import annotations

import argparse
import sys

from .cyclotomic import decode
from .exactfield import ParseError, format_quadrat
from .homalg import beta_matrix, rank_and_cokernel, smith
from .lineorbits import candidate_lines, orbit_partition, reduce_gamma
from .pointorbits import ConsistencyError
from .report import (
    compute,
    dump_json,
    dump_text,
    parse_gamma,
    payload,
    render,
    table_lines,
)

#: The keys of the report payload that `tables --json` prints.
TABLES_KEYS = ("schema", "gamma", "line_types", "L0_by_p", "L0", "sum_L0alpha")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilecohom",
        description="Exact cohomology rank reports for generalized 12-fold"
        " cut-and-project tilings.",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the acceptance suite and exit",
    )
    sub = parser.add_subparsers(dest="command")
    for name, needs_gamma in (
        ("report", True),
        ("l1", True),
        ("tables", True),
        ("smith", False),
        ("verify-window", False),
    ):
        p = sub.add_parser(name)
        if needs_gamma:
            p.add_argument(
                "--gamma",
                required=True,
                metavar='"<q>,<q>"',
                help="gamma as two Q(√3) values, each written p/q+r/s√3",
            )
        p.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _cmd_report(args):
    result = compute(parse_gamma(args.gamma))
    return render(result, "json" if args.as_json else "text"), 0


def _cmd_l1(args):
    gamma = reduce_gamma(parse_gamma(args.gamma))
    orbits = orbit_partition(candidate_lines(gamma))
    counts = list(orbits.per_direction().values())
    reps = [
        [f"({o.representative.anchor.u}, {o.representative.anchor.v})"
         for o in orbits.orbits_for(d)]
        for d in range(6)
    ]
    if args.as_json:
        return dump_json({
            "schema": 1,
            "gamma": [format_quadrat(gamma.g1), format_quadrat(gamma.g2)],
            "L1": orbits.L1,
            "per_direction": counts,
            "representatives": {str(d): reps[d] for d in range(6)},
        }), 0
    return dump_text([
        f"gamma = ({gamma.g1}, {gamma.g2})",
        f"L1 = {orbits.L1}",
        "per direction: " + " ".join(str(c) for c in counts),
        *(f"x^{d}: " + ", ".join(reps[d]) for d in range(6)),
    ]), 0


def _cmd_tables(args):
    result = compute(parse_gamma(args.gamma))
    if args.as_json:
        full = payload(result)
        return dump_json({key: full[key] for key in TABLES_KEYS}), 0
    footer = ["L0", "", *result.L0_by_p, result.L0]
    return dump_text([
        *table_lines(result.line_type_table, footer),
        f"sum L0^a = {result.sum_L0alpha}   L0 = {result.L0}",
    ]), 0


def _cmd_smith(args):
    matrix = beta_matrix()
    form = smith(matrix)
    info = rank_and_cokernel()
    if args.as_json:
        return dump_json({
            "schema": 1,
            "beta": [list(row) for row in matrix],
            "factors": list(form.factors),
            "R": info["R"],
            "torsion_free": info["torsion_free"],
        }), 0
    return dump_text([
        "beta =",
        *("  " + " ".join(f"{v:3d}" for v in row) for row in matrix),
        "invariant factors: " + " ".join(str(f) for f in form.factors),
        f"R = {info['R']}",
        f"torsion-free: {'yes' if info['torsion_free'] else 'NO'}",
    ]), 0


def _vertex_row(fpart, t):
    from .window import WINDOW_MODULUS

    p = decode(t, WINDOW_MODULUS)
    return [*fpart, format_quadrat(p.u), format_quadrat(p.v)]


def _cmd_verify_window(args):
    # Imported here, as accept is for --selftest: no other command needs the window.
    from .window import build_window, enumerate_cubes, verify_counts

    result = verify_counts()
    code = 0 if result["ok"] else 3
    if args.as_json:
        window = build_window()
        return dump_json({
            "schema": 1,
            **{k: v for k, v in result.items()
               if k not in ("valency_histogram", "cubes_per_vertex")},
            "valency_histogram": {str(k): v for k, v in
                                  result["valency_histogram"].items()},
            "cubes_per_vertex": {str(k): v for k, v in
                                 result["cubes_per_vertex"].items()},
            "vertices": sorted(_vertex_row(fp, t) for fp, t in window.points),
            "cubes": [
                {"ident": c.ident, "kind": c.kind, "base": list(c.base),
                 "codes": list(c.codes)}
                for c in enumerate_cubes()
            ],
        }), code
    return dump_text([
        *(f"{key}: {result[key]}"
          for key in ("vertices", "edges", "faces", "cubes", "long_cubes")),
        "valency histogram: " + ", ".join(
            f"{k}:{v}" for k, v in sorted(result["valency_histogram"].items())),
        "cubes per vertex: " + ", ".join(
            f"{k}:{sorted(v)}" for k, v in sorted(result["cubes_per_vertex"].items())),
        *(f"{key}: {result[key]}"
          for key in ("edge_length_sq_uniform", "corners_on_window",
                      "boundary_facets_independent", "sublattice", "ok")),
    ]), code


_COMMANDS = {
    "report": _cmd_report,
    "l1": _cmd_l1,
    "tables": _cmd_tables,
    "smith": _cmd_smith,
    "verify-window": _cmd_verify_window,
}


def _glue_gamma(argv):
    """Write `--gamma <value>` as `--gamma=<value>`.

    argparse reads a value that starts with "-", such as "-27/2,0", as an
    unknown option and rejects the command; the joined form keeps it a value.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--gamma" and arg.startswith("-") \
                and arg not in ("-h", "--help", "--json"):
            out[-1] = f"--gamma={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None, out=None, out_err=None) -> int:
    """Run one subcommand; exit 2 on malformed input, 3 on an internal fault."""
    out = out if out is not None else sys.stdout
    out_err = out_err if out_err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(_glue_gamma(sys.argv[1:] if argv is None else argv))
    if args.selftest:
        from .accept import run_all

        return 0 if run_all(stream=out) else 3
    if args.command is None:
        parser.print_usage(out_err)
        return 2
    try:
        data, code = _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=out_err)
        return 2
    except (ConsistencyError, AssertionError, ValueError) as exc:
        where = f" --gamma={args.gamma}" if getattr(args, "gamma", None) else ""
        print(f"internal failure in {args.command}{where}:"
              f" {type(exc).__name__}: {exc}", file=out_err)
        return 3
    out.write(data.decode("utf-8"))
    return code


if __name__ == "__main__":
    sys.exit(main())
