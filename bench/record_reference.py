#!/usr/bin/env python3
"""Record bench/reference.json: the expected outputs for every pool gamma.

    python3 bench/record_reference.py

For each base gamma of each workload pool it stores the SHA-256 of the JSON
report (`parse_gamma` -> `compute` -> `render(..., "json")`) and of the
canonical slice_detailed serialisation, plus the digest of
`verify-window --json`.  Run it only at a commit whose outputs are trusted;
the benchmark counts every later difference as a failed operation.
"""

from __future__ import annotations

import io
import json

import run as bench


def main() -> None:
    reference = {}
    for workload in bench.WORKLOADS:
        entries = {}
        for g1, g2, _ in bench.pool(workload):
            text = bench.gamma_text(g1, g2)
            entries[text] = {
                "report": bench.sha256(bench.pipeline_op(text)),
                "slice": bench.sha256(bench.slice_bytes(bench.slice_op(text))),
            }
        reference[workload] = entries
    out = io.StringIO()
    if bench.cli.main(["verify-window", "--json"], out, io.StringIO()) != 0:
        raise SystemExit("verify-window failed")
    reference["verify-window"] = bench.sha256(out.getvalue().encode("utf-8"))
    with open(bench.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
