"""Reference work that measures the host's speed, independent of the program.

On a shared host the cores run faster or slower from one stretch of
seconds to the next, because of load outside the benchmark.  The benchmark
runs this work next to its own measurements and divides by its time, so
that a change of host speed between runs cancels out.  Nothing here
imports tilecohom, so no change to the program can move it.

    python3 bench/hostref.py

is the reference child: interpreter start-up, the standard-library modules
that the CLI imports, and one kernel() call, as a CLI call is start-up,
imports and one report.
"""

from __future__ import annotations

import argparse  # noqa: F401 - imported for its cost, as the CLI does
import itertools  # noqa: F401
import json  # noqa: F401
import re  # noqa: F401
from dataclasses import dataclass
from enum import Enum  # noqa: F401
from fractions import Fraction
from functools import lru_cache, total_ordering  # noqa: F401

DENOMINATORS = (3, 5, 6, 7, 9, 11, 13)
KERNEL_POINTS = 1000  # about 15 ms on an idle 2-core x86_64 VM, Python 3.11
CHILD_POINTS = 3000


@dataclass(frozen=True)
class Point:
    u: Fraction
    v: Fraction


def kernel(points: int = KERNEL_POINTS) -> int:
    """Fraction points reduced mod 1 and hashed into a set and a dict.

    This is the shape of the program's hot path, the coset tables of
    pointorbits.build_tables.
    """
    seen, table = set(), {}
    for i in range(points):
        u = Fraction(i * 7 % 97, DENOMINATORS[i % 7]) - Fraction(i % 5, 3)
        v = Fraction(i % 31, DENOMINATORS[(i + 3) % 7])
        point = Point(u % 1, v % 1)
        seen.add(point)
        table.setdefault(point, []).append(i)
    return len(seen)


if __name__ == "__main__":
    print(kernel(CHILD_POINTS))
