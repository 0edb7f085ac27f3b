#!/usr/bin/env python3
"""Sweep the component-size census over a list of group presets with timings
and the peak of memory the census allocates (``tracemalloc``, in MB).

Usage:
    python scripts/invariants_sweep.py
    python scripts/invariants_sweep.py --groups cyclic:3 dihedral:4 --cap 10000000

A group whose census is over ``--cap`` prints the cap error on its own line.
"""
from __future__ import annotations

import argparse
import time
import tracemalloc

from dynbrace.enumeration import invariants
from dynbrace.errors import ResourceCapError
from dynbrace.groups import automorphism_group, build_group
from dynbrace.holomorph import DEFAULT_CAP

DEFAULT_GROUPS = [
    "trivial",
    "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "cyclic:7", "cyclic:8",
    "klein4",
    "prod:cyclic:2,cyclic:4",
    "sym:3",
    "dihedral:3", "dihedral:4",
    "quaternion8",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--groups", nargs="*", default=DEFAULT_GROUPS)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    args = parser.parse_args()

    print(f"{'group':<24} {'|A|':>4} {'|Aut|':>6} {'space':>10} {'N_s':<28} {'time':>8} {'peak':>9}")
    for name in args.groups:
        group = build_group(name)
        radix = len(automorphism_group(group))
        space = radix ** (group.order - 1)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            table = invariants(group, cap=args.cap)
        except ResourceCapError as exc:
            print(f"{name:<24} {group.order:>4} {radix:>6} {space:>10}  {exc}")
            continue
        finally:
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        census = " ".join(f"N_{s}={c}" for s, c in table.counts.items())
        print(f"{name:<24} {group.order:>4} {radix:>6} {space:>10} {census:<28} {elapsed:>7.2f}s {peak:>7.2f}MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
