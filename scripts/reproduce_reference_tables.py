#!/usr/bin/env python3
"""Rebuild the bundled order-3 and order-4 reference families end to end.

Prints the quiver components, the per-vertex product tables, every braiding
move that is not the identity, and the ternary table of the degree-one
component with its pointed groups.  Everything here is recomputed from the
group data alone; nothing is read from stored tables.
"""
from __future__ import annotations

import argparse

import numpy as np

from dynbrace.enumeration import component_dsb, enumerate_unital
from dynbrace.families import seeded_names
from dynbrace.groups import build_group, preset_isomorphism_report
from dynbrace.parallelise import group_from_pointed_heap, ternary_of_braiding
from dynbrace.structures import braiding_of_qtsb, semiloopoid_of_dsb, verify_bracoid, verify_dsb


def show_family(name: str) -> None:
    group = build_group(name)
    result = enumerate_unital(group, seeded_names(name, False))
    print(f"== {name}: {result.vertex_count} vertices, {result.components.count} components ==")
    for cid, members in enumerate(result.components.members):
        labels = " ".join(result.vertex_names[v] for v in members)
        print(f"  component {cid} (degree {result.components.degrees[cid]}): {labels}")
    for vname in result.vertex_names:
        print(f"  table at {vname}: {result.dsb.op_table(vname).tolist()}")
    verify_dsb(result.dsb).require("not a dynamical skew brace")
    bracoid = semiloopoid_of_dsb(result.dsb)
    verify_bracoid(bracoid).require("not a skew bracoid")
    braiding = braiding_of_qtsb(bracoid)
    n = group.order
    moves = []
    for v, vname in enumerate(result.vertex_names):
        for a in range(n):
            for b in range(n):
                r, l = int(braiding.right[v, a, b]), int(braiding.left[v, a, b])
                if (r, l) != (a, b):
                    moves.append(f"[{vname}|{a}|{b}] -> [{vname}|{r}|{l}]")
    print(f"  braiding: {len(moves)} moved paths")
    for move in moves:
        print(f"    {move}")


def show_degree_one_component(name: str) -> None:
    group = build_group(name)
    result = enumerate_unital(group, seeded_names(name, False))
    for cid, members in enumerate(result.components.members):
        if result.components.degrees[cid] != 1 or len(members) < 2:
            continue
        sub = component_dsb(result, cid)
        verify_dsb(sub).require("not a dynamical skew brace")
        bracoid = semiloopoid_of_dsb(sub)
        verify_bracoid(bracoid).require("not a skew bracoid")
        braiding = braiding_of_qtsb(bracoid)
        heap = ternary_of_braiding(bracoid, braiding)
        print(f"== degree-one component of {name}: {' '.join(heap.names)} ==")
        m = heap.size
        for a in range(m):
            for b in range(m):
                row = " ".join(heap.names[int(heap.table[a, b, c])] for c in range(m))
                print(f"  <{heap.names[a]},{heap.names[b]},.> = {row}")
        for zeta in range(m):
            grp = group_from_pointed_heap(heap, zeta)
            iso = preset_isomorphism_report(grp) or "?"
            row = np.asarray(bracoid.phi[zeta])
            labelling = {heap.names[v]: int(np.argwhere(row == v)[0][0]) for v in range(m)}
            print(f"  pointed at {heap.names[zeta]}: isomorphic to {iso}, labelling {labelling}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--groups", nargs="*", default=["cyclic:3", "cyclic:4"])
    args = parser.parse_args()
    for name in args.groups:
        show_family(name)
        show_degree_one_component(name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
