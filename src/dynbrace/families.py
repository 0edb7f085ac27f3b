"""Bundled reference families over the cyclic groups of order 3 and 4.

These are the small worked families used throughout the tests and by the
``--seed-examples`` flag: each name pins one regular subset by its
automorphism assignment (index 0 the identity, index 1 the negation map).
"""
from __future__ import annotations

# unital vertices of the order-3 family
CYCLIC3_UNITAL = {
    "s0": (0, 0, 0),
    "s1": (0, 1, 0),
    "s2": (0, 0, 1),
    "s3": (0, 1, 1),
}

# initial vertices of the order-3 family
CYCLIC3_INITIAL = {
    "r0": (1, 1, 1),
    "r1": (1, 1, 0),
    "r2": (1, 0, 1),
    "r3": (1, 0, 0),
}

# unital vertices of the order-4 family
CYCLIC4_UNITAL = {
    "s0": (0, 0, 0, 0),
    "s1": (0, 1, 0, 1),
    "s2": (0, 0, 1, 1),
    "s3": (0, 1, 1, 0),
    "s4": (0, 1, 0, 0),
    "s5": (0, 0, 1, 0),
    "s6": (0, 0, 0, 1),
    "s7": (0, 1, 1, 1),
}

_SEEDED = {
    "cyclic:3": (CYCLIC3_UNITAL, CYCLIC3_INITIAL),
    "cyclic:4": (CYCLIC4_UNITAL, None),
}


def seeded_names(group_name: str, full: bool) -> dict[tuple[int, ...], str]:
    """Assignment -> display name for the bundled families; empty if unknown."""
    entry = _SEEDED.get(group_name)
    if entry is None:
        return {}
    unital, initial = entry
    out = {tuple(v): k for k, v in unital.items()}
    if full and initial:
        out.update({tuple(v): k for k, v in initial.items()})
    return out

