"""Arithmetic in the semidirect product of A by Aut(A), regular subsets, orbits.

A regular subset assigns one automorphism to each group element; it is the
vertex type of every enumerated quiver in this package.  Translating a regular
subset by one of its own pairs is the transition step that generates the
dynamical families.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InputError, ResourceCapError
from .groups import LABEL_DTYPE, Automorphism, FiniteGroup, _frozen, automorphism_group

#: Default bound on closure/enumeration sizes; CLI-overridable.
DEFAULT_CAP = 10**8


class HolElement(NamedTuple):
    """A pair (group element, automorphism index into the canonical order)."""

    elem: int
    aut: int


@lru_cache(maxsize=None)
def holomorph(group: FiniteGroup) -> "Holomorph":
    return Holomorph(group)


class Holomorph:
    """Evaluation, composition and inverse tables for Aut(A) acting on A.

    Read-only :data:`~dynbrace.groups.LABEL_DTYPE` arrays over the automorphism
    indices of :func:`~dynbrace.groups.automorphism_group`: ``act[f, x]`` is
    f(x), ``comp[f, g]`` the index of f o g and ``ainv[f]`` that of f^-1.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.auts: tuple[Automorphism, ...] = automorphism_group(group)
        act = np.array([a.images for a in self.auts], dtype=LABEL_DTYPE)
        k = len(self.auts)
        # the automorphisms are sorted rows, so a composite's rank among the
        # sorted distinct composites is its index
        _, comp = np.unique(act[:, act].reshape(k * k, group.order), axis=0, return_inverse=True)
        self.act = _frozen(act)
        self.comp = _frozen(comp.reshape(k, k).astype(LABEL_DTYPE))
        self.ainv = _frozen(np.argmax(self.comp == 0, axis=1).astype(LABEL_DTYPE))

    @property
    def size(self) -> int:
        return self.group.order * len(self.auts)


def hol_mul(x: HolElement, y: HolElement, group: FiniteGroup) -> HolElement:
    """(a,f)*(b,g) = (a*f(b), f o g)."""
    hol = holomorph(group)
    a, f = x
    b, g = y
    return HolElement(group.mul(a, hol.act[f, b]), int(hol.comp[f, g]))


def hol_inv(x: HolElement, group: FiniteGroup) -> HolElement:
    """(a,f)^-1 = (f^-1(a^-1), f^-1)."""
    hol = holomorph(group)
    a, f = x
    fi = int(hol.ainv[f])
    return HolElement(int(hol.act[fi, group.inv(a)]), fi)


@dataclass(frozen=True, order=True)
class RegularSubset:
    """One automorphism index per group element: the subset {(a, f_a) : a in A}.

    The array form makes regularity structural; the subset is unital exactly
    when the identity element carries the identity automorphism.
    """

    assignment: tuple[int, ...]

    def describe(self) -> str:
        return ",".join(str(f) for f in self.assignment)


def check_regular_subset(subset: RegularSubset, group: FiniteGroup) -> None:
    hol = holomorph(group)
    if len(subset.assignment) != group.order:
        raise InputError(
            f"assignment length {len(subset.assignment)} for group of order {group.order}"
        )
    k = len(hol.auts)
    for a, f in enumerate(subset.assignment):
        if not (0 <= f < k):
            raise InputError(f"automorphism index {f} at element {a} out of range [0,{k})")


def translate(subset: RegularSubset, a: int, group: FiniteGroup) -> RegularSubset:
    """The regular subset {(a, f_a)^-1 * (b, f_b) : b in A}.

    The image is automatically regular; this is asserted, a failure indicates
    a bug rather than bad input.
    """
    hol = holomorph(group)
    if not (0 <= a < group.order):
        raise InputError(f"element {a} out of range for order {group.order}")
    fi = hol.ainv[subset.assignment[a]]
    out = np.full(group.order, -1, dtype=LABEL_DTYPE)
    out[hol.act[fi, group.table[group.inverses[a]]]] = hol.comp[fi, list(subset.assignment)]
    assert (out >= 0).all(), "translation image failed regularity"
    return RegularSubset(tuple(out.tolist()))


def orbit_closure(
    seed: RegularSubset, group: FiniteGroup, cap: int = DEFAULT_CAP
) -> tuple[RegularSubset, ...]:
    """Smallest set containing ``seed`` closed under translation by every element.

    Returned in canonical order (lexicographic on assignments).
    """
    check_regular_subset(seed, group)
    seen = {seed.assignment}
    frontier = [seed]
    while frontier:
        nxt = []
        for s in frontier:
            for a in range(group.order):
                t = translate(s, a, group)
                if t.assignment not in seen:
                    if len(seen) >= cap:
                        raise ResourceCapError(len(seen) + 1, cap, "subsets in closure")
                    seen.add(t.assignment)
                    nxt.append(t)
        frontier = nxt
    return tuple(RegularSubset(x) for x in sorted(seen))

