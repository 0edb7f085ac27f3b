"""Aut(A) as one array of permutations of A, composed by key lookup.

The vertices of every enumerated quiver are regular subsets of the holomorph
Hol(A) = A x| Aut(A): one automorphism index per element of A, packed into
keys by :mod:`~dynbrace.enumeration`.  An automorphism index f is row f of
:func:`~dynbrace.groups.automorphism_group`, whose rows are in lexicographic
order.  Each row packs big-endian into one uint64 key, 4 bits per point (the
order is at most :data:`~dynbrace.groups.MAX_ORDER` = 16), so key order is row
order, and ``searchsorted`` of a composite's key is the composite's index.
Composites are looked up when asked for; no ``(k, k)`` table is kept, so the
holomorph of C2^4 (k = 20,160) costs a few megabytes.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .groups import LABEL_DTYPE, FiniteGroup, _frozen, _inverse_rows, automorphism_group

#: Default bound on the size of an assignment key space; CLI-overridable.
DEFAULT_CAP = 10**8


@lru_cache(maxsize=None)
def holomorph(group: FiniteGroup) -> "Holomorph":
    return Holomorph(group)


def _pack(rows: np.ndarray) -> np.ndarray:
    """One uint64 key per row of points below 16, the first point highest."""
    shifts = np.arange(4 * (rows.shape[-1] - 1), -1, -4, dtype=np.uint64)
    return (rows.astype(np.uint64) << shifts).sum(axis=-1, dtype=np.uint64)


class Holomorph:
    """Aut(A) acting on A: ``act[f, x]`` is f(x) and ``ainv[f]`` the index of
    f^-1, read-only :data:`~dynbrace.groups.LABEL_DTYPE` arrays over the
    automorphism indices of :func:`~dynbrace.groups.automorphism_group`;
    :meth:`compose` gives the index of f o g.
    """

    def __init__(self, group: FiniteGroup):
        self.act = automorphism_group(group)
        self._keys = _pack(self.act)
        self.ainv = _frozen(self._index(_inverse_rows(self.act)))

    def _index(self, rows: np.ndarray) -> np.ndarray:
        """The automorphism index of each image row in ``rows``."""
        keys = _pack(rows)
        index = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        if not (self._keys[index] == keys).all():
            raise AssertionError("an image row is not an automorphism")
        return index.astype(LABEL_DTYPE)

    def compose(self, f, g) -> np.ndarray:
        """The index of f o g for broadcast index arrays ``f`` and ``g``."""
        return self._index(self.act[np.asarray(f)[..., None], self.act[g]])
