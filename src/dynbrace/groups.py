"""Finite groups as validated Cayley tables over 0-based element indices.

Presets cover every group the enumeration workbench touches: trivial, cyclic(n),
klein4, dihedral(n), sym(n), quaternion8 and direct products of those.  All
arithmetic is exact over element indices; there is no floating point anywhere.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, quote
from .quivers import distinct_names, int_array, name_tuple

#: Orders above this are out of scope for the exhaustive machinery downstream.
MAX_ORDER = 16
#: One dtype for group elements, labels and automorphism indices; every table
#: of a group, its holomorph and the structures over it holds this type.
LABEL_DTYPE = np.int16


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its Cayley table.

    ``table[a, b]`` is the index of the product a*b, in a read-only
    :data:`LABEL_DTYPE` array of shape (order, order).  Presets and
    :func:`build_group` always canonicalise so that element 0 is the identity;
    groups produced by transport (pointed ternary tables, relabellings) may
    carry a different identity index.  Groups compare and hash by identity,
    so the caches keyed by a group hold one entry per group built.
    """

    name: str
    identity: int
    table: np.ndarray
    names: tuple[str, ...]

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    @cached_property
    def inverses(self) -> np.ndarray:
        return _frozen(np.argmax(self.table == self.identity, axis=1).astype(LABEL_DTYPE))

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    @cached_property
    def element_orders(self) -> np.ndarray:
        elements = np.arange(self.order)
        power, orders = elements, np.ones(self.order, dtype=np.intp)
        while (pending := power != self.identity).any():
            power = np.where(pending, self.table[power, elements], power)
            orders += pending
        return _frozen(orders)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _inverse_rows(perms: np.ndarray) -> np.ndarray:
    """The inverse of each permutation along the last axis of ``perms``, in its dtype."""
    inverse = np.zeros_like(perms)
    np.put_along_axis(inverse, perms, np.arange(perms.shape[-1], dtype=perms.dtype), axis=-1)
    return inverse


def _repeats(rows: np.ndarray) -> np.ndarray:
    """``out[i, j]``: whether ``rows[i, j]`` occurs in ``rows[i, :j]``."""
    return np.tril(rows[:, :, None] == rows[:, None, :], -1).any(axis=2)


def validate_table(
    table: Sequence[Sequence[int]] | np.ndarray, identity: int | None = None
) -> tuple[np.ndarray, int]:
    """The list of rows or array ``table`` as a read-only :data:`LABEL_DTYPE`
    array, with its identity index.  Its order is bounded first, then
    :func:`~dynbrace.quivers.int_array` reads it, then the axioms are checked;
    an :class:`InputError` names the first defect, cell or triple."""
    if not isinstance(table, (list, tuple)) and getattr(table, "ndim", 0) == 0:
        raise InputError("group table must be a list of rows")
    n = len(table)
    if n == 0:
        raise InputError("empty table")
    _check_order(n)
    T = int_array(table, "group table", (n, n), 0, n, LABEL_DTYPE)
    # violations ordered by (i, j, row before column), as a cell-by-cell scan meets them
    repeats = np.stack([_repeats(T), _repeats(T.T)], axis=2)
    if repeats.any():
        i, j, by_column = np.argwhere(repeats)[0].tolist()
        line = T.T[i] if by_column else T[i]
        v = int(line[j])
        kind, across = ("column", "rows") if by_column else ("row", "columns")
        raise InputError(
            f"not a Latin square: {kind} {i} repeats value {v} at {across} {int(np.argmax(line == v))} and {j}"
        )
    elements = np.arange(n)
    if identity is None:
        two_sided = (T == elements).all(axis=1) & (T == elements[:, None]).all(axis=0)
        if not two_sided.any():
            raise InputError("no two-sided identity element")
        identity = int(np.argmax(two_sided))
    else:
        fails = (T[identity] != elements) | (T[:, identity] != elements)
        if fails.any():
            raise InputError(f"element {identity} is not an identity: fails at {int(np.argmax(fails))}")
    fails = T[T] != T[:, T]  # (ab)c against a(bc), at [a, b, c]
    if fails.any():
        a, b, c = np.argwhere(fails)[0].tolist()
        raise InputError(f"not associative at triple ({a},{b},{c})")
    # Inverses need no check: in a Latin square with an identity every element
    # has a left and a right inverse, and associativity makes them equal.
    return T, identity


def make_group(
    table: Sequence[Sequence[int]] | np.ndarray,
    name: str = "group",
    names: Sequence[str] | None = None,
    identity: int | None = None,
) -> FiniteGroup:
    """Validate a table and wrap it, keeping the identity index as found."""
    table, ident = validate_table(table, identity)
    n = len(table)
    if names is None:
        names = tuple(str(i) for i in range(n))
    else:
        names = name_tuple(names, "group names")
        if len(names) != n:
            raise InputError(f"{len(names)} element names for order {n}")
        distinct_names(names, "group element")
    return FiniteGroup(name=name, identity=ident, table=table, names=names)


def build_group(spec: str | Mapping) -> FiniteGroup:
    """Build a validated group from a preset spec string or an explicit table.

    String presets: ``trivial``, ``cyclic:n``, ``klein4``, ``dihedral:n``,
    ``sym:n``, ``quaternion8`` and ``prod:<spec>,<spec>,...``.  A mapping must
    carry a ``table`` key and may carry ``name``/``names``.  The result is
    canonicalised so element 0 is the identity.
    """
    if isinstance(spec, str):
        group = _group_from_preset(spec)
    elif isinstance(spec, Mapping):
        group = group_from_json(spec)
    else:
        raise InputError(f"unsupported group spec {quote(spec)}")
    if group.identity != 0:
        swap = np.arange(group.order)  # exchanges 0 and the identity, its own inverse
        swap[[0, group.identity]] = group.identity, 0
        table = swap[group.table[np.ix_(swap, swap)]]
        names = [group.names[i] for i in swap]
        group = make_group(table, name=group.name, names=names, identity=0)
    return group


def _cyclic_table(n):
    elements = np.arange(n)
    return (elements[:, None] + elements) % n


def _dihedral_table(n):
    # element eps*n + i  <->  s^eps r^i, with the relation r s = s r^-1
    eps, i = np.divmod(np.arange(2 * n), n)
    turn = np.where(eps == 1, i - i[:, None], i[:, None] + i) % n
    return (eps[:, None] ^ eps) * n + turn


def _sym_table(n):
    perms = np.array(sorted(itertools.permutations(range(n))))
    weights = n ** np.arange(n - 1, -1, -1)  # sorted permutations have ascending codes
    table = np.searchsorted(perms @ weights, perms[:, perms] @ weights)  # p o q at [p, q]
    names = ["".join(str(v) for v in p) for p in perms.tolist()]
    return table, names


# signed products of the basis 1, i, j, k, each as basis * 2 + (1 if negative)
_QUAT_UNITS = np.array([[0, 2, 4, 6], [2, 1, 6, 5], [4, 7, 1, 2], [6, 4, 3, 1]])


def _quaternion_table():
    # element basis*2 + (0 if positive else 1); names 1,-1,i,-i,j,-j,k,-k
    basis, sign = np.divmod(np.arange(8), 2)
    table = _QUAT_UNITS[basis[:, None], basis] ^ sign[:, None] ^ sign
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return table, names


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product with indices packed as a*|H| + b."""
    n, m = g.order, h.order
    table = (g.table[:, None, :, None] * m + h.table[None, :, None, :]).reshape(n * m, n * m)
    names = [f"({g.names[a]},{h.names[b]})" for a in range(n) for b in range(m)]
    return make_group(table, name=name or f"prod:{g.name},{h.name}", names=names, identity=0)


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise InputError(f"group order {n} exceeds supported maximum {MAX_ORDER}")


def _group_from_preset(text: str) -> FiniteGroup:
    spec = text.strip()
    if spec == "trivial":
        return make_group([[0]], name="trivial", identity=0)
    if spec == "klein4":
        return replace(direct_product(build_group("cyclic:2"), build_group("cyclic:2")), name="klein4")
    if spec == "quaternion8":
        table, names = _quaternion_table()
        return make_group(table, name="quaternion8", names=names, identity=0)
    if spec.startswith("prod:"):
        parts = spec[len("prod:"):].split(",")
        if len(parts) < 2:
            raise InputError(f"product spec needs at least two factors: {quote(text)}")
        groups = [_group_from_preset(p.strip()) for p in parts]
        out = groups[0]
        for h in groups[1:]:
            _check_order(out.order * h.order)  # before the product table is built
            out = direct_product(out, h)
        return replace(out, name=spec)
    if ":" in spec:
        head, _, arg = spec.partition(":")
        try:
            k = int(arg)
        except ValueError:
            raise InputError(f"bad preset parameter in {quote(text)}") from None
        if k < 1:
            raise InputError(f"preset parameter must be positive in {quote(text)}")
        _check_order({"cyclic": k, "dihedral": 2 * k}.get(head, 0))  # before the table is built
        if head == "cyclic":
            return make_group(_cyclic_table(k), name=spec, identity=0)
        if head == "dihedral":
            return make_group(_dihedral_table(k), name=spec, identity=0)
        if head == "sym":
            if k > 3:
                raise InputError(f"sym:{k} has order {math.factorial(k)}, beyond the supported range")
            table, names = _sym_table(k)
            return make_group(table, name=spec, names=names, identity=0)
    raise InputError(f"unknown group spec {quote(text)}")


def is_abelian(group: FiniteGroup) -> bool:
    return bool((group.table == group.table.T).all())


def _generating_words(group: FiniteGroup):
    """Greedy minimal generating sequence plus a derivation of every other element.

    Returns ``(gens, steps)``: each new generator is the least element outside
    the subgroup generated so far, and a step ``(x, y, j)`` says x = y * gens[j],
    or x = gens[j] when y is -1.  Every y is the identity or derived by an
    earlier step.
    """
    gens: list[int] = []
    steps: list[tuple[int, int, int]] = []
    known = [group.identity]
    while len(known) < group.order:
        g = min(set(range(group.order)) - set(known))
        steps.append((g, -1, len(gens)))
        gens.append(g)
        known.append(g)
        while True:
            products, first = np.unique(group.table[np.ix_(known, gens)], return_index=True)
            new = ~np.isin(products, known)
            if not new.any():
                break
            for x, k in zip(products[new].tolist(), first[new].tolist()):
                steps.append((x, known[k // len(gens)], k % len(gens)))
            known.extend(products[new].tolist())
    return gens, steps


def isomorphisms(group: FiniteGroup, other: FiniteGroup) -> np.ndarray:
    """All isomorphisms group -> other as the image rows of a read-only
    ``(m, n)`` :data:`LABEL_DTYPE` array, in lexicographic order.

    Every choice of generator images of matching element orders is extended
    at once along the derivations of :func:`_generating_words`, one int8 image
    row per choice; adequate for the supported orders (C2^4 has 15^4 choices).
    """
    if group.order != other.order:
        return _frozen(np.empty((0, group.order), dtype=LABEL_DTYPE))
    gens, steps = _generating_words(group)
    candidates = [np.flatnonzero(other.element_orders == group.element_orders[g]).tolist() for g in gens]
    choices = np.fromiter(itertools.chain.from_iterable(itertools.product(*candidates)), np.int8)
    img = np.empty((math.prod(map(len, candidates)), group.order), dtype=np.int8)
    img[:, group.identity] = other.identity
    for x, y, j in steps:  # choices[j::len(gens)]: the image of gens[j] in every choice
        img[:, x] = choices[j::len(gens)] if y < 0 else other.table[img[:, y], img[:, gens[j]]]
    # A map built along the derivations is a homomorphism once it respects
    # right multiplication by every generator, and an isomorphism once it is onto.
    ok = (np.sort(img, axis=1) == np.arange(group.order)).all(axis=1)
    for g in gens:
        ok &= (img[:, group.table[:, g]] == other.table[img, img[:, [g]]]).all(axis=1)
    img = img[ok].astype(LABEL_DTYPE)  # distinct rows: each choice is one map
    return _frozen(img[np.lexsort(img.T[::-1])])  # column 0 the primary key


def find_isomorphism(group: FiniteGroup, other: FiniteGroup) -> tuple[int, ...] | None:
    isos = isomorphisms(group, other)
    return tuple(isos[0].tolist()) if len(isos) else None


@lru_cache(maxsize=None)
def automorphism_group(group: FiniteGroup) -> np.ndarray:
    """All automorphisms as the rows of the read-only ``(k, n)`` array of
    :func:`isomorphisms`: ``aut[f, x]`` is f(x), rows in lexicographic order.

    Row 0 is always the identity automorphism, the least permutation.
    """
    auts = isomorphisms(group, group)
    if not (len(auts) and (auts[0] == np.arange(group.order)).all()):
        raise AssertionError("row 0 of the automorphisms is not the identity")
    return auts


def group_to_json(group: FiniteGroup) -> dict:
    """The document :func:`group_from_json` reads, its ``table`` the group's
    read-only array, which the CLI's writer lays out as the list of rows."""
    return {"name": group.name, "order": group.order, "identity": group.identity, "table": group.table}


def group_from_json(data: Mapping) -> FiniteGroup:
    """The group of a ``{"table", "name"?, "names"?, "order"?, "identity"?}``
    object, validated once and not relabelled: the identity keeps its index in
    ``table``.  An ``order`` or ``identity`` given must be the table's."""
    if not isinstance(data, Mapping) or "table" not in data:
        raise InputError("group JSON needs a 'table' key")
    name = data.get("name", "group")
    if not isinstance(name, str):
        raise InputError("group name must be a string")
    group = make_group(data["table"], name=name, names=data.get("names"))
    for key in ("order", "identity"):
        value, actual = data.get(key, getattr(group, key)), getattr(group, key)
        if type(value) is not int or value != actual:
            raise InputError(f"group {key} is {quote(value)}, but its table has {key} {actual}")
    return group


# Preset names used when reporting "this pointed group is isomorphic to ...".
_REPORT_PRESETS = (
    "trivial",
    "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "cyclic:7",
    "cyclic:8", "cyclic:9", "cyclic:10", "cyclic:12", "cyclic:16",
    "klein4",
    "prod:cyclic:2,cyclic:4", "prod:cyclic:2,cyclic:2,cyclic:2",
    "prod:cyclic:2,cyclic:6", "prod:cyclic:4,cyclic:4", "prod:cyclic:2,cyclic:8",
    "sym:3", "dihedral:4", "dihedral:5", "dihedral:6", "dihedral:7", "dihedral:8",
    "quaternion8",
)


def preset_isomorphism_report(group: FiniteGroup) -> str | None:
    """Name of the first preset isomorphic to ``group``, or None."""
    for name in _REPORT_PRESETS:
        try:
            candidate = build_group(name)
        except InputError:
            continue
        if candidate.order != group.order:
            continue
        if find_isomorphism(group, candidate) is not None:
            return name
    return None
