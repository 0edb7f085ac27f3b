"""Finite groups as validated Cayley tables over 0-based element indices.

Presets cover every group the enumeration workbench touches: trivial, cyclic(n),
klein4, dihedral(n), sym(n), quaternion8 and direct products of those.  All
arithmetic is exact over element indices; there is no floating point anywhere.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .errors import InputError

#: Orders above this are out of scope for the exhaustive machinery downstream.
MAX_ORDER = 16


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table.

    ``table[a][b]`` is the index of the product a*b.  Presets and
    :func:`build_group` always canonicalise so that element 0 is the identity;
    groups produced by transport (pointed ternary tables, relabellings) may
    carry a different identity index.
    """

    name: str
    order: int
    identity: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        inv = [-1] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.table[a][b] == self.identity and self.table[b][a] == self.identity:
                    inv[a] = b
                    break
        return tuple(inv)

    def inv(self, a: int) -> int:
        return self.inverses[a]

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        out = []
        for a in range(self.order):
            x, k = a, 1
            while x != self.identity:
                x = self.table[x][a]
                k += 1
            out.append(k)
        return tuple(out)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class Automorphism:
    """A group automorphism recorded as the image array on element indices."""

    images: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.images[a]


def validate_table(table: Sequence[Sequence[int]], identity: int | None = None) -> int:
    """Check the group axioms on a raw table, returning the identity index.

    Raises :class:`InputError` for a table that is not a list of rows, an order
    above :data:`MAX_ORDER`, or naming the first violating cell or triple.
    """
    if not isinstance(table, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in table):
        raise InputError("group table must be a list of rows")
    n = len(table)
    if n == 0:
        raise InputError("empty table")
    if n > MAX_ORDER:
        raise InputError(f"group order {n} exceeds supported maximum {MAX_ORDER}")
    for i, row in enumerate(table):
        if len(row) != n:
            raise InputError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                raise InputError(f"cell [{i}][{j}] = {v!r} out of range [0,{n})")
    for i in range(n):
        seen_row: dict[int, int] = {}
        seen_col: dict[int, int] = {}
        for j in range(n):
            v = table[i][j]
            if v in seen_row:
                raise InputError(
                    f"not a Latin square: row {i} repeats value {v} at columns {seen_row[v]} and {j}"
                )
            seen_row[v] = j
            w = table[j][i]
            if w in seen_col:
                raise InputError(
                    f"not a Latin square: column {i} repeats value {w} at rows {seen_col[w]} and {j}"
                )
            seen_col[w] = j
    if identity is None:
        identity = -1
        for e in range(n):
            if all(table[e][a] == a and table[a][e] == a for a in range(n)):
                identity = e
                break
        if identity < 0:
            raise InputError("no two-sided identity element")
    else:
        for a in range(n):
            if table[identity][a] != a or table[a][identity] != a:
                raise InputError(f"element {identity} is not an identity: fails at {a}")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise InputError(f"not associative at triple ({a},{b},{c})")
    for a in range(n):
        if not any(table[a][b] == identity and table[b][a] == identity for b in range(n)):
            raise InputError(f"element {a} has no two-sided inverse")
    return identity


def make_group(
    table: Sequence[Sequence[int]],
    name: str = "group",
    names: Sequence[str] | None = None,
    identity: int | None = None,
) -> FiniteGroup:
    """Validate a raw table and wrap it, keeping the identity index as found."""
    ident = validate_table(table, identity)
    n = len(table)
    if names is None:
        names = tuple(str(i) for i in range(n))
    else:
        if not isinstance(names, (list, tuple)) or not all(isinstance(x, str) for x in names):
            raise InputError("group names must be a list of strings")
        names = tuple(names)
        if len(names) != n:
            raise InputError(f"{len(names)} element names for order {n}")
        dup = next((x for k, x in enumerate(names) if x in names[:k]), None)
        if dup is not None:
            raise InputError(f"duplicate group element name {dup!r}")
    return FiniteGroup(
        name=name,
        order=n,
        identity=ident,
        table=tuple(tuple(int(v) for v in row) for row in table),
        names=names,
    )


def _relabel(table, names, perm):
    """Apply the relabelling old -> perm[old] to a table and name list."""
    n = len(table)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    new_table = [[perm[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    new_names = [names[inv[i]] for i in range(n)]
    return new_table, new_names


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
        raise InputError(f"unsupported group spec {spec!r}")
    if group.identity != 0:
        perm = list(range(group.order))
        perm[0], perm[group.identity] = perm[group.identity], perm[0]
        table, names = _relabel(group.table, group.names, perm)
        group = make_group(table, name=group.name, names=names, identity=0)
    return group


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral_table(n):
    # element eps*n + i  <->  s^eps r^i, with the relation r s = s r^-1
    def mul(x, y):
        e1, i1 = divmod(x, n)
        e2, i2 = divmod(y, n)
        i = (i2 - i1) % n if e2 else (i1 + i2) % n
        return (e1 ^ e2) * n + i

    size = 2 * n
    return [[mul(x, y) for y in range(size)] for x in range(size)]


def _sym_table(n):
    perms = sorted(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    names = ["".join(str(v) for v in p) for p in perms]
    return table, names


_QUAT_BASIS = {  # (basis1, basis2) -> (sign, basis) over 1,i,j,k
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def _quaternion_table():
    # element basis*2 + (0 if positive else 1); names 1,-1,i,-i,j,-j,k,-k
    def mul(x, y):
        b1, s1 = divmod(x, 2)
        b2, s2 = divmod(y, 2)
        sign, basis = _QUAT_BASIS[(b1, b2)]
        neg = (s1 + s2 + (1 if sign < 0 else 0)) % 2
        return basis * 2 + neg

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return table, names


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product with indices packed as a*|H| + b."""
    n, m = g.order, h.order
    table = [
        [
            g.table[a1][a2] * m + h.table[b1][b2]
            for a2 in range(n)
            for b2 in range(m)
        ]
        for a1 in range(n)
        for b1 in range(m)
    ]
    names = [f"({g.names[a]},{h.names[b]})" for a in range(n) for b in range(m)]
    return make_group(table, name=name or f"prod:{g.name},{h.name}", names=names, identity=0)


def _group_from_preset(text: str) -> FiniteGroup:
    spec = text.strip()
    if spec == "trivial":
        return make_group([[0]], name="trivial", identity=0)
    if spec == "klein4":
        g = direct_product(build_group("cyclic:2"), build_group("cyclic:2"))
        return FiniteGroup("klein4", g.order, g.identity, g.table, g.names)
    if spec == "quaternion8":
        table, names = _quaternion_table()
        return make_group(table, name="quaternion8", names=names, identity=0)
    if spec.startswith("prod:"):
        parts = spec[len("prod:"):].split(",")
        if len(parts) < 2:
            raise InputError(f"product spec needs at least two factors: {text!r}")
        groups = [_group_from_preset(p.strip()) for p in parts]
        out = groups[0]
        for h in groups[1:]:
            out = direct_product(out, h)
        return FiniteGroup(spec, out.order, out.identity, out.table, out.names)
    if ":" in spec:
        head, _, arg = spec.partition(":")
        try:
            k = int(arg)
        except ValueError:
            raise InputError(f"bad preset parameter in {text!r}") from None
        if k < 1:
            raise InputError(f"preset parameter must be positive in {text!r}")
        if head == "cyclic":
            return make_group(_cyclic_table(k), name=spec, identity=0)
        if head == "dihedral":
            return make_group(_dihedral_table(k), name=spec, identity=0)
        if head == "sym":
            if k > 3:
                raise InputError(f"sym:{k} has order {_factorial(k)}, beyond the supported range")
            table, names = _sym_table(k)
            return make_group(table, name=spec, names=names, identity=0)
    raise InputError(f"unknown group spec {text!r}")


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def is_abelian(group: FiniteGroup) -> bool:
    t = group.table
    return all(t[a][b] == t[b][a] for a in range(group.order) for b in range(group.order))


def _generating_words(group: FiniteGroup):
    """Greedy minimal generating sequence plus, for every element, a derivation.

    Returns ``(gens, parent)`` where ``parent[x]`` is either ``("gen", j)`` or
    ``("mul", y, j)`` meaning x = y * gens[j]; the identity has no entry.
    """
    n = group.order
    gens: list[int] = []
    parent: dict[int, tuple] = {}
    known = {group.identity}
    while len(known) < n:
        g = min(x for x in range(n) if x not in known)
        gens.append(g)
        j = len(gens) - 1
        parent[g] = ("gen", j)
        frontier = [g]
        known.add(g)
        while frontier:
            new = []
            for y in list(known):
                for jj, gg in enumerate(gens):
                    z = group.table[y][gg]
                    if z not in known:
                        parent[z] = ("mul", y, jj)
                        known.add(z)
                        new.append(z)
            frontier = new
    return gens, parent


def _extend_images(group: FiniteGroup, other: FiniteGroup, gens, parent, gen_images):
    """Extend generator images to a full map using the recorded derivations."""
    n = group.order
    img = [-1] * n
    img[group.identity] = other.identity

    def resolve(x):
        if img[x] >= 0:
            return img[x]
        kind = parent[x]
        if kind[0] == "gen":
            val = gen_images[kind[1]]
        else:
            _, y, j = kind
            val = other.table[resolve(y)][gen_images[j]]
        img[x] = val
        return val

    for x in range(n):
        resolve(x)
    return img


def _homomorphic_bijection(group: FiniteGroup, other: FiniteGroup, img) -> bool:
    n = group.order
    if len(set(img)) != n:
        return False
    t, u = group.table, other.table
    for a in range(n):
        ia = img[a]
        ra = t[a]
        for b in range(n):
            if img[ra[b]] != u[ia][img[b]]:
                return False
    return True


def isomorphisms(group: FiniteGroup, other: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All isomorphisms group -> other as image tuples, in lexicographic order.

    Brute force over identity-fixing maps, pruned by element order on a
    minimal generating sequence; adequate for the supported orders.
    """
    if group.order != other.order:
        return ()
    gens, parent = _generating_words(group)
    orders_g = group.element_orders
    orders_h = other.element_orders
    candidates = [
        [x for x in range(other.order) if orders_h[x] == orders_g[g]]
        for g in gens
    ]
    found = []
    for gen_images in itertools.product(*candidates):
        img = _extend_images(group, other, gens, parent, gen_images)
        if _homomorphic_bijection(group, other, img):
            found.append(tuple(img))
    return tuple(sorted(set(found)))


def find_isomorphism(group: FiniteGroup, other: FiniteGroup) -> tuple[int, ...] | None:
    isos = isomorphisms(group, other)
    return isos[0] if isos else None


@lru_cache(maxsize=None)
def automorphism_group(group: FiniteGroup) -> tuple[Automorphism, ...]:
    """All automorphisms, deduplicated, ordered lexicographically by images.

    Index 0 is always the identity automorphism.
    """
    auts = tuple(Automorphism(img) for img in isomorphisms(group, group))
    assert auts and auts[0].images == tuple(range(group.order))
    return auts


def group_to_json(group: FiniteGroup) -> dict:
    return {
        "name": group.name,
        "order": group.order,
        "identity": group.identity,
        "table": [list(row) for row in group.table],
    }


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
            raise InputError(f"group {key} is {value!r}, but its table has {key} {actual}")
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
