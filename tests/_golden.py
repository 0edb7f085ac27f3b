"""Frozen expected values for the worked order-3 and order-4 families, the
list-form JSON encoders that serve as the stdlib oracle, the pure-Python
group-table checks, isomorphism search and holomorph tables that the array
code in ``groups`` and ``holomorph`` must agree with, and the scalar
translation of regular subsets that the key-space kernel must agree with.

A regular subset {(a, f_a) : a in A} of Hol(A) is given here by its
assignment, the tuple of automorphism indices f_a.

The per-vertex product tables are derived from the reference subset listings
(product of a with the assigned automorphism applied to b) and cross-checked
against the reference braiding action and quiver drawings; unlisted two-step
paths are fixed by the braiding.

``json.dumps(dsb_to_json(dsb), indent=2, sort_keys=True)`` is, byte for
byte, what the CLI's array writer must emit for a structure; likewise for
the bracoid and quiver encoders.  They build every table as nested lists, so
they are kept for tests on small families only.
"""
import itertools
from collections import Counter
from collections.abc import Mapping
from functools import lru_cache

import numpy as np

from dynbrace.errors import InputError
from dynbrace.families import seeded_names
from dynbrace.groups import MAX_ORDER, automorphism_group, build_group, group_to_json
from dynbrace.structures import LABEL_DTYPE, VERTEX_DTYPE, dsb_ops, make_dsb


def group_list_json(group) -> dict:
    return dict(group_to_json(group), table=group.table.tolist())


def dsb_to_json(dsb) -> dict:
    return {
        "group": group_list_json(dsb.group),
        "vertices": list(dsb.vertex_names),
        "phi": dsb.phi.tolist(),
        "ops": dict(zip(dsb.vertex_names, dsb.ops.tolist())),
    }


def bracoid_to_json(bracoid, group=None) -> dict:
    out = {
        "vertices": list(bracoid.vertex_names),
        "labels": list(bracoid.label_names),
        "phi": bracoid.phi.tolist(),
        "ops": dict(zip(bracoid.vertex_names, bracoid.bullet.tolist())),
        "dot": dict(zip(bracoid.vertex_names, bracoid.dot.tolist())),
        "units": {
            name: unit
            for name, unit, unital in zip(
                bracoid.vertex_names, bracoid.units.tolist(), bracoid.unital.tolist()
            )
            if unital
        },
    }
    if group is not None:
        out["group"] = group_list_json(group)
    return out


def quiver_to_json(quiver) -> dict:
    return {
        "vertices": list(quiver.vertex_names),
        "labels": list(quiver.label_names),
        "phi": quiver.phi.tolist(),
    }


def validate_table(table, identity=None) -> int:
    """The identity index of a raw table, checked cell by cell, or the
    InputError naming the first violation."""
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


def _element_orders(table, identity):
    out = []
    for a in range(len(table)):
        x, k = a, 1
        while x != identity:
            x = table[x][a]
            k += 1
        out.append(k)
    return out


def _generating_words(table, identity):
    """Greedy generators and a derivation ("gen", j) or ("mul", y, j) per element."""
    n = len(table)
    gens, parent, known = [], {}, {identity}
    while len(known) < n:
        g = min(x for x in range(n) if x not in known)
        gens.append(g)
        parent[g] = ("gen", len(gens) - 1)
        known.add(g)
        frontier = [g]
        while frontier:
            new = []
            for y in list(known):
                for jj, gg in enumerate(gens):
                    z = table[y][gg]
                    if z not in known:
                        parent[z] = ("mul", y, jj)
                        known.add(z)
                        new.append(z)
            frontier = new
    return gens, parent


def _extend_images(n, identity, other, other_identity, parent, gen_images):
    img = [-1] * n
    img[identity] = other_identity

    def resolve(x):
        if img[x] < 0:
            kind = parent[x]
            img[x] = gen_images[kind[1]] if kind[0] == "gen" else other[resolve(kind[1])][gen_images[kind[2]]]
        return img[x]

    for x in range(n):
        resolve(x)
    return img


def isomorphisms(group, other) -> tuple[tuple[int, ...], ...]:
    """Every group -> other isomorphism: each choice of generator images of
    matching orders extended one element at a time, then checked on the whole
    table; lexicographic order."""
    if group.order != other.order:
        return ()
    t, u, n = group.table.tolist(), other.table.tolist(), group.order
    gens, parent = _generating_words(t, group.identity)
    orders_g, orders_h = _element_orders(t, group.identity), _element_orders(u, other.identity)
    candidates = [[x for x in range(n) if orders_h[x] == orders_g[g]] for g in gens]
    found = set()
    for gen_images in itertools.product(*candidates):
        img = _extend_images(n, group.identity, u, other.identity, parent, gen_images)
        if len(set(img)) == n and all(img[t[a][b]] == u[img[a]][img[b]] for a in range(n) for b in range(n)):
            found.add(tuple(img))
    return tuple(sorted(found))


def holomorph_tables(images):
    """``(comp, ainv)`` of the automorphisms ``images`` (sorted image tuples),
    by looking each composite up in a dict."""
    n, k = len(images[0]), len(images)
    index = {img: f for f, img in enumerate(images)}
    comp = [[index[tuple(images[f][images[g][x]] for x in range(n))] for g in range(k)] for f in range(k)]
    ainv = [comp[f].index(0) for f in range(k)]
    return comp, ainv


@lru_cache(maxsize=None)
def _automorphisms(group):
    """The image tuples of Aut(group) and the index of each."""
    images = [tuple(row) for row in automorphism_group(group).tolist()]
    return images, {img: f for f, img in enumerate(images)}


def translate(assignment, a, group) -> tuple[int, ...]:
    """The assignment of {(a, f_a)^-1 * (b, f_b) : b in A}, pair by pair:
    (a, f)^-1 * (b, d) = (f^-1(a^-1 b), f^-1 o d)."""
    images, index = _automorphisms(group)
    f = images[assignment[a]]
    fi = [0] * group.order
    for x, y in enumerate(f):
        fi[y] = x
    out = [None] * group.order
    for b, d in enumerate(assignment):
        out[fi[group.mul(group.inv(a), b)]] = index[tuple(fi[y] for y in images[d])]
    assert None not in out, "translation image failed regularity"
    return tuple(out)


def orbit_closure(seed, group) -> tuple[tuple[int, ...], ...]:
    """The least translation-closed set of assignments holding ``seed``, sorted."""
    seen = {tuple(seed)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for s in frontier:
            for a in range(group.order):
                t = translate(s, a, group)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return tuple(sorted(seen))


def dsb_from_subgroup_family(group, family):
    """The dynamical skew brace of a translation-closed family of assignments,
    its arrows found by :func:`translate`.

    Vertices come out in lexicographic order of assignments; a mapping from
    names to assignments supplies the names, otherwise they are s0, s1, ...
    A family that is not closed under translation is rejected with a witness.
    """
    name_of = {tuple(v): str(name) for name, v in family.items()} if isinstance(family, Mapping) else {}
    subsets = sorted(set(map(tuple, family.values() if isinstance(family, Mapping) else family)))
    index = {s: k for k, s in enumerate(subsets)}
    names = [name_of.get(s, f"s{k}") for k, s in enumerate(subsets)]
    phi = np.zeros((len(subsets), group.order), dtype=VERTEX_DTYPE)
    for k, s in enumerate(subsets):
        for a in range(group.order):
            t = translate(s, a, group)
            if t not in index:
                raise InputError(
                    f"family is not closed under translation: translate({names[k]}, {a}) has assignment {t}"
                )
            phi[k, a] = index[t]
    return make_dsb(group, names, phi, dsb_ops(group, np.array(subsets, dtype=LABEL_DTYPE)))


def partition_profile(assignment) -> tuple[int, ...]:
    """The multiplicities of the automorphisms of an assignment, decreasing."""
    return tuple(sorted(Counter(assignment).values(), reverse=True))


def reference_family(group_name, full=False):
    """The group and the bundled family over ``cyclic:3`` or ``cyclic:4``, as
    name -> assignment."""
    return build_group(group_name), {name: v for v, name in seeded_names(group_name, full).items()}


# per-vertex product tables over the order-3 family
Z3_OPS = {
    "s0": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    "s1": [[0, 1, 2], [1, 0, 2], [2, 0, 1]],
    "s2": [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
    "s3": [[0, 1, 2], [1, 0, 2], [2, 1, 0]],
}

# per-vertex product tables over the order-4 family
Z4_OPS = {
    "s0": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
    "s1": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    "s2": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 1, 0, 3], [3, 2, 1, 0]],
    "s3": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 1, 0, 3], [3, 0, 1, 2]],
    "s4": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 0, 1, 2]],
    "s5": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 1, 0, 3], [3, 0, 1, 2]],
    "s6": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 2, 1, 0]],
    "s7": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 1, 0, 3], [3, 2, 1, 0]],
}

# reference braiding moves over the order-4 family, as (vertex, a, b) -> (r, l);
# the braiding is involutive here, so each move also applies reversed
Z4_BRAIDING_MOVES = {
    ("s4", 3, 1): (1, 1),
    ("s4", 1, 2): (2, 1),
    ("s4", 2, 3): (3, 2),
    ("s5", 1, 3): (3, 1),
    ("s5", 3, 2): (2, 1),
    ("s5", 2, 3): (1, 2),
    ("s6", 3, 3): (1, 3),
    ("s6", 3, 2): (2, 3),
    ("s6", 1, 2): (2, 1),
    ("s7", 3, 3): (1, 1),
    ("s7", 2, 1): (3, 2),
    ("s7", 2, 3): (1, 2),
    ("s2", 3, 3): (1, 3),
    ("s2", 2, 3): (1, 2),
    ("s2", 3, 2): (2, 1),
    ("s3", 1, 1): (3, 1),
    ("s3", 3, 2): (2, 1),
    ("s3", 1, 2): (2, 3),
    ("s1", 1, 1): (3, 3),
    ("s1", 1, 2): (2, 1),
    ("s1", 2, 3): (3, 2),
}


def z4_expected_braiding(vertex: str, a: int, b: int) -> tuple[int, int]:
    """Expected sigma on the path [vertex|a|b] of the order-4 family."""
    if vertex == "s0":
        return (b, a)  # canonical flip on the all-identity vertex
    move = Z4_BRAIDING_MOVES.get((vertex, a, b))
    if move is not None:
        return move
    for (v, x, y), (r, l) in Z4_BRAIDING_MOVES.items():
        if v == vertex and (r, l) == (a, b):
            return (x, y)
    if b == 0:
        return (0, a)
    if a == 0:
        return (b, 0)
    return (a, b)


# reference ternary values on the 4-vertex component, a=s4 b=s5 c=s6 d=s7
Z4_HEAP_VALUES = {
    ("a", "b", "a"): "d",
    ("a", "d", "a"): "b",
    ("a", "d", "b"): "c",
    ("a", "c", "b"): "d",
    ("a", "c", "d"): "b",
    ("a", "b", "d"): "c",
    ("b", "a", "b"): "c",
    ("b", "c", "b"): "a",
    ("b", "c", "a"): "d",
    ("b", "d", "a"): "c",
    ("b", "d", "c"): "a",
    ("b", "a", "c"): "d",
    ("c", "d", "c"): "b",
    ("c", "b", "c"): "d",
    ("c", "d", "b"): "a",
    ("c", "a", "b"): "d",
    ("c", "b", "d"): "a",
    ("c", "a", "d"): "b",
    ("d", "c", "d"): "a",
    ("d", "a", "d"): "c",
    ("d", "b", "a"): "c",
    ("d", "c", "a"): "b",
    ("d", "b", "c"): "a",
    ("d", "a", "c"): "b",
}

HEAP_LETTER_TO_VERTEX = {"a": "s4", "b": "s5", "c": "s6", "d": "s7"}

# candidate identifications of the 4-vertex component with the integers mod 4;
# exactly one per base vertex is compatible with the transport construction
Z4_HEAP_CANDIDATE_LABELLINGS = [
    {"a": 0, "b": 1, "c": 2, "d": 3},
    {"a": 0, "b": 3, "c": 2, "d": 1},
    {"b": 0, "a": 1, "c": 3, "d": 2},
    {"b": 0, "a": 3, "c": 1, "d": 2},
    {"c": 0, "a": 2, "b": 1, "d": 3},
    {"c": 0, "a": 2, "b": 3, "d": 1},
    {"d": 0, "a": 1, "b": 2, "c": 3},
    {"d": 0, "a": 3, "b": 2, "c": 1},
]

Z4_HEAP_COMPATIBLE_LABELLINGS = [
    {"a": 0, "b": 3, "c": 2, "d": 1},
    {"b": 0, "a": 1, "c": 3, "d": 2},
    {"c": 0, "a": 2, "b": 1, "d": 3},
    {"d": 0, "a": 1, "b": 2, "c": 3},
]

# arrows of the worked quiver drawings: vertex -> {label: target}
Z3_ARROWS = {
    "s0": {0: "s0", 1: "s0", 2: "s0"},
    "s1": {0: "s1", 1: "s3", 2: "s2"},
    "s2": {0: "s2", 1: "s1", 2: "s3"},
    "s3": {0: "s3", 1: "s1", 2: "s2"},
}

Z3_INITIAL_ARROWS = {
    "r0": {0: "s0", 1: "s0", 2: "s0"},
    "r1": {0: "s1", 1: "s2", 2: "s3"},
    "r2": {0: "s2", 1: "s3", 2: "s1"},
    "r3": {0: "s3", 1: "s2", 2: "s1"},
}

Z4_K4567_ARROWS = {
    "s4": {0: "s4", 1: "s7", 2: "s6", 3: "s5"},
    "s5": {0: "s5", 1: "s4", 2: "s7", 3: "s6"},
    "s6": {0: "s6", 1: "s5", 2: "s4", 3: "s7"},
    "s7": {0: "s7", 1: "s4", 2: "s5", 3: "s6"},
}


def braiding_isomorphism(bracoid_a, braiding_a, bracoid_b, braiding_b, trans):
    """``find_braiding_isomorphism`` as the vertex-by-vertex loop over lists:
    the first (vertex 0 image, out-star bijection) candidate whose transport
    along ``trans`` (``trans[lam]`` labels the chosen arrow 0 -> lam)
    intertwines the braidings, as (vertex map, label map rows), or None."""
    phiA, phiB = bracoid_a.phi.tolist(), bracoid_b.phi.tolist()
    SRa, SLa = braiding_a.right.tolist(), braiding_a.left.tolist()
    SRb, SLb = braiding_b.right.tolist(), braiding_b.left.tolist()
    L, n = len(phiA), len(phiA[0])
    if (len(phiB), len(phiB[0])) != (L, n):
        return None
    for mu0 in range(len(phiB)):
        for beta in itertools.permutations(range(n)):
            f0, f1 = [], []
            for lam in range(L):
                x = beta[trans[lam]]
                row = SRb[mu0][x]
                f0.append(phiB[mu0][x])
                f1.append([row.index(beta[c]) for c in SRa[0][trans[lam]]])
            if len(set(f0)) != L or any(sorted(r) != list(range(n)) for r in f1):
                continue
            if any(phiB[f0[lam]][f1[lam][a]] != f0[phiA[lam][a]] for lam in range(L) for a in range(n)):
                continue
            if all(
                SRb[f0[lam]][f1[lam][a]][f1[phiA[lam][a]][b]] == f1[lam][SRa[lam][a][b]]
                and SLb[f0[lam]][f1[lam][a]][f1[phiA[lam][a]][b]] == f1[phiA[lam][SRa[lam][a][b]]][SLa[lam][a][b]]
                for lam in range(L) for a in range(n) for b in range(n)
            ):
                return tuple(f0), f1
    return None
