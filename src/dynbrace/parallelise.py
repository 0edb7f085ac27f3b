"""Turning braided groupoids back into dynamical structures, and the
degree-one correspondence with ternary tables.

A connected groupoid-with-braiding admits per-vertex out-star labellings whose
transported vertex group law is the same everywhere; transporting along a
chosen transversal of arrows out of a base vertex produces such a labelling
explicitly, with no choice principle needed at finite scale.  Every axiom
involved is local to a vertex and its component, so a disconnected groupoid
is parallelised in one vectorised pass: each component is transported from
its own base, every check runs once over the whole family, and the group and
the output checks run once per distinct transported group law.  The
components are laid out once, by one ``connected_components`` call, and the
transversal and the transport both read that layout; the transport is one
:func:`~dynbrace.structures.relabel_bracoid` call.  Complete quivers of
degree one correspond to ternary operations; pointing one of those at a
vertex recovers a group.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, quote
from .groups import FiniteGroup, _frozen, _inverse_rows, make_group
from .quivers import ComponentReport, connected_components, distinct_names, int_array, name_tuple, restrict_phi
from .structures import (
    LABEL_DTYPE,
    VERTEX_DTYPE,
    Check,
    DynamicalSkewBrace,
    QuiverBraiding,
    Report,
    SkewBracoid,
    _axes,
    _block,
    _check,
    _take,
    make_bracoid,
    make_dsb,
    relabel_bracoid,
    restrict_bracoid,
    verify_bracoid,
    verify_dsb,
)


@dataclass(frozen=True, eq=False)
class PairSubgroupoid:
    """A wide Schurian subgroupoid: exactly one chosen arrow per ordered pair of
    vertices in the same component.

    ``components`` is the bracoid's component layout and ``base[lam]`` the
    base vertex of lam's component; ``arrow_label[lam, components.rank[mu]]``
    is the label at lam of the chosen arrow lam -> mu, and -1 past the size of
    lam's component.  On a connected bracoid the rank is the identity and
    ``arrow_label`` the (L, L) table.
    """

    components: ComponentReport
    base: np.ndarray
    arrow_label: np.ndarray


def schurian_transversal(bracoid: SkewBracoid, base: int | str | None = None) -> PairSubgroupoid:
    """One arrow per ordered pair of vertices of a component, generated by a
    transversal at the component's base.

    With ``base`` the bracoid must be a connected groupoid; without one, every
    component of a groupoid is based at its smallest vertex.  The arrow chosen
    from the base to each vertex is the one with the smallest label (the unit
    loop for the base itself); the arrow lam -> mu is the composite of the
    inverse of the lam-transversal with the mu-transversal, which is closed
    under composition and inversion by construction.  The closure is checked
    on one stack of components per component size.
    """
    phi, B, units, names = bracoid.phi, bracoid.bullet, bracoid.units, bracoid.vertex_names
    L, n = phi.shape
    if not bracoid.unital.all():
        raise InputError(f"vertex {names[np.argmin(bracoid.unital)]} is initial; need a groupoid")
    report = connected_components(bracoid.phi)
    order, starts, comp = report.order, report.starts, report.component_of
    if base is None:
        zeta = order[starts[comp]]
    else:
        if report.count > 1:
            raise InputError(
                f"quiver is disconnected: no path between {names[0]} and {names[order[starts[1]]]}"
            )
        z = bracoid.vertex_index(base) if isinstance(base, str) else int(base)
        if not (0 <= z < L):
            raise InputError(f"base vertex {base!r} out of range")
        zeta = np.full(L, z, dtype=np.intp)

    lam = np.arange(L, dtype=np.intp)
    at_base = zeta == lam
    hit = phi[zeta] == lam[:, None]
    reached = hit.any(axis=1) | at_base
    if not reached.all():
        mu = int(np.argmin(reached))
        raise InputError(f"no arrow from {names[zeta[mu]]} to {names[mu]}; need a groupoid")
    transversal = np.where(at_base, units[zeta], np.argmax(hit, axis=1))

    # inverse label of each transversal arrow, an arrow target -> base
    back = B[zeta, transversal] == units[zeta][:, None]
    invertible = back.any(axis=1)
    if not invertible.all():
        mu = int(np.argmin(invertible))
        raise InputError(f"the arrow from {names[zeta[mu]]} to {names[mu]} has no inverse")
    inv_label = np.argmax(back, axis=1)

    sizes = np.diff(starts)
    width = int(sizes.max())
    slot = np.arange(width)
    target = order[np.minimum(starts[comp][:, None] + slot, L - 1)]
    source = phi[zeta, transversal]  # = lam, per construction
    arr = B[source[:, None], inv_label[:, None], transversal[target]]
    arr = np.where(slot < sizes[comp][:, None], arr, -1).astype(LABEL_DTYPE)

    for s in sorted(set(sizes.tolist())):
        members = order[starts[:-1][sizes == s][:, None] + np.arange(s)]  # (C, s)
        sub = arr[members][:, :, :s]  # sub[c, i, j]: the arrow members[c, i] -> members[c, j]
        if not (phi[members[:, :, None], sub] == members[:, None, :]).all():
            raise AssertionError("transversal composite has the wrong target")
        closed = B[members[:, :, None, None], sub[:, :, :, None], sub[:, None, :, :]] == sub[:, :, None, :]
        if not closed.all():
            raise AssertionError("pair subgroupoid is not closed under composition")
        diagonal = np.arange(s)
        if not (sub[:, diagonal, diagonal] == units[members]).all():
            raise AssertionError("pair subgroupoid misses a unit")
    return PairSubgroupoid(report, zeta, arr)


def default_base_labelling(bracoid: SkewBracoid, zeta) -> np.ndarray:
    """Out-star of the base ordered by (target vertex, label); unit loop -> 0.

    ``zeta`` may also be an array of bases, with one labelling per entry.
    """
    n = bracoid.label_count
    zeta = np.asarray(zeta, dtype=np.intp)
    key = bracoid.phi[zeta].astype(np.intp) * n + np.arange(n)
    np.put_along_axis(key, bracoid.units[zeta].astype(np.intp)[..., None], -1, axis=-1)
    out = np.empty(key.shape, dtype=LABEL_DTYPE)
    np.put_along_axis(out, np.argsort(key, axis=-1), np.arange(n, dtype=LABEL_DTYPE), axis=-1)
    return out


def parallelise(
    bracoid: SkewBracoid,
    base: int | str | None = None,
    base_labelling: Sequence[int] | None = None,
) -> tuple[np.ndarray, tuple[DynamicalSkewBrace, ...]]:
    """Relabel a zero-symmetric groupoid bracoid into dynamical structures.

    Returns ``(maps, structures)``.  ``maps`` is the read-only (L, n)
    labelling: ``maps[lam, old_label]`` is the common label of the arrow
    [lam|old_label], so every vertex group law agrees with the law at its
    component's base.  ``structures`` holds the per-component structures, in
    component order.  With ``base`` the bracoid must be connected, and there
    is one structure.  Without one, every component is based at its smallest
    vertex; the checks then run once over the whole family and once per
    distinct group law, and when one fails, the components are re-run one at
    a time, so the error raised is the one the first failing component raises
    on its own.
    """
    if base is not None:
        return _parallelise(bracoid, base, base_labelling)
    if base_labelling is not None:
        raise InputError("a base labelling needs a base vertex")
    try:
        return _parallelise(bracoid, None, None)
    except (InputError, AssertionError):
        # every check is local to a component, so one of them fails on its own
        for members in connected_components(bracoid.phi).members:
            parallelise(restrict_bracoid(bracoid, members), 0)
        raise


def _parallelise(
    bracoid: SkewBracoid,
    base: int | str | None,
    base_labelling: Sequence[int] | None,
) -> tuple[np.ndarray, tuple[DynamicalSkewBrace, ...]]:
    """The transport of every component at once; see :func:`parallelise`.

    The labelling at each vertex is forced by transporting its base labelling
    through the bracoid's derived action (the braiding's first component)
    along the transversal arrows, and :func:`relabel_bracoid` moves every
    table to the new labels.  The transported vertex group laws must coincide
    on each component; this is verified exhaustively and a failure raises
    with a witness, since it signals either a bug or an input that is not a
    bracoid.
    """
    pg = schurian_transversal(bracoid, base)
    zeta = pg.base
    L, n = bracoid.phi.shape
    verify_bracoid(bracoid).require("not a skew bracoid")
    SR = bracoid.derived_action

    if base_labelling is None:
        maps_base = default_base_labelling(bracoid, zeta)
    else:
        given = int_array(base_labelling, "base labelling", (n,), 0, n, LABEL_DTYPE)
        if sorted(given.tolist()) != list(range(n)):
            raise InputError("base labelling must be a permutation of the labels")
        maps_base = np.broadcast_to(given, (L, n))

    transversal = pg.arrow_label[zeta, pg.components.rank].astype(np.intp)
    maps = _frozen(np.take_along_axis(maps_base, SR[zeta, transversal].astype(np.intp), axis=1))
    relabelled = relabel_bracoid(bracoid, maps)
    transported = relabelled.dot
    agree = transported == transported[zeta]
    if not agree.all():
        lam, x, y = (int(v) for v in np.argwhere(~agree)[0])
        raise AssertionError(
            "transported vertex group laws disagree: "
            f"vertex={bracoid.vertex_names[lam]} labels=({x},{y}) "
            f"lhs={int(transported[lam, x, y])} rhs={int(transported[zeta[lam], x, y])}"
        )

    # one group and one structure per distinct (law, identity) of the bases
    order, starts, comp = pg.components.order, pg.components.starts, pg.components.component_of
    bases = zeta[order[starts[:-1]]]
    laws = np.concatenate(
        [transported[bases].reshape(bases.size, n * n), relabelled.units[bases][:, None]], axis=1
    )
    keys, law_of = np.unique(laws, axis=0, return_inverse=True)
    law_of = law_of.reshape(-1)
    vertex_law = law_of[comp]
    grouped = order[np.argsort(vertex_law[order], kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(vertex_law, minlength=len(keys)))))
    structures = []
    for k, key in enumerate(keys):
        group = make_group(key[:-1].reshape(n, n), name="parallelised", identity=int(key[-1]))
        members = grouped[bounds[k]:bounds[k + 1]]
        dsb = make_dsb(
            group,
            [bracoid.vertex_names[v] for v in members.tolist()],
            restrict_phi(relabelled.phi, members),
            relabelled.bullet[members],
        )
        checks = tuple(replace(c, required=True) if c.name == "zero_symmetric" else c
                       for c in verify_dsb(dsb).checks)
        Report(checks).require(
            "parallelised output is not a zero-symmetric dynamical structure", AssertionError
        )
        structures.append(dsb)

    position = np.empty(L, dtype=np.intp)
    position[grouped] = np.arange(L)
    offset = position[order[starts[:-1]]] - bounds[law_of]
    components = tuple(
        _vertex_range(structures[k], lo, lo + s)
        for k, lo, s in zip(law_of.tolist(), offset.tolist(), np.diff(starts).tolist())
    )
    return maps, components


def _vertex_range(dsb: DynamicalSkewBrace, lo: int, hi: int) -> DynamicalSkewBrace:
    """Vertices lo..hi-1 of ``dsb``, a union of whole components, as a structure of its own."""
    phi = dsb.phi[lo:hi] - lo
    phi.setflags(write=False)
    return DynamicalSkewBrace(dsb.group, dsb.vertex_names[lo:hi], phi, dsb.ops[lo:hi])


# ---------------------------------------------------------------------------
# ternary tables of degree-one braidings


@dataclass(frozen=True, eq=False)
class TernaryHeap:
    """A ternary table on a vertex set."""

    names: tuple[str, ...]
    table: np.ndarray

    @property
    def size(self) -> int:
        return len(self.names)

    def value(self, a: int, b: int, c: int) -> int:
        return int(self.table[a, b, c])

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown element {quote(name)}") from None


def make_heap(names: Sequence[str], table) -> TernaryHeap:
    names = distinct_names(name_tuple(names, "heap elements"), "element")
    m = len(names)
    return TernaryHeap(names, int_array(table, "ternary table", (m, m, m), 0, m, LABEL_DTYPE))


def verify_heap(heap: TernaryHeap) -> Report:
    """Mal'tsev identities, both associativity forms, their agreement, and
    commutativity as a reported fact.

    The axioms run on the driver of ``structures``, the heap's elements
    standing for both vertices and labels; a witness names the elements of
    the first failing tuple, and both sides for the associativity forms.
    """
    T, m, names = heap.table, heap.size, heap.names

    def witness(idx, lhs, rhs):
        w = {"elements": tuple(names[i] for i in idx)}
        return w if lhs is None else {**w, "lhs": int(lhs), "rhs": int(rhs)}

    def maltsev1(s, t):  # <a, b, b> = a
        a, (b,) = _block(s, t, 2), _axes(m, 2)
        return _take(T, a, b, b) == a, None, None

    def maltsev2(s, t):  # <a, a, b> = b
        a, (b,) = _block(s, t, 2), _axes(m, 2)
        return _take(T, a, a, b) == b, None, None

    def assoc(s, t):  # <a, b, <c, d, e>> = <<a, b, c>, d, e>
        a, (b, c, d, e) = _block(s, t, 5), _axes(m, 5)
        lhs, rhs = _take(T, a, b, _take(T, c, d, e)), _take(T, _take(T, a, b, c), d, e)
        return lhs == rhs, lhs, rhs

    def assoc1(s, t):  # <a, b, d> = <<a, b, c>, c, d>
        a, (b, c, d) = _block(s, t, 4), _axes(m, 4)
        lhs, rhs = _take(T, a, b, d), _take(T, _take(T, a, b, c), c, d)
        return lhs == rhs, lhs, rhs

    def assoc2(s, t):  # <a, c, d> = <a, b, <b, c, d>>
        a, (b, c, d) = _block(s, t, 4), _axes(m, 4)
        lhs, rhs = _take(T, a, c, d), _take(T, a, b, _take(T, b, c, d))
        return lhs == rhs, lhs, rhs

    def abelian(s, t):  # <a, b, c> = <c, b, a>
        b, c = _axes(m, 3)
        return T[s:t] == _take(T, c, b, _block(s, t, 3)), None, None

    m1, m2, a, a1, a2 = (
        _check(fn.__name__, names, m, (fn, witness), rank=rank)
        for fn, rank in ((maltsev1, 2), (maltsev2, 2), (assoc, 5), (assoc1, 4), (assoc2, 4))
    )
    # given the Mal'tsev identities, associativity holds exactly when both forms do
    maltsev = m1.passed and m2.passed
    agree = not maltsev or a.passed == (a1.passed and a2.passed)
    return Report((
        m1, m2, a, a1, a2, Check("assoc_equivalence", agree, required=maltsev),
        _check("abelian", names, m, (abelian, witness), required=False, rank=3),
    ))


def heap_from_group(group: FiniteGroup) -> TernaryHeap:
    """The ternary table a * b^-1 * c of a group."""
    M = group.table
    return make_heap(group.names, M[M[:, group.inverses]])


def group_from_pointed_heap(heap: TernaryHeap, base: int | str) -> FiniteGroup:
    """The group <a, base, b> with unit at the distinguished element."""
    verify_heap(heap).require("not a heap")
    zeta = heap.index(base) if isinstance(base, str) else int(base)
    if not (0 <= zeta < heap.size):
        raise InputError(f"base element {base!r} out of range")
    return make_group(heap.table[:, zeta, :], name=f"pointed:{heap.names[zeta]}", names=heap.names, identity=zeta)


def ternary_of_braiding(bracoid: SkewBracoid, braiding: QuiverBraiding) -> TernaryHeap:
    """The ternary table of a degree-one braiding: the middle vertex of the
    image of each two-step path.  The result is verified to be a heap."""
    phi = bracoid.phi
    L, n = phi.shape
    if n != L:
        raise InputError(f"quiver has degree {n}/{L}, need a complete quiver of degree 1")
    aran = np.arange(L, dtype=phi.dtype)
    if not (np.sort(phi, axis=1) == aran).all():
        raise InputError("quiver is not complete of degree 1")
    lab = _inverse_rows(phi)
    a3 = np.arange(L, dtype=np.intp)[:, None, None]
    lab_ab = lab[:, :, None]
    lab_bc = lab[None, :, :]
    middle = phi[a3, braiding.right[a3, lab_ab, lab_bc].astype(np.intp)]
    heap = make_heap(bracoid.vertex_names, middle)
    verify_heap(heap).require("degree-one braiding did not induce a heap", AssertionError)
    return heap


def braiding_from_heap(heap: TernaryHeap) -> tuple[SkewBracoid, QuiverBraiding]:
    """The degree-one braided groupoid over the heap's element set."""
    verify_heap(heap).require("not a heap")
    m, T = heap.size, heap.table
    labels = np.arange(m, dtype=LABEL_DTYPE)
    phi, bullet = np.broadcast_to(labels.astype(VERTEX_DTYPE), (m, m)), np.broadcast_to(labels, (m, m, m))
    bracoid = make_bracoid(heap.names, heap.names, phi, bullet, T.transpose(1, 0, 2), labels)
    # right[lam, a, b] = <lam, a, b>, and left[lam, a, b] = b, as the bullet is
    return bracoid, QuiverBraiding(T, bracoid.bullet)


def complete_heap_table(
    names: Sequence[str],
    entries: Mapping[tuple[int, int, int], int],
) -> TernaryHeap:
    """Complete a partial ternary table using the first associativity form.

    The Mal'tsev rows are filled in automatically; remaining cells are derived
    by chaining <a,b,d> = <<a,b,c>, c, d> until a fixpoint.  Contradictions and
    underdetermined tables are rejected.
    """
    m = len(names)
    table: dict[tuple[int, int, int], int] = {}

    def put(key, value):
        old = table.get(key)
        if old is None:
            table[key] = value
            return True
        if old != value:
            raise InputError(f"inconsistent ternary data at {key}: {old} vs {value}")
        return False

    for i in range(m):
        for j in range(m):
            put((i, i, j), j)
            put((i, j, j), i)
    for key, value in entries.items():
        key = tuple(int(x) for x in key)
        if len(key) != 3 or not all(0 <= x < m for x in key):
            raise InputError(f"bad ternary cell {key}")
        put(key, int(value))

    changed = True
    while changed:
        changed = False
        for (a, b, c), v in list(table.items()):
            for d in range(m):
                w = table.get((v, c, d))
                if w is not None:
                    changed |= put((a, b, d), w)
                w = table.get((a, b, d))
                if w is not None:
                    changed |= put((v, c, d), w)
    missing = m**3 - len(table)
    if missing:
        raise InputError(f"ternary table underdetermined: {missing} cells not derivable")
    arr = np.zeros((m, m, m), dtype=LABEL_DTYPE)
    for (a, b, c), v in table.items():
        arr[a, b, c] = v
    return make_heap(names, arr)


# ---------------------------------------------------------------------------
# braiding-intertwining isomorphism search


def find_braiding_isomorphism(
    bracoid_a: SkewBracoid,
    braiding_a: QuiverBraiding,
    bracoid_b: SkewBracoid,
    braiding_b: QuiverBraiding,
) -> tuple[tuple[int, ...], np.ndarray] | None:
    """First (lexicographic) arrow bijection intertwining two braidings.

    Returns (vertex map, per-vertex label maps) or None.  The search fixes the
    image of vertex 0 and its out-star bijection, then propagates through the
    braidings along a transversal, so only |vertices| * |labels|! candidates
    are ever checked.
    """
    La, n = bracoid_a.phi.shape
    Lb, nb = bracoid_b.phi.shape
    if (La, n) != (Lb, nb):
        return None
    # each transversal requires its bracoid to be a connected groupoid
    pg = schurian_transversal(bracoid_a, 0)
    schurian_transversal(bracoid_b, 0)
    trans = pg.arrow_label[0].astype(np.intp)
    phiA, phiB = bracoid_a.phi.astype(np.intp), bracoid_b.phi
    SRa, SLa = braiding_a.right.astype(np.intp), braiding_a.left.astype(np.intp)
    SRb, SLb = braiding_b.right, braiding_b.left

    lam3 = np.arange(La, dtype=np.intp)[:, None, None]
    a_idx = np.arange(n, dtype=np.intp)
    wA = phiA[lam3, SRa]

    for mu0 in range(Lb):
        for beta in itertools.permutations(range(n)):
            beta = np.array(beta, dtype=np.intp)
            bx = beta[trans]
            f0 = phiB[mu0, bx]
            f1 = np.take_along_axis(_inverse_rows(SRb[mu0, bx]), beta[SRa[0, trans]], 1)
            if len(set(f0.tolist())) != La:
                continue
            if not (np.sort(f1, axis=1) == a_idx).all():
                continue
            if not (phiB[f0[:, None], f1] == f0[phiA]).all():
                continue
            # sigma intertwining on all composable pairs
            fy = f1[phiA]
            got_r = SRb[f0[lam3], f1[:, :, None], fy]
            want_r = f1[lam3, SRa]
            if not (got_r == want_r).all():
                continue
            want_l = f1[wA, SLa]
            got_l = SLb[f0[lam3], f1[:, :, None], fy]
            if not (got_l == want_l).all():
                continue
            return tuple(int(v) for v in f0), f1.astype(LABEL_DTYPE)
    return None
