"""Enumeration of the maximal families of regular subsets and their invariants.

The assignment space is the set of maps (group element -> automorphism index),
packed big-endian into int32 keys so ascending key order is the canonical
lexicographic order.  Spaces above 2**31 - 1 keys are refused with a
resource-cap error whatever the configured cap.  Translation of whole key
ranges is one gather-and-add kernel over a contribution table built once per
space: pair b of S lands on a fixed element with a fixed automorphism once f_a
is known, so its share of the target key is ``C[a, b, f_a, f_b]`` and a
translate is n table lookups.  Component structure comes from iterated minimum
propagation along translation images, which converges immediately because
components of the unital space are complete quivers.  The table of component
counts is exact and streaming: no per-vertex Python objects are built unless a
caller materialises the result.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import InputError, ResourceCapError
from .groups import FiniteGroup
from .holomorph import DEFAULT_CAP, RegularSubset, holomorph
from .quivers import ComponentReport, LabelledQuiver, component_report, restrict_phi
from .structures import (
    LABEL_DTYPE,
    VERTEX_DTYPE,
    DynamicalSkewBrace,
    make_dsb,
)

#: Above this many vertices the per-component partition listing is omitted.
PARTITION_LISTING_LIMIT = 65536

#: One dtype for keys, digits, translation tables and component labels.
KEY_DTYPE = np.int32
#: Largest space whose keys fit :data:`KEY_DTYPE`.
KEY_LIMIT = int(np.iinfo(KEY_DTYPE).max)


@dataclass(frozen=True)
class EnumerationConfig:
    """Tuning knobs shared by the streaming kernels."""

    cap: int = DEFAULT_CAP
    chunk: int = 1 << 20
    workers: int = 1

    def partitions(self, size: int) -> list[tuple[int, int]]:
        """Deterministic contiguous ranges covering [0, size)."""
        parts = max(1, int(self.workers))
        step = max(1, -(-size // parts))
        step = min(step, self.chunk)
        return [(lo, min(lo + step, size)) for lo in range(0, size, step)]


class KeySpace:
    """Packed key arithmetic for the unital or the full assignment space."""

    def __init__(self, group: FiniteGroup, unital: bool, config: EnumerationConfig):
        hol = holomorph(group)
        self.group = group
        self.hol = hol
        self.unital = unital
        self.config = config
        n = group.order
        radix = len(hol.auts)
        self.n = n
        self.radix = radix
        self.size = radix ** (n - 1) if unital else radix**n
        cap = min(config.cap, KEY_LIMIT)
        if self.size > cap:
            raise ResourceCapError(self.size, cap, "regular subsets")
        weights = [radix ** (n - 1 - c) for c in range(n)]
        if unital:
            weights[0] = 0
        self.weights = np.array(weights, dtype=KEY_DTYPE)
        self.unital_size = radix ** (n - 1)
        self._act = np.array([a.images for a in hol.auts], dtype=LABEL_DTYPE)
        self._comp = np.array(hol.comp, dtype=LABEL_DTYPE)
        self._ainv = np.array(hol.ainv, dtype=LABEL_DTYPE)
        self._contrib = self._contribution_table()

    def _contribution_table(self) -> np.ndarray:
        """``C[a, b, f * radix + d]``: key share of pair (b, d) when f_a = f.

        (a, f)^-1 * (b, d) = (f^-1(a^-1 b), f^-1 o d), so the pair contributes
        digit ``comp[f^-1, d]`` at position ``act[f^-1, a^-1 b]``.
        """
        n, radix = self.n, self.radix
        fi = self._ainv.astype(np.intp)
        mul = np.array(self.group.table, dtype=np.intp)
        quotient = mul[np.array(self.group.inverses, dtype=np.intp)]  # (a, b) -> a^-1 b
        pos = self._act[fi][:, quotient].transpose(1, 2, 0)  # (a, b, f) -> position
        digit = self._comp[fi].astype(KEY_DTYPE)  # (f, d) -> digit
        table = self.weights[pos][:, :, :, None] * digit[None, None, :, :]
        return table.reshape(n, n, radix * radix)

    # -- scalar conversions --------------------------------------------------

    def assignment_of(self, key: int) -> tuple[int, ...]:
        out = []
        for c in range(self.n):
            w = int(self.weights[c])
            out.append((key // w) % self.radix if w else 0)
        return tuple(out)

    def key_of(self, assignment: Iterable[int]) -> int:
        assignment = tuple(assignment)
        if self.unital and assignment[self.group.identity] != 0:
            raise InputError("assignment is not unital")
        return int(sum(int(d) * int(w) for d, w in zip(assignment, self.weights)))

    # -- vectorised kernels ----------------------------------------------------

    def digit(self, keys: np.ndarray, position: int) -> np.ndarray:
        w = int(self.weights[position])
        if w == 0:
            return np.zeros(keys.shape, dtype=KEY_DTYPE)
        return ((keys // w) % self.radix).astype(KEY_DTYPE, copy=False)

    def digits(self, keys: np.ndarray) -> list[np.ndarray]:
        return [self.digit(keys, c) for c in range(self.n)]

    def translate_keys(self, keys: np.ndarray, a: int, digits: list[np.ndarray] | None = None) -> np.ndarray:
        """Key of the translation target along the arrow labelled ``a``.

        The sum over b of ``C[a, b, f_a, f_b]``.  Pair a itself lands on the
        identity pair (e, id), whose digit is 0, so it is skipped.
        """
        if digits is None:
            digits = self.digits(keys)
        row = digits[a] * self.radix
        index = np.empty(keys.shape, dtype=np.intp)
        out = np.zeros(keys.shape, dtype=KEY_DTYPE)
        for b in range(self.n):
            if b == a:
                continue
            np.add(row, digits[b], out=index)
            out += self._contrib[a, b].take(index)
        return out

    def translation_table(self) -> list[np.ndarray]:
        """All translation-image key arrays, one per label, chunk by chunk."""
        tables = [np.empty(self.size, dtype=KEY_DTYPE) for _ in range(self.n)]
        for lo, hi in self.config.partitions(self.size):
            keys = np.arange(lo, hi, dtype=KEY_DTYPE)
            digits = self.digits(keys)
            for a in range(self.n):
                tables[a][lo:hi] = self.translate_keys(keys, a, digits)
        return tables

    def subset_of(self, key: int) -> RegularSubset:
        return RegularSubset(self.assignment_of(int(key)))


def component_labels(space: KeySpace, tables: list[np.ndarray] | None = None) -> np.ndarray:
    """Per-key component label: the minimal key of the component.

    Iterated minimum propagation along translation images; for unital spaces a
    single pass is exact because every out-neighbourhood is the whole
    component, but the loop always runs to a fixpoint.
    """
    if tables is None:
        tables = space.translation_table()
    comp = np.arange(space.size, dtype=KEY_DTYPE)
    while True:
        new = comp.copy()
        for ta in tables:
            np.minimum(new, comp[ta], out=new)
        if np.array_equal(new, comp):
            return comp
        comp = new


def partition_profile(subset: RegularSubset, group: FiniteGroup) -> tuple[int, ...]:
    """Multiset of automorphism multiplicities in decreasing order."""
    hol = holomorph(group)
    counts = [0] * len(hol.auts)
    for f in subset.assignment:
        counts[f] += 1
    return tuple(sorted((c for c in counts if c), reverse=True))


def _partition_matrix(space: KeySpace, keys: np.ndarray) -> np.ndarray:
    """Row per key: automorphism multiplicities sorted decreasingly."""
    counts = np.zeros((keys.size, space.radix), dtype=np.int16)
    rows = np.arange(keys.size, dtype=np.intp)
    for c in range(space.n):
        if space.unital and c == 0:
            counts[rows, 0] += 1
            continue
        counts[rows, space.digit(keys, c).astype(np.intp)] += 1
    return -np.sort(-counts, axis=1)


@dataclass(frozen=True)
class InvariantTable:
    """Component-size census N_s of the unital family plus initial-vertex data."""

    group_name: str
    order: int
    aut_order: int
    vertex_count: int
    sizes: tuple[int, ...]
    counts: Mapping[int, int]
    initial_counts: Mapping[int, int]
    partitions: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...] | None
    partitions_omitted: int

    def count(self, s: int) -> int:
        return self.counts.get(s, 0)

    def check_relations(self) -> list[str]:
        """All asserted identities; returns a list of failure descriptions."""
        problems = []
        total = sum(s * c for s, c in self.counts.items())
        if total != self.vertex_count:
            problems.append(
                f"sum s*N_s = {total}, expected {self.vertex_count}"
            )
        for s in self.counts:
            if self.order % s != 0:
                problems.append(f"component size {s} does not divide {self.order}")
        for s, value in self.initial_counts.items():
            if value != s * (self.aut_order - 1):
                problems.append(
                    f"in_{s} = {value}, expected {s * (self.aut_order - 1)}"
                )
        return problems


def invariants(group: FiniteGroup, config: EnumerationConfig | None = None) -> InvariantTable:
    """Component-size counts of the maximal unital family, streaming.

    The relation sum(s * N_s) = |Aut|^(|A|-1) and the divisibility constraint
    are asserted; initial-vertex counts use the closed form s*(|Aut|-1), which
    :func:`initial_counts` verifies independently against the full family.
    """
    config = config or EnumerationConfig()
    space = KeySpace(group, unital=True, config=config)
    size_of_root = np.bincount(component_labels(space))
    roots = np.flatnonzero(size_of_root)
    sizes = size_of_root[roots]
    histogram = np.bincount(sizes)
    counts = {int(s): int(histogram[s]) for s in np.flatnonzero(histogram)}
    table = InvariantTable(
        group_name=group.name,
        order=group.order,
        aut_order=space.radix,
        vertex_count=space.size,
        sizes=tuple(counts),
        counts=counts,
        initial_counts={s: s * (space.radix - 1) for s in sorted(counts)},
        partitions=_component_partitions(space, roots, sizes),
        partitions_omitted=0 if roots.size <= PARTITION_LISTING_LIMIT else int(roots.size),
    )
    problems = table.check_relations()
    if problems:
        raise AssertionError("invariant relations failed: " + "; ".join(problems))
    return table


def _component_partitions(space: KeySpace, roots: np.ndarray, sizes: np.ndarray):
    if roots.size > PARTITION_LISTING_LIMIT:
        return None
    mat = _partition_matrix(space, roots)
    out = []
    for i in range(roots.size):
        profile = tuple(int(v) for v in mat[i] if v)
        out.append((int(sizes[i]), space.assignment_of(int(roots[i])), profile))
    return tuple(out)


@dataclass(frozen=True)
class InitialCountsResult:
    per_component: tuple[tuple[int, int, int], ...]  # (component root, size, initial count)
    by_size: Mapping[int, int]


def initial_counts(group: FiniteGroup, config: EnumerationConfig | None = None) -> InitialCountsResult:
    """Initial-vertex counts per component of the full family, verified.

    Checks in_K = s * (|Aut| - 1) for every component, that all arrows of an
    initial vertex land in a single component, and that they are equidistributed
    with |A|/s parallel arrows onto each unital vertex of that component.
    """
    config = config or EnumerationConfig()
    space = KeySpace(group, unital=False, config=config)
    tables = space.translation_table()
    comp = component_labels(space, tables)
    k0 = space.unital_size
    radix = space.radix
    n = space.n

    unital_roots, unital_sizes = np.unique(comp[:k0], return_counts=True)
    size_of_root = {int(r): int(s) for r, s in zip(unital_roots, unital_sizes)}
    root_size_arr = np.zeros(k0 if k0 else 1, dtype=np.int64)
    root_size_arr[unital_roots] = unital_sizes

    per_component: dict[int, int] = {int(r): 0 for r in unital_roots}
    for lo, hi in config.partitions(space.size - k0):
        initial_keys = np.arange(k0 + lo, k0 + hi, dtype=KEY_DTYPE)
        if not initial_keys.size:
            continue
        labels = comp[initial_keys]
        if labels.max(initial=0) >= k0:
            raise AssertionError("an initial vertex is attached to no unital component")
        roots, counts = np.unique(labels, return_counts=True)
        for r, c in zip(roots.tolist(), counts.tolist()):
            per_component[r] += int(c)
        # every arrow of an initial vertex stays in its component
        for ta in tables:
            if not np.array_equal(comp[ta[initial_keys]], labels):
                raise AssertionError("an initial vertex has arrows into two components")
        # equidistribution: |A|/s arrows onto each unital vertex of the component
        targets = np.stack([ta[initial_keys] for ta in tables], axis=1)
        targets.sort(axis=1)
        s_arr = root_size_arr[labels]
        rep_arr = n // s_arr
        changed = targets[:, 1:] != targets[:, :-1]
        expected = (np.arange(1, n, dtype=np.int64)[None, :] % rep_arr[:, None]) == 0
        if not (changed == expected).all():
            bad = int(np.argwhere((changed != expected).any(axis=1))[0][0])
            raise AssertionError(
                f"initial vertex {int(initial_keys[bad])} is not equidistributed over its component"
            )

    by_size: dict[int, int] = {}
    out = []
    for root in sorted(per_component):
        s = size_of_root[root]
        cnt = per_component[root]
        if cnt != s * (radix - 1):
            raise AssertionError(
                f"component {root} of size {s} has {cnt} initial vertices, expected {s * (radix - 1)}"
            )
        by_size[s] = cnt
        out.append((root, s, cnt))
    return InitialCountsResult(tuple(out), dict(sorted(by_size.items())))


def check_translation_composition(space: KeySpace, tables: list[np.ndarray]) -> None:
    """translate(translate(S,a),b) == translate(S, a *_S b) on the whole space."""
    keys = np.arange(space.size, dtype=KEY_DTYPE)
    digits = space.digits(keys)
    stacked = np.stack(tables, axis=0)  # (n, K): stacked[c, k] = translate(k, c)
    mul = np.asarray(space.group.table, dtype=np.intp)
    for a in range(space.n):
        fa = digits[a].astype(np.intp)
        for b in range(space.n):
            ab = mul[a][space._act[fa, b]]
            lhs = tables[b][tables[a]]
            rhs = stacked[ab, keys]
            if not np.array_equal(lhs, rhs):
                bad = int(np.argwhere(lhs != rhs)[0][0])
                raise AssertionError(
                    f"translation composition fails at key {bad}, labels ({a},{b})"
                )


def check_inverse_lemma(space: KeySpace) -> None:
    """In the translate of S along a, the element (f_a^-1(a))^-1 carries f_a^-1.

    A unital-only identity: it is the identity pair of S that lands on that
    element, so it is checked on the unital keys of the space.
    """
    keys = np.arange(space.size, dtype=KEY_DTYPE)
    digits = space.digits(keys)
    unital = digits[space.group.identity] == 0
    inv = np.array(space.group.inverses, dtype=np.intp)
    for a in range(space.n):
        fa = digits[a].astype(np.intp)
        fi = space._ainv[fa].astype(np.intp)
        pos = inv[space._act[fi, a].astype(np.intp)]
        target = space.translate_keys(keys, a, digits)
        w = space.weights[pos]
        observed = np.where(w > 0, (target // np.where(w > 0, w, 1)) % space.radix, 0)
        ok = ~unital | (observed.astype(np.intp) == fi)
        if not ok.all():
            bad = int(np.argwhere(~ok)[0][0])
            raise AssertionError(f"inverse identity fails at key {bad}, label {a}")


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """Materialised family: vertices, quiver, component data, attached structure."""

    group: FiniteGroup
    vertices: tuple[RegularSubset, ...]
    vertex_names: tuple[str, ...]
    quiver: LabelledQuiver
    components: ComponentReport
    unital_flags: tuple[bool, ...]
    dsb: DynamicalSkewBrace
    full: bool

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def _materialise(group: FiniteGroup, space: KeySpace, named: Mapping[tuple, str] | None) -> EnumerationResult:
    tables = space.translation_table()
    comp = component_labels(space, tables)
    size = space.size
    k0 = space.unital_size

    keys = np.arange(size, dtype=KEY_DTYPE)
    digit_mat = np.stack(space.digits(keys), axis=1, dtype=LABEL_DTYPE)  # (K, n)
    vertices = tuple(RegularSubset(tuple(int(v) for v in row)) for row in digit_mat)
    if named:
        names = tuple(
            named.get(v.assignment, f"s{k}" if k < k0 else f"r{k - k0}")
            for k, v in enumerate(vertices)
        )
    else:
        names = tuple(f"s{k}" if k < k0 else f"r{k - k0}" for k in range(size))

    phi = np.stack(tables, axis=1).astype(VERTEX_DTYPE, copy=False)  # (K, n)
    act = space._act
    mul = np.array(group.table, dtype=LABEL_DTYPE)
    fa = act[digit_mat.astype(np.intp)]
    ops = mul[np.arange(space.n, dtype=np.intp)[None, :, None], fa]
    dsb = make_dsb(group, names, phi, ops)
    quiver = dsb.quiver()
    # keys are vertex indices, so the minimal-key labels are minimal-vertex labels
    report = component_report(dsb.phi, comp)
    unital_flags = tuple(k < k0 for k in range(size))
    return EnumerationResult(
        group=group,
        vertices=vertices,
        vertex_names=names,
        quiver=quiver,
        components=report,
        unital_flags=unital_flags,
        dsb=dsb,
        full=not space.unital,
    )


def enumerate_unital(
    group: FiniteGroup,
    config: EnumerationConfig | None = None,
    named: Mapping[tuple, str] | None = None,
) -> EnumerationResult:
    """Materialise the maximal unital family as one quiver with its structure."""
    config = config or EnumerationConfig()
    space = KeySpace(group, unital=True, config=config)
    return _materialise(group, space, named)


def enumerate_full(
    group: FiniteGroup,
    config: EnumerationConfig | None = None,
    named: Mapping[tuple, str] | None = None,
) -> EnumerationResult:
    """Materialise the maximal family including initial vertices."""
    config = config or EnumerationConfig()
    space = KeySpace(group, unital=False, config=config)
    return _materialise(group, space, named)


def component_dsb(result: EnumerationResult, component: int) -> DynamicalSkewBrace:
    """Extract one component as a stand-alone structure, vertices re-indexed."""
    members = np.array(result.components.members[component], dtype=np.intp)
    names = [result.vertex_names[v] for v in members]
    return make_dsb(result.group, names, restrict_phi(result.dsb.phi, members), result.dsb.ops[members])


def check_partition_constancy(group: FiniteGroup, config: EnumerationConfig | None = None) -> None:
    """part(S) is constant on every component of the full family."""
    config = config or EnumerationConfig()
    space = KeySpace(group, unital=False, config=config)
    tables = space.translation_table()
    keys = np.arange(space.size, dtype=KEY_DTYPE)
    mat = _partition_matrix(space, keys)
    for ta in tables:
        if not (mat == mat[ta]).all():
            bad = int(np.argwhere((mat != mat[ta]).any(axis=1))[0][0])
            raise AssertionError(f"partition profile changes along an arrow at key {bad}")
