"""Enumeration of the maximal families of regular subsets and their invariants.

The assignment space is the set of maps (group element -> automorphism index),
packed big-endian into int32 keys so ascending key order is the canonical
lexicographic order.  Spaces above 2**31 - 1 keys are refused with a
resource-cap error whatever the configured cap.  Translation is one kernel
over a two-level contribution table built once per space: pair b of S lands on
a fixed element with a fixed automorphism once f_a is known, so its share of
the target key depends only on (a, f_a, f_b).  Summing those shares over the
low and over the high digits of a key ``h * W + l`` gives tables
``low[a, f, l]`` and ``high[a, f, h]``, and a translate is
``high[a, f_a, h] + low[a, f_a, l]``: two lookups and one add.  The kernel,
:meth:`KeySpace.translation_table`, fills the translates of a run of whole high
rows, and every streaming loop asks it for one block of rows at a time through
one block iterator and one reused buffer, so the census never holds a
whole-space table.  Component structure comes from minimum propagation along
translation images in one int32 label array: a gather-free first pass, exact on
unital spaces because their components are complete quivers, then a fixpoint
pass lowered in place block by block.  The component sizes are the run lengths
of the label array sorted in place, counted block by block into a histogram,
so the census holds that one 4-byte-per-key array and buffers of
O(n * BLOCK_KEYS); the table of component counts is exact.  Materialising a
family builds the ``(K, n)`` digits and ``phi`` per key block and the
component report, and nothing else per vertex but its name; the family is
the quiver of those arrays, and the unital flags are a view of them.  The
dynamical skew brace, whose ``(K, n, n)`` ops
(:func:`~dynbrace.structures.dsb_ops` of the digits) are the bulk of a
family, is built when :attr:`EnumerationResult.dsb` is first read, from
arrays the materialisation has already validated.  The checks of a
family read those arrays too, so only the census and materialisation build a
key space.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceCapError
from .groups import FiniteGroup, automorphism_group
from .holomorph import DEFAULT_CAP, holomorph
from .quivers import ComponentReport, QuiverBase, component_report, restrict_phi, uneven_rows, validate_phi
from .structures import (
    LABEL_DTYPE,
    VERTEX_DTYPE,
    DynamicalSkewBrace,
    dsb_ops,
    make_dsb,
)

#: Above this many vertices the per-component partition listing is omitted.
PARTITION_LISTING_LIMIT = 65536

#: One dtype for keys, digits, translation tables and component labels.
KEY_DTYPE = np.int32
#: Largest space whose keys fit :data:`KEY_DTYPE`.
KEY_LIMIT = int(np.iinfo(KEY_DTYPE).max)


#: Keys per block of the key-space loops (:func:`component_labels`,
#: materialisation), rounded down to whole high rows of W keys and up to at
#: least one row; also labels per block of the census size count and ``phi``
#: rows per block of :func:`initial_counts` and :func:`check_partition_constancy`.
BLOCK_KEYS = 1 << 14
#: Bound on W, the number of low values of the two-level contribution table.
LOW_KEYS = 4096


class KeySpace:
    """Packed key arithmetic for the unital or the full assignment space.

    A key is split as ``h * W + l``: l holds the last j digits, where W = |Aut|^j
    is the largest power of |Aut| not above :data:`LOW_KEYS` with j <= n - 1,
    and h holds the rest, the identity's digit always among them.  For every
    label a the space keeps ``low[a, f, l]`` and ``high[a, f, h]``, the shares of the low
    and the high pairs of S in the key of its translate along a when f_a = f,
    so a translate is two lookups and one add.  Both tables together have
    n * |Aut| * (W + K/W) entries.
    """

    def __init__(self, group: FiniteGroup, unital: bool, *, cap: int = DEFAULT_CAP):
        self.group = group
        self.unital = unital
        n = group.order
        radix = len(automorphism_group(group))
        self.n = n
        self.radix = radix
        self.size = radix ** (n - 1) if unital else radix**n
        cap = min(cap, KEY_LIMIT)
        if self.size > cap:
            raise ResourceCapError(self.size, cap, "regular subsets")
        weights = [radix ** (n - 1 - c) for c in range(n)]
        if unital:
            weights[0] = 0
        self.weights = np.array(weights, dtype=KEY_DTYPE)
        self.unital_size = radix ** (n - 1)
        # j low digits, at most n - 1 (radix 1 never exceeds LOW_KEYS), so the
        # identity's digit is high and k0 = |Aut|^(n-1) is a row boundary
        low_digits = 0
        while low_digits < n - 1 and radix ** (low_digits + 1) <= LOW_KEYS:
            low_digits += 1
        self.low_size = radix**low_digits
        self.high_size = self.size // self.low_size
        self._split = n - low_digits  # positions >= split are low digits
        self._low, self._high = self._contribution_tables()
        # per label a: f_a over the part (low values l or high values h) holding
        # digit a, and the own share of that part, low[a, f_a(l), l] or high[a, f_a(h), h]
        self._own_digit, self._own_share = [], []
        for a in range(n):
            shares = self._low[a] if a >= self._split else self._high[a]
            values = np.arange(shares.shape[1], dtype=np.intp)
            f = self._part_digit(values, a)
            self._own_digit.append(f)
            self._own_share.append(shares[f, values])

    def _part_digit(self, part: np.ndarray, c: int) -> np.ndarray:
        """Digit c of keys, read from the part (low values l or high values h) holding it."""
        w = int(self.weights[c])
        if c < self._split:
            w //= self.low_size
        if w == 0:
            return np.zeros(part.shape, dtype=np.intp)
        return (part // w) % self.radix

    def _contribution_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(n, radix, W)`` low and ``(n, radix, K/W)`` high share tables.

        (a, f)^-1 * (b, d) = (f^-1(a^-1 b), f^-1 o d), so pair b contributes
        digit f^-1 o d at position ``act[f^-1, a^-1 b]``; pair a itself
        lands on the identity pair, whose digit is 0.  The identity pair of a
        unital S has weight 0 and digit 0, so its share sits in every high row.
        """
        n, radix = self.n, self.radix
        hol = holomorph(self.group)
        fi = hol.ainv.astype(np.intp)
        quotient = self.group.table[self.group.inverses]  # (a, b) -> a^-1 b
        pos = hol.act[fi][:, quotient].transpose(1, 2, 0)  # (a, b, f) -> position
        # (f, d) -> digit; below the cap, so |Aut|^2 is small
        digit = hol.compose(fi[:, None], np.arange(radix)).astype(KEY_DTYPE)
        share = self.weights[pos][:, :, :, None] * digit[None, None, :, :]  # (a, b, f, d)
        low = np.zeros((n, radix, self.low_size), dtype=KEY_DTYPE)
        high = np.zeros((n, radix, self.high_size), dtype=KEY_DTYPE)
        for b in range(n):
            target = low if b >= self._split else high
            d = self._part_digit(np.arange(target.shape[2], dtype=np.intp), b)
            for a in range(n):
                if a != b:
                    target[a] += share[a, b][:, d]
        return low, high

    def digit(self, keys: np.ndarray, position: int) -> np.ndarray:
        w = int(self.weights[position])
        if w == 0:
            return np.zeros(keys.shape, dtype=KEY_DTYPE)
        return ((keys // w) % self.radix).astype(KEY_DTYPE, copy=False)

    def digits(self, keys: np.ndarray) -> list[np.ndarray]:
        return [self.digit(keys, c) for c in range(self.n)]

    def translation_table(
        self, lo: int = 0, hi: int | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Translation images of the keys ``[lo, hi)``, one row per label.

        Returns an ``(n, hi - lo)`` array, row a holding the translates along
        a; with no range that is the whole-space table.  The range must be
        whole high rows: ``lo`` and ``hi`` multiples of W (K is one).  ``out``,
        an ``(n, m)`` buffer with m >= hi - lo, is filled and its leading
        columns returned.  Row a, viewed as high rows by low columns, is one
        rectangle: when digit a is low, every row is the same gather of high
        shares by f_a(l) plus the own shares ``low[a, f_a(l), l]``; when it is
        high, each row is one row of low shares plus the own share
        ``high[a, f_a(h), h]``.
        """
        hi = self.size if hi is None else hi
        width = self.low_size
        if not 0 <= lo <= hi <= self.size or lo % width or hi % width:
            raise ValueError(f"keys [{lo}, {hi}) are not whole rows of {width} keys")
        if out is None:
            out = np.empty((self.n, hi - lo), dtype=KEY_DTYPE)
        else:
            out = out[:, :hi - lo]
        h0, h1 = lo // width, hi // width
        # every f below is a digit in [0, radix); "wrap" lets take write without a buffer
        for a in range(self.n):
            f, own = self._own_digit[a], self._own_share[a]
            block = out[a].reshape(h1 - h0, width)
            if a >= self._split:
                np.take(self._high[a, :, h0:h1].T, f, axis=1, out=block, mode="wrap")
                block += own
            else:
                np.take(self._low[a], f[h0:h1], axis=0, out=block, mode="wrap")
                block += own[h0:h1, None]
        return out

    def translates_in_range(self) -> bool:
        """Whether every translate the share tables can form lies in ``[0, K)``.

        A translate is ``high[a, f, h] + low[a, f, l]``, so bounding, for each
        (a, f), the least and the greatest high share plus the least and the
        greatest low share bounds every translate of the space at once.
        """
        wide = np.int64  # the sums of two int32 shares may overflow int32
        least = self._high.min(axis=2).astype(wide) + self._low.min(axis=2)
        most = self._high.max(axis=2).astype(wide) + self._low.max(axis=2)
        return bool(least.min() >= 0 and most.max() < self.size)


def _block_buffer(space: KeySpace) -> np.ndarray:
    """The ``(n, block)`` buffer of :func:`_blocks`: ``max(1, BLOCK_KEYS // W)``
    whole high rows, or the whole space when that is smaller."""
    rows = max(1, BLOCK_KEYS // space.low_size)
    return np.empty((space.n, min(rows * space.low_size, space.size)), dtype=KEY_DTYPE)


def _blocks(space: KeySpace, buf: np.ndarray):
    """``(lo, hi, translates)`` per block of the keys, each block's translates
    written into ``buf`` by :meth:`KeySpace.translation_table`."""
    for start in range(0, space.size, buf.shape[1]):
        stop = min(start + buf.shape[1], space.size)
        yield start, stop, space.translation_table(start, stop, out=buf)


def component_labels(space: KeySpace) -> np.ndarray:
    """Per-key component label: the minimal key of the component.

    One int32 label array, lowered in place.  Both passes walk the blocks of
    :func:`_blocks`, whole high rows whose translates fill one ``(n, block)``
    buffer reused across passes, so no whole-space table is built.  The labels
    start as the keys themselves, so the first pass is the minimum over each
    block's translates with no gather.  The fixpoint pass gathers the labels
    of each block's targets into a block-sized buffer and writes the block's
    minimum back; it repeats until a whole pass changes nothing.  Labels only
    decrease and always name a key reachable from their vertex, and a pass
    without change leaves every label at most the labels of its targets, so
    each label is the minimum over the forward-reachable set.  For unital
    spaces the first pass is already exact because every out-neighbourhood is
    the whole component; the fixpoint pass checks it.
    """
    if not space.translates_in_range():
        raise AssertionError("a translation image lies outside the key space")
    buf = _block_buffer(space)
    comp = np.arange(space.size, dtype=KEY_DTYPE)
    for lo, hi, targets in _blocks(space, buf):
        block = comp[lo:hi]
        for ta in targets:
            np.minimum(block, ta, out=block)
    gather_buf = np.empty(buf.shape[1], dtype=KEY_DTYPE)
    least_buf = np.empty_like(gather_buf)
    changed = True
    while changed:
        changed = False
        for lo, hi, targets in _blocks(space, buf):
            block = comp[lo:hi]
            least, gathered = least_buf[:block.size], gather_buf[:block.size]
            np.copyto(least, block)
            for ta in targets:
                # in range by the check above; "wrap" lets take write without a buffer
                np.take(comp, ta, out=gathered, mode="wrap")
                np.minimum(least, gathered, out=least)
            if not np.array_equal(least, block):
                np.copyto(block, least)
                changed = True
    return comp


def _partition_matrix(digits: np.ndarray, radix: int) -> np.ndarray:
    """Row per ``(m, n)`` digits row: automorphism multiplicities sorted decreasingly."""
    counts = np.zeros((digits.shape[0], radix), dtype=np.int16)
    rows = np.arange(digits.shape[0], dtype=np.intp)
    for column in digits.T:
        counts[rows, column] += 1
    return -np.sort(-counts, axis=1)


@dataclass(frozen=True)
class InvariantTable:
    """Component-size census N_s of the unital family plus initial-vertex data."""

    group_name: str
    order: int
    aut_order: int
    vertex_count: int
    counts: Mapping[int, int]
    partitions: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...] | None

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.counts)

    @property
    def initial_counts(self) -> dict[int, int]:
        """in_s = s * (|Aut| - 1), the closed form :func:`initial_counts`
        verifies on a materialised full family."""
        return {s: s * (self.aut_order - 1) for s in self.counts}

    @property
    def partitions_omitted(self) -> int:
        """The number of components when their listing is omitted, else 0."""
        return 0 if self.partitions is not None else sum(self.counts.values())

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
        return problems


def invariants(group: FiniteGroup, *, cap: int = DEFAULT_CAP) -> InvariantTable:
    """Component-size counts of the maximal unital family, streaming.

    The labels of :func:`component_labels` are sorted in place; each
    component is then one run, roots ascending.  The run lengths are counted
    in one pass over blocks of :data:`BLOCK_KEYS` labels, the open run carried
    across each block boundary, into a histogram of sizes; the run starts are
    kept only while there are few enough to list, so the census holds no
    array of one entry per key besides the labels.  The relation
    sum(s * N_s) = |Aut|^(|A|-1) and the divisibility constraint are
    asserted; initial-vertex counts use the closed form s*(|Aut|-1), which
    :func:`initial_counts` verifies on a materialised full family.
    """
    space = KeySpace(group, unital=True, cap=cap)
    comp = component_labels(space)
    comp.sort()  # in place: each component becomes one run, roots ascending
    hist = np.zeros(0, dtype=np.intp)  # hist[s]: runs of length s closed so far
    listed = [np.zeros(1, dtype=np.intp)]  # run starts, while the runs fit the listing
    runs, open_start = 1, 0
    for lo in range(1, comp.size, BLOCK_KEYS):
        hi = min(lo + BLOCK_KEYS, comp.size)
        starts = np.flatnonzero(comp[lo:hi] != comp[lo - 1:hi - 1]) + lo
        if starts.size:
            hist = _add_counts(hist, np.diff(starts, prepend=open_start))
            open_start = int(starts[-1])
            runs += starts.size
            if runs <= PARTITION_LISTING_LIMIT:
                listed.append(starts)
    hist = _add_counts(hist, [comp.size - open_start])
    counts = {s: int(hist[s]) for s in np.flatnonzero(hist).tolist()}
    partitions = None
    if runs <= PARTITION_LISTING_LIMIT:
        starts = np.concatenate(listed)
        partitions = _component_partitions(space, comp[starts], np.diff(starts, append=comp.size))
    table = InvariantTable(
        group_name=group.name,
        order=group.order,
        aut_order=space.radix,
        vertex_count=space.size,
        counts=counts,
        partitions=partitions,
    )
    problems = table.check_relations()
    if problems:
        raise AssertionError("invariant relations failed: " + "; ".join(problems))
    return table


def _add_counts(hist: np.ndarray, lengths) -> np.ndarray:
    """``hist`` plus the counts of ``lengths``, grown to the longest length."""
    out = np.bincount(lengths, minlength=hist.size)
    out[:hist.size] += hist
    return out


def _component_partitions(space: KeySpace, roots: np.ndarray, sizes: np.ndarray):
    """(size, representative digits, partition profile) per component root."""
    digits = np.stack(space.digits(roots), axis=1)
    profiles = _partition_matrix(digits, space.radix)
    return tuple(
        (s, tuple(rep), tuple(v for v in profile if v))
        for s, rep, profile in zip(sizes.tolist(), digits.tolist(), profiles.tolist())
    )


@dataclass(frozen=True)
class InitialCountsResult:
    per_component: tuple[tuple[int, int, int], ...]  # (component root, size, initial count)
    by_size: Mapping[int, int]


def initial_counts(result: EnumerationResult) -> InitialCountsResult:
    """Initial-vertex counts per component of a materialised full family, verified.

    Checks in_K = s * (|Aut| - 1) for every component, that all arrows of an
    initial vertex land in a single component, and that they are equidistributed
    with |A|/s parallel arrows onto each unital vertex of that component.  The
    identity's digit has the highest weight, so the unital vertices are the
    first k0 keys and the components holding them, numbered by least key, come
    first; the initial rows of ``phi`` are read in blocks of :data:`BLOCK_KEYS`.
    """
    if not result.full:
        raise ValueError("initial counts need the full family")
    phi, report = result.phi, result.components
    component_of, n = report.component_of, phi.shape[1]
    k0 = int(np.count_nonzero(result.unital_flags))
    unital_sizes = np.bincount(component_of[:k0])  # s per unital component
    step = np.where(n % unital_sizes == 0, n // unital_sizes, 0)
    for lo in range(k0, phi.shape[0], BLOCK_KEYS):
        rows, comps = phi[lo:lo + BLOCK_KEYS], component_of[lo:lo + BLOCK_KEYS]
        if comps.max() >= unital_sizes.size:
            raise AssertionError("an initial vertex is attached to no unital component")
        if (component_of[rows] != comps[:, None]).any():
            raise AssertionError("an initial vertex has arrows into two components")
        uneven = uneven_rows(rows, step[comps])
        if uneven.any():
            raise AssertionError(
                f"initial vertex {lo + int(np.argmax(uneven))} is not equidistributed over its component"
            )

    aut_order = len(automorphism_group(result.group))
    initial = np.bincount(component_of[k0:], minlength=unital_sizes.size)
    roots = report.order[report.starts[:unital_sizes.size]]
    by_size: dict[int, int] = {}
    out = []
    for root, s, cnt in zip(roots.tolist(), unital_sizes.tolist(), initial.tolist()):
        if cnt != s * (aut_order - 1):
            raise AssertionError(
                f"component {root} of size {s} has {cnt} initial vertices, expected {s * (aut_order - 1)}"
            )
        by_size[s] = cnt
        out.append((root, s, cnt))
    return InitialCountsResult(tuple(out), dict(sorted(by_size.items())))


@dataclass(frozen=True, eq=False)
class EnumerationResult(QuiverBase):
    """Materialised family: the ``(K, n)`` assignment digits, the vertex
    names, the transition array ``phi`` and the component report.

    The family is its quiver, labelled by the group's elements; the unital
    flags are a view of the digits, and the dynamical skew brace is built
    when it is first read.
    """

    group: FiniteGroup
    assignments: np.ndarray
    vertex_names: tuple[str, ...]
    phi: np.ndarray
    components: ComponentReport
    full: bool

    @property
    def label_names(self) -> tuple[str, ...]:
        return self.group.names

    @property
    def unital_flags(self) -> np.ndarray:
        """Per vertex, whether the identity carries the identity automorphism."""
        return self.assignments[:, self.group.identity] == 0

    @cached_property
    def dsb(self) -> DynamicalSkewBrace:
        # no second validation: _materialise knows its names and phi are good, and
        # every cell of dsb_ops is an entry of the group table
        ops = dsb_ops(self.group, self.assignments)
        ops.setflags(write=False)
        return DynamicalSkewBrace(self.group, self.vertex_names, self.phi, ops)


def _materialise(group: FiniteGroup, space: KeySpace, named: Mapping[tuple, str] | None) -> EnumerationResult:
    comp = component_labels(space)
    size, n = space.size, space.n
    k0 = space.unital_size

    # phi and digits per key block, straight into their final dtype
    phi = np.empty((size, n), dtype=VERTEX_DTYPE)
    digits = np.empty((size, n), dtype=LABEL_DTYPE)
    for lo, hi, targets in _blocks(space, _block_buffer(space)):
        keys = np.arange(lo, hi, dtype=KEY_DTYPE)
        phi[lo:hi] = targets.T
        block = digits[lo:hi]
        for c in range(n):
            block[:, c] = space.digit(keys, c)
    del targets  # frees the block buffer: the peak comes later, in the component report
    digits.setflags(write=False)

    # only bundled names can repeat: the default ones are distinct, and every
    # target in phi is a key, as component_labels checked every translate
    names = tuple(f"s{k}" if k < k0 else f"r{k - k0}" for k in range(size))
    if named:
        names, phi = validate_phi(tuple(map(named.get, map(tuple, digits.tolist()), names)), phi, n)
    phi.setflags(write=False)
    return EnumerationResult(
        group=group,
        assignments=digits,
        vertex_names=names,
        phi=phi,
        # keys are vertex indices, so the minimal-key labels are minimal-vertex labels
        components=component_report(phi, comp),
        full=not space.unital,
    )


def enumerate_unital(
    group: FiniteGroup,
    named: Mapping[tuple, str] | None = None,
    *,
    cap: int = DEFAULT_CAP,
) -> EnumerationResult:
    """Materialise the maximal unital family as one quiver with its structure."""
    return _materialise(group, KeySpace(group, unital=True, cap=cap), named)


def enumerate_full(
    group: FiniteGroup,
    named: Mapping[tuple, str] | None = None,
    *,
    cap: int = DEFAULT_CAP,
) -> EnumerationResult:
    """Materialise the maximal family including initial vertices."""
    return _materialise(group, KeySpace(group, unital=False, cap=cap), named)


def component_dsb(result: EnumerationResult, component: int) -> DynamicalSkewBrace:
    """Extract one component as a stand-alone structure, vertices re-indexed;
    only the members' ops are built."""
    members = result.components.members[component]
    names = [result.vertex_names[v] for v in members.tolist()]
    ops = dsb_ops(result.group, result.assignments[members])
    return make_dsb(result.group, names, restrict_phi(result.phi, members), ops)


def check_partition_constancy(result: EnumerationResult) -> None:
    """part(S) is constant on every component of a materialised family: no
    arrow of ``phi`` joins two vertices of different profiles."""
    profiles = _partition_matrix(result.assignments, len(automorphism_group(result.group)))
    phi = result.phi
    for lo in range(0, phi.shape[0], BLOCK_KEYS):
        block = profiles[lo:lo + BLOCK_KEYS]
        for ta in phi[lo:lo + BLOCK_KEYS].T:
            changes = (block != profiles[ta]).any(axis=1)
            if changes.any():
                bad = lo + int(np.argmax(changes))
                raise AssertionError(f"partition profile changes along an arrow at key {bad}")
