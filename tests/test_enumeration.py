import dataclasses
import tracemalloc

import numpy as np
import pytest

import dynbrace.cli as cli
import dynbrace.enumeration as enumeration
from dynbrace.enumeration import (
    KEY_DTYPE,
    KeySpace,
    check_partition_constancy,
    component_dsb,
    component_labels,
    enumerate_full,
    initial_counts,
    invariants,
)
from dynbrace.errors import ResourceCapError
from dynbrace.groups import automorphism_group
from dynbrace.quivers import component_report, connected_components, homogeneous_weight, labels
from dynbrace.structures import is_zero_symmetric, verify_dsb

from tests import _golden
from tests._golden import Z3_INITIAL_ARROWS, translate
from tests._identities import check_inverse_lemma, check_translation_composition
from tests.conftest import cached_full, cached_group, cached_unital


def test_unital_sizes():
    assert cached_unital("cyclic:3").vertex_count == 4
    assert cached_unital("cyclic:3").phi.size == 12
    assert cached_unital("cyclic:4").vertex_count == 8
    assert cached_unital("cyclic:4").phi.size == 32
    assert cached_unital("klein4").vertex_count == 216


def test_full_sizes():
    assert cached_full("cyclic:3").vertex_count == 8
    assert cached_full("trivial").vertex_count == 1
    assert cached_full("trivial").phi.size == 1


def test_vertices_in_canonical_order():
    result = cached_unital("cyclic:4")
    assignments = [tuple(row) for row in result.assignments.tolist()]
    assert assignments == sorted(assignments)


def test_unital_enumeration_is_zero_symmetric_and_homogeneous():
    for name in ("cyclic:3", "cyclic:4", "klein4"):
        result = cached_unital(name)
        assert is_zero_symmetric(result.dsb)
        assert homogeneous_weight(result.components) == result.group.order


def test_full_enumeration_marks_initial_vertices():
    result = cached_full("cyclic:3")
    assert sum(result.unital_flags) == 4
    initial_names = [n for n, u in zip(result.vertex_names, result.unital_flags) if not u]
    assert sorted(initial_names) == ["r0", "r1", "r2", "r3"]


def test_initial_vertex_arrows_land_on_unital_vertices():
    for name in ("cyclic:3", "cyclic:4", "sym:3"):
        result = cached_full(name)
        for v, unital in enumerate(result.unital_flags):
            if unital:
                continue
            for target in result.dsb.phi[v]:
                assert result.unital_flags[int(target)]


def test_full_cyclic3_initial_arrows_match_named_family():
    from dynbrace.families import seeded_names
    from dynbrace.enumeration import enumerate_full

    group = cached_group("cyclic:3")
    result = enumerate_full(group, seeded_names("cyclic:3", True))
    name_to_index = {n: i for i, n in enumerate(result.vertex_names)}
    for rname, arrows in Z3_INITIAL_ARROWS.items():
        v = name_to_index[rname]
        for label, target in arrows.items():
            assert result.vertex_names[int(result.dsb.phi[v, label])] == target


INVARIANT_TABLES = {
    "cyclic:3": {1: 1, 3: 1},
    "cyclic:4": {1: 2, 2: 1, 4: 1},
    "klein4": {1: 4, 2: 6, 4: 50},
    "cyclic:5": {1: 1, 5: 51},
}


@pytest.mark.parametrize("name,expected", sorted(INVARIANT_TABLES.items()))
def test_invariant_tables(name, expected):
    table = invariants(cached_group(name))
    assert dict(table.counts) == expected


def test_invariant_relation_and_divisibility():
    for name in ("cyclic:6", "sym:3", "cyclic:7", "cyclic:8"):
        table = invariants(cached_group(name))
        total = sum(s * c for s, c in table.counts.items())
        assert total == table.aut_order ** (table.order - 1)
        assert all(table.order % s == 0 for s in table.counts)


def test_isolated_vertices_equal_regular_subgroup_count():
    # N_1 counts the one-vertex components: families fixed by all translations
    for name in ("cyclic:3", "cyclic:4", "klein4"):
        group = cached_group(name)
        count = 0
        result = cached_unital(name)
        for row in result.assignments.tolist():
            s = tuple(row)
            if all(translate(s, a, group) == s for a in range(group.order)):
                count += 1
        assert count == invariants(group).count(1)


def test_initial_counts_values():
    assert initial_counts(cached_full("cyclic:3")).by_size == {1: 1, 3: 3}
    assert initial_counts(cached_full("trivial")).by_size == {1: 0}
    assert initial_counts(cached_full("cyclic:4")).by_size == {1: 1, 2: 2, 4: 4}


def test_initial_counts_formula_against_full_family():
    for name in ("cyclic:3", "cyclic:4", "cyclic:5", "klein4"):
        group = cached_group(name)
        table = invariants(group)
        result = initial_counts(cached_full(name))
        for s, value in result.by_size.items():
            assert value == s * (table.aut_order - 1)


def test_full_family_size_double_check():
    # sum over components of (s + in_s) * N_s equals the full-space size
    for name in ("cyclic:3", "cyclic:4", "cyclic:5", "klein4", "cyclic:6"):
        group = cached_group(name)
        table = invariants(group)
        radix = len(automorphism_group(group))
        total = sum((s + table.initial_counts[s]) * c for s, c in table.counts.items())
        assert total == radix**group.order


def shipped_profile(result, assignment) -> tuple[int, ...]:
    """The partition profile of one vertex of a materialised family, as
    ``invariants`` prints it: its row of the shipped profile matrix."""
    profiles = enumeration._partition_matrix(result.assignments, len(automorphism_group(result.group)))
    row = profiles[result.assignments.tolist().index(list(assignment))]
    return tuple(v for v in row.tolist() if v)


def test_partition_profiles():
    result = cached_unital("cyclic:4")
    assert shipped_profile(result, (0, 1, 1, 1)) == (3, 1)
    assert shipped_profile(result, (0, 0, 0, 0)) == (4,)


def test_partition_equal_but_components_distinct():
    s1, s2 = (0, 1, 0, 1), (0, 0, 1, 1)
    result = cached_unital("cyclic:4")
    assert shipped_profile(result, s1) == shipped_profile(result, s2) == (2, 2)
    rows = result.assignments.tolist()
    idx1 = rows.index(list(s1))
    idx2 = rows.index(list(s2))
    assert result.components.component_of[idx1] != result.components.component_of[idx2]


@pytest.mark.parametrize("name", ["cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "klein4", "sym:3"])
def test_partition_constant_on_components(name):
    check_partition_constancy(cached_full(name))


def test_component_labels_match_union_find():
    # the vectorised component labelling agrees with the generic union-find
    for name in ("cyclic:4", "klein4", "cyclic:5"):
        result = cached_unital(name)
        report = connected_components(result.phi)
        for field in ("component_of", "order", "starts", "rank"):
            assert np.array_equal(getattr(report, field), getattr(result.components, field))
        assert report.degrees == result.components.degrees


def test_component_labels_on_full_families():
    # initial vertices join their unital component; the loop's checking pass
    # must agree with the quiver's own labelling
    for name in ("cyclic:4", "klein4", "sym:3"):
        result = cached_full(name)
        space = KeySpace(result.group, unital=False)
        assert np.array_equal(component_labels(space), labels(result.dsb.phi))


class _TableSpace:
    """A key space whose translates along each label are the given arrays, so
    :func:`component_labels` can be driven with arbitrary functional tables."""

    low_size = 1

    def __init__(self, tables: list[np.ndarray]):
        self._tables = np.stack(tables)
        self.n, self.size = self._tables.shape

    def translates_in_range(self) -> bool:
        return bool(self._tables.min() >= 0 and self._tables.max() < self.size)

    def translation_table(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        out = out[:, :hi - lo]
        out[...] = self._tables[:, lo:hi]
        return out


def test_component_labels_run_to_fixpoint():
    # arbitrary permutations need many passes, unlike translation tables
    rng = np.random.default_rng(11)
    size = KeySpace(cached_group("cyclic:5"), unital=True).size
    tables = [rng.permutation(size).astype(KEY_DTYPE) for _ in range(2)]
    assert np.array_equal(component_labels(_TableSpace(tables)), labels(np.stack(tables, axis=1)))


def _tampered(result, edits):
    """A copy of the materialised ``result`` with ``phi[v, a] = w`` for each
    ``(v, a, w)`` of ``edits``, its report recomputed from the forward-minimum
    labels of the new ``phi``, as materialisation computes it."""
    phi = result.phi.copy()
    for v, a, w in edits:
        phi[v, a] = w
    forward = component_labels(_TableSpace(list(phi.T.astype(KEY_DTYPE))))
    return dataclasses.replace(result, phi=phi, components=component_report(phi, forward))


# cyclic:4, full: keys 0-7 are unital, in components rooted at 0, 1, 3 and 5
# of sizes 1, 4, 2 and 1; initial vertex 9 maps to (3, 3, 6, 6), 10 to
# (5, 5, 5, 5) and 11 to (1, 7, 4, 2)
@pytest.mark.parametrize("edits,message", [
    pytest.param([(9, a, 9) for a in range(4)],
                 "an initial vertex is attached to no unital component", id="unattached"),
    pytest.param([(9, 0, 0)], "an initial vertex has arrows into two components", id="two-components"),
    pytest.param([(11, 0, 7)], "initial vertex 11 is not equidistributed over its component", id="uneven"),
    pytest.param([(9, a, 5) for a in range(4)],
                 "component 3 of size 2 has 1 initial vertices, expected 2", id="count"),
])
def test_initial_counts_failures_name_their_vertex(edits, message):
    result = cached_full("cyclic:4")
    assert initial_counts(result).by_size == {1: 1, 2: 2, 4: 4}
    with pytest.raises(AssertionError) as info:
        initial_counts(_tampered(result, edits))
    assert str(info.value) == message


def test_partition_constancy_failure_names_its_key():
    # key 12 has profile (2, 2); key 0, the identity subset, has (4,)
    result = cached_full("cyclic:4")
    check_partition_constancy(result)
    with pytest.raises(AssertionError) as info:
        check_partition_constancy(_tampered(result, [(12, 1, 0)]))
    assert str(info.value) == "partition profile changes along an arrow at key 12"


def test_initial_counts_need_the_full_family():
    with pytest.raises(ValueError, match="full family"):
        initial_counts(cached_unital("cyclic:4"))


def test_enumerate_full_labels_the_space_once(monkeypatch, capsys):
    sizes = []

    def counted(space):
        sizes.append(space.size)
        return component_labels(space)

    monkeypatch.setattr(enumeration, "component_labels", counted)
    assert cli.main(["enumerate", "--group", "cyclic:4", "--full"]) == 0
    assert "initial vertices into component of size 4: 4" in capsys.readouterr().out
    assert sizes == [16]


def _least_reachable(tables: list[np.ndarray]) -> np.ndarray:
    """Brute force: the least key of each key's forward-reachable set."""
    size = tables[0].size
    out = np.empty(size, dtype=KEY_DTYPE)
    for key in range(size):
        seen, stack = {key}, [key]
        while stack:
            vertex = stack.pop()
            for ta in tables:
                target = int(ta[vertex])
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        out[key] = min(seen)
    return out


def test_component_labels_fixpoint_in_place_by_blocks(monkeypatch):
    # functional, non-bijective tables: minima travel backwards along chains,
    # so the fixpoint needs several passes and updates crossing 7-key blocks
    monkeypatch.setattr(enumeration, "BLOCK_KEYS", 7)
    rng = np.random.default_rng(23)
    size = KeySpace(cached_group("cyclic:5"), unital=True).size
    for count in (1, 2, 3):
        tables = [rng.integers(0, size, size).astype(KEY_DTYPE) for _ in range(count)]
        first_pass = np.minimum.reduce([np.arange(size, dtype=KEY_DTYPE), *tables])
        expected = _least_reachable(tables)
        assert not np.array_equal(first_pass, expected)
        got = component_labels(_TableSpace(tables))
        assert got.dtype == KEY_DTYPE and np.array_equal(got, expected)


def test_streamed_component_labels_hold_one_label_array(monkeypatch):
    # cyclic:8 unital: 16,384 keys and W = 4096, so 4096-key blocks are one
    # high row each, four blocks; the labelling keeps one int32 label array
    # plus buffers of O(n * BLOCK_KEYS) bytes
    block = 4096
    monkeypatch.setattr(enumeration, "BLOCK_KEYS", block)
    space = KeySpace(cached_group("cyclic:8"), unital=True)
    assert space.size == 16384 and space.low_size == 4096
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        comp = component_labels(space)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert comp.nbytes == 4 * space.size
    assert peak < comp.nbytes + 16 * space.n * block
    assert np.array_equal(comp, labels(np.stack(space.translation_table(), axis=1)))


@pytest.mark.parametrize("unital", [True, False])
@pytest.mark.parametrize("where", [(0, 1, 0), (0, 1, 1), (1, 2, 0), (7, 3, 3)])
def test_streamed_labels_reject_corrupt_share_tables(unital, where):
    # one share entry pushed past either end of the key space: the streamed
    # path bounds every translate from the share tables before its first take
    a, f, index = where
    for table in ("_high", "_low"):
        for below in (True, False):
            space = KeySpace(cached_group("cyclic:8"), unital=unital)
            assert space.translates_in_range()
            getattr(space, table)[a, f, index] = -space.size if below else space.size
            with pytest.raises(AssertionError, match="outside the key space"):
                component_labels(space)


# radix 6 (cyclic:7: W = 1296 and 36 high values), radix 8 split 8^4 x 8^3 or
# 8^4 x 8^4, and radix 1 (trivial, cyclic:2), where the space is one key
KERNEL_PRESETS = ("trivial", "cyclic:2", "cyclic:4", "klein4", "sym:3", "cyclic:7",
                  "prod:cyclic:2,cyclic:4", "dihedral:4")


def _assignment_of(space: KeySpace, key: int) -> tuple[int, ...]:
    """The digits of one key, by scalar arithmetic."""
    return tuple((key // w) % space.radix if w else 0 for w in space.weights.tolist())


def _scalar_translates(space: KeySpace, key: int) -> list[tuple[int, ...]]:
    """The assignments of the n translates of one key, by the scalar translate."""
    subset = _assignment_of(space, key)
    return [translate(subset, a, space.group) for a in range(space.n)]


def test_translate_keys_against_scalar_translate():
    # the kernel on the high row of each sampled key; full spaces take it
    # through a nonzero identity digit
    rng = np.random.default_rng(5)
    for name in KERNEL_PRESETS:
        group = cached_group(name)
        for unital in (True, False):
            space = KeySpace(group, unital=unital)
            keys = rng.integers(0, space.size, size=min(80, space.size), dtype=KEY_DTYPE)
            for key in keys.tolist():
                lo = key - key % space.low_size
                row = space.translation_table(lo, lo + space.low_size)
                assert row.dtype == KEY_DTYPE
                targets = row[:, key - lo].tolist()
                assert [_assignment_of(space, t) for t in targets] == _scalar_translates(space, key)


# every preset of order <= 7
SMALL_PRESETS = ("trivial", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "cyclic:7",
                 "klein4", "prod:cyclic:2,cyclic:2", "prod:cyclic:2,cyclic:3", "sym:3", "dihedral:3")


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_translation_table_is_translate_keys(name):
    # the whole-space table against the scalar translate on every key of a
    # space up to 4096 keys, else on sampled keys, the first and the last key
    # and both sides of k0 among them
    group = cached_group(name)
    rng = np.random.default_rng(7)
    for unital in (True, False):
        space = KeySpace(group, unital=unital)
        tables = space.translation_table()
        assert tables.shape == (group.order, space.size) and tables.dtype == KEY_DTYPE
        k0 = space.unital_size
        keys = {0, k0 - 1, k0 % space.size, space.size - 1, *rng.integers(0, space.size, 40).tolist()}
        for key in range(space.size) if space.size <= 4096 else sorted(keys):
            targets = tables[:, key].tolist()
            assert [_assignment_of(space, t) for t in targets] == _scalar_translates(space, key)


def _kernel_ranges(space: KeySpace) -> list[tuple[int, int]]:
    """Whole-row key ranges: the whole space, the first and the last row, an
    empty run, runs of rows, and in full spaces the rows on both sides of k0."""
    size, width, rows = space.size, space.low_size, space.high_size
    ranges = [(0, size), (0, width), (size - width, size), (width, width),
              (rows // 3 * width, (rows - rows // 5) * width)]
    if rows > 2:
        ranges.append((width, 3 * width))
    if not space.unital:
        k0 = space.unital_size
        ranges += [(k0 - width, k0 + width), (k0, size)]
    return [(lo, hi) for lo, hi in ranges if 0 <= lo <= hi <= size]


@pytest.mark.parametrize("name", ["trivial", "cyclic:2", "cyclic:7", "prod:cyclic:2,cyclic:4"])
@pytest.mark.parametrize("unital", [True, False])
def test_translation_table_ranges_are_slices(name, unital):
    space = KeySpace(cached_group(name), unital=unital)
    # the full C2 x C4 space has 8^8 keys: its ranges of at most 2^21 keys are
    # checked against the scalar translate on sampled keys
    whole = space.translation_table() if space.size <= 1 << 21 else None
    buf = np.empty((space.n, space.size), dtype=KEY_DTYPE) if space.size <= 1 << 16 else None
    rng = np.random.default_rng(3)
    for lo, hi in _kernel_ranges(space):
        if whole is None and hi - lo > 1 << 21:
            continue
        got = space.translation_table(lo, hi)
        assert got.dtype == KEY_DTYPE and got.shape == (space.n, hi - lo)
        if whole is not None:
            assert np.array_equal(got, whole[:, lo:hi]), (lo, hi)
        elif hi > lo:
            for key in {lo, hi - 1, *rng.integers(lo, hi, 20).tolist()}:
                targets = got[:, key - lo].tolist()
                assert [_assignment_of(space, t) for t in targets] == _scalar_translates(space, key)
        if buf is not None and hi > lo:
            # into a wider reused buffer: only its leading columns are written
            buf.fill(-1)
            into = space.translation_table(lo, hi, out=buf)
            assert np.shares_memory(into, buf) and np.array_equal(into, got)
            assert (buf[:, hi - lo:] == -1).all()


@pytest.mark.parametrize("name", ["cyclic:7", "prod:cyclic:2,cyclic:4"])
def test_translation_table_refuses_partial_rows(name):
    # W = 1296 or 4096: a range shifted by a few keys at both ends has a whole
    # number of rows, but not whole rows
    space = KeySpace(cached_group(name), unital=True)
    width = space.low_size
    assert width > 1
    for lo, hi in [(1, width), (0, width + 1), (3, width + 3), (width - 1, 3 * width - 1),
                   (2 * width, width), (0, space.size + width)]:
        with pytest.raises(ValueError, match="not whole rows"):
            space.translation_table(lo, hi)


def test_translation_composition_vectorised():
    for name in ("cyclic:4", "cyclic:6", "klein4"):
        group = cached_group(name)
        space = KeySpace(group, unital=True)
        check_translation_composition(space, space.translation_table())


def test_inverse_lemma_vectorised():
    for name in ("cyclic:4", "klein4", "cyclic:6", "sym:3"):
        group = cached_group(name)
        for unital in (True, False):
            space = KeySpace(group, unital=unital)
            check_inverse_lemma(space)


def test_dsb_is_built_when_first_read():
    result = enumeration.enumerate_unital(cached_group("cyclic:4"))
    # the text outputs read phi, the flags and the components only
    assert result.phi.size == 32 and result.unital_flags.all()
    assert result.components.count == 4
    assert "dsb" not in result.__dict__
    dsb = result.dsb
    assert result.__dict__["dsb"] is dsb and result.dsb is dsb
    assert np.array_equal(dsb.phi, result.phi) and dsb.vertex_names == result.vertex_names


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("name", ["cyclic:4", "dihedral:3", "cyclic:6"])
def test_lazy_dsb_is_make_dsb_of_the_family_arrays(name, full):
    # the lazy structure skips make_dsb's validation, not any of its results
    from dynbrace.structures import dsb_ops, make_dsb

    result = (enumeration.enumerate_full if full else enumeration.enumerate_unital)(cached_group(name))
    dsb = result.dsb
    checked = make_dsb(result.group, result.vertex_names, result.phi, dsb_ops(result.group, result.assignments))
    assert dsb.vertex_names == checked.vertex_names
    for field in ("phi", "ops"):
        got, want = getattr(dsb, field), getattr(checked, field)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable and not want.flags.writeable


@pytest.mark.parametrize("block_cells", [None, 1])
@pytest.mark.parametrize("name, full", [("cyclic:3", False), ("cyclic:3", True), ("cyclic:4", False)])
def test_dsb_ops_are_the_subgroup_family_tables(monkeypatch, name, full, block_cells):
    from dynbrace import structures
    from dynbrace.families import seeded_names
    from dynbrace.structures import dsb_ops

    if block_cells:
        monkeypatch.setattr(structures, "BLOCK_CELLS", block_cells)
    group, family = _golden.reference_family(name, full)
    reference = _golden.dsb_from_subgroup_family(group, family)
    digits = np.array(sorted(family.values()), dtype=np.int16)
    ops = dsb_ops(group, digits)
    assert np.array_equal(ops, reference.ops)
    act, n = automorphism_group(group), group.order
    for k, row in enumerate(digits.tolist()):
        assert ops[k].tolist() == [[group.mul(a, act[row[a], b]) for b in range(n)] for a in range(n)]
    # the enumerated family's lazy structure has the same vertices and tables
    result = (enumeration.enumerate_full if full else enumeration.enumerate_unital)(group, seeded_names(name, full))
    assert result.dsb.vertex_names == reference.vertex_names
    assert np.array_equal(result.dsb.phi, reference.phi)
    assert np.array_equal(result.dsb.ops, reference.ops)


def test_component_dsb_extraction():
    from dynbrace.structures import braiding_of_qtsb, semiloopoid_of_dsb, verify_braiding

    result = cached_unital("cyclic:4")
    for cid in range(result.components.count):
        sub = component_dsb(result, cid)
        assert verify_dsb(sub).passed
        report = connected_components(sub.phi)
        assert report.count == 1
        bracoid = semiloopoid_of_dsb(sub)
        braiding = braiding_of_qtsb(bracoid)
        assert verify_braiding(bracoid, braiding).passed


def test_cap_exceeded():
    group = cached_group("quaternion8")
    with pytest.raises(ResourceCapError):
        invariants(group, cap=10**7)


def test_int32_key_ceiling_overrides_a_larger_cap():
    # 24^7 unital keys do not fit int32; refused at construction, before any table
    with pytest.raises(ResourceCapError) as info:
        KeySpace(cached_group("quaternion8"), unital=True, cap=10**10)
    assert info.value.required == 24**7
    assert info.value.cap == 2**31 - 1


def test_default_cap_allows_reference_cases():
    # the default cap admits every family this suite enumerates
    assert KeySpace(cached_group("dihedral:4"), True).size == 8**7


def test_every_component_degree_divides_order():
    for name in ("cyclic:4", "klein4", "cyclic:6"):
        result = cached_unital(name)
        n = result.group.order
        for members, degree in zip(result.components.members, result.components.degrees):
            assert degree == n // len(members)
            assert n % len(members) == 0


def test_partitions_listing_in_invariants():
    table = invariants(cached_group("cyclic:4"))
    assert table.partitions is not None
    by_size = {}
    for s, rep, profile in table.partitions:
        by_size.setdefault(s, []).append((rep, profile))
    assert ((0, 0, 0, 0), (4,)) in by_size[1]
    assert ((0, 1, 0, 1), (2, 2)) in by_size[1]
    assert by_size[2] == [((0, 0, 1, 1), (2, 2))]
    assert by_size[4] == [((0, 0, 0, 1), (3, 1))]


@pytest.mark.parametrize("name", ["cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "sym:3"])
def test_block_sizes_do_not_change_results(monkeypatch, name):
    # |Aut| is 2, 4 or 6 here and LOW_KEYS = 3 makes W 2 or 1, so the blocks are
    # 6 or 7 keys; no key count of a blocked loop is a multiple of its block,
    # so every one ends on a partial block
    group = cached_group(name)

    def run():
        space = KeySpace(group, unital=False)
        table = invariants(group)
        results = dict(table.counts), table.partitions, initial_counts(enumerate_full(group))
        return space.low_size, results, space.translation_table()

    width, base, base_tables = run()
    monkeypatch.setattr(enumeration, "BLOCK_KEYS", 7)
    monkeypatch.setattr(enumeration, "LOW_KEYS", 3)
    small_width, small, small_tables = run()
    assert small_width < width
    assert small == base
    assert all(np.array_equal(x, y) for x, y in zip(base_tables, small_tables))


def _census_oracle(group):
    """Counts, partition listing and omitted count of the unital census, from
    ``np.unique`` over whole label arrays and the scalar partition profile."""
    space = KeySpace(group, unital=True)
    roots, sizes = np.unique(component_labels(space), return_counts=True)
    counts = dict(zip(*(v.tolist() for v in np.unique(sizes, return_counts=True))))
    if roots.size > enumeration.PARTITION_LISTING_LIMIT:
        return counts, None, roots.size
    partitions = []
    for root, size in zip(roots.tolist(), sizes.tolist()):
        assignment = _assignment_of(space, root)
        partitions.append((size, assignment, _golden.partition_profile(assignment)))
    return counts, tuple(partitions), 0


@pytest.mark.parametrize("name", KERNEL_PRESETS)
def test_census_counts_runs_across_blocks(monkeypatch, name):
    # 7-label blocks: runs straddle block boundaries, runs of 8 outlast a
    # block, and the last run ends at K; the order-8 spaces have more runs
    # than the listing shows
    group = cached_group(name)
    expected = _census_oracle(group)
    monkeypatch.setattr(enumeration, "BLOCK_KEYS", 7)
    table = invariants(group)
    assert (dict(table.counts), table.partitions, table.partitions_omitted) == expected
    assert table.sizes == tuple(sorted(expected[0]))


def test_census_holds_one_label_array(monkeypatch):
    # dihedral:4: 8^7 unital keys, an 8 MB label array; one W-row per block.
    # Besides the labels, the census holds the share tables, block buffers
    # and at most PARTITION_LISTING_LIMIT listed run starts: no second array
    # of a byte or more per key (2 MB here)
    block = 4096
    monkeypatch.setattr(enumeration, "BLOCK_KEYS", block)
    group = cached_group("dihedral:4")
    space = KeySpace(group, unital=True)
    shares = sum(a.nbytes for a in (space._low, space._high, *space._own_digit, *space._own_share))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = invariants(group)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert table.partitions is None and table.partitions_omitted > enumeration.PARTITION_LISTING_LIMIT
    labels_bytes = 4 * space.size
    assert peak < labels_bytes + shares + 8 * enumeration.PARTITION_LISTING_LIMIT + 32 * space.n * block
