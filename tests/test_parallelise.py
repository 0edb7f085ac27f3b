import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynbrace.enumeration import component_dsb
from dynbrace.errors import InputError
from dynbrace.groups import build_group, find_isomorphism
from dynbrace.parallelise import (
    braiding_from_heap,
    complete_heap_table,
    default_base_labelling,
    find_braiding_isomorphism,
    group_from_pointed_heap,
    heap_from_group,
    make_heap,
    parallelise,
    schurian_transversal,
    ternary_of_braiding,
    verify_heap,
)
from dynbrace.structures import (
    braiding_of_qtsb,
    is_zero_symmetric,
    relabel_bracoid,
    semiloopoid_of_dsb,
    verify_bracoid,
    verify_braiding,
    verify_dsb,
)

from tests._golden import (
    HEAP_LETTER_TO_VERTEX,
    Z4_HEAP_CANDIDATE_LABELLINGS,
    Z4_HEAP_COMPATIBLE_LABELLINGS,
    Z4_HEAP_VALUES,
    Z4_K4567_ARROWS,
)
from tests.conftest import cached_group, cached_unital


def component_bracoid(group_name, member_names):
    result = _named_enumeration(group_name)
    want = set(member_names)
    for cid, members in enumerate(result.components.members):
        names = {result.vertex_names[v] for v in members}
        if names == want:
            return semiloopoid_of_dsb(component_dsb(result, cid))
    raise AssertionError(f"no component {member_names} in {group_name}")


_NAMED_CACHE = {}


def _named_enumeration(group_name):
    if group_name not in _NAMED_CACHE:
        from dynbrace.enumeration import enumerate_unital
        from dynbrace.families import seeded_names

        _NAMED_CACHE[group_name] = enumerate_unital(
            cached_group(group_name), seeded_names(group_name, False)
        )
    return _NAMED_CACHE[group_name]


@pytest.fixture(scope="module")
def k4567():
    bracoid = component_bracoid("cyclic:4", {"s4", "s5", "s6", "s7"})
    braiding = braiding_of_qtsb(bracoid)
    return bracoid, braiding


@pytest.fixture(scope="module")
def k4567_heap(k4567):
    bracoid, braiding = k4567
    return ternary_of_braiding(bracoid, braiding)


def test_component_quiver_matches_drawing(k4567):
    bracoid, _ = k4567
    for name, arrows in Z4_K4567_ARROWS.items():
        v = bracoid.vertex_index(name)
        for label, target in arrows.items():
            assert bracoid.vertex_names[int(bracoid.phi[v, label])] == target


def test_schurian_transversal_on_pair_groupoid(k4567):
    bracoid, _ = k4567
    pg = schurian_transversal(bracoid, 0)
    L = bracoid.vertex_count
    # one arrow per ordered pair with the right target
    for lam in range(L):
        for mu in range(L):
            label = int(pg.arrow_label[lam, mu])
            assert int(bracoid.phi[lam, label]) == mu


def test_schurian_transversal_single_vertex():
    group = build_group("cyclic:3")
    phi = [[0, 0, 0]]
    table = [list(map(list, group.table))]
    from dynbrace.structures import make_bracoid

    bracoid = make_bracoid(["v"], group.names, phi, table, table, [0])
    pg = schurian_transversal(bracoid, 0)
    assert pg.arrow_label.shape == (1, 1)
    assert int(pg.arrow_label[0, 0]) == 0


def test_schurian_transversal_degree_two():
    bracoid = component_bracoid("cyclic:4", {"s2", "s3"})
    pg = schurian_transversal(bracoid, 0)
    assert pg.arrow_label.shape == (2, 2)
    seen = {(lam, int(bracoid.phi[lam, int(pg.arrow_label[lam, mu])])) for lam in range(2) for mu in range(2)}
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_schurian_transversal_rejects_disconnected():
    result = cached_unital("cyclic:4")
    bracoid = semiloopoid_of_dsb(result.dsb)
    with pytest.raises(InputError, match="disconnected"):
        schurian_transversal(bracoid, 0)


def test_default_base_labelling_unit_first(k4567):
    bracoid, _ = k4567
    for zeta in range(bracoid.vertex_count):
        maps = default_base_labelling(bracoid, zeta)
        assert maps[int(bracoid.units[zeta])] == 0
        assert sorted(maps.tolist()) == [0, 1, 2, 3]


def test_parallelise_identity_on_single_vertex():
    group = build_group("cyclic:4")
    phi = [[0, 0, 0, 0]]
    table = [list(map(list, group.table))]
    from dynbrace.structures import make_bracoid

    bracoid = make_bracoid(["v"], group.names, phi, table, table, [0])
    labelling, dsb = parallelise(bracoid, 0)
    assert dsb.vertex_count == 1
    assert verify_dsb(dsb).passed
    assert np.array_equal(dsb.ops[0], bracoid.bullet[0])
    assert find_isomorphism(dsb.group, group) is not None


def test_parallelise_isolated_vertex_recovers_group():
    bracoid = component_bracoid("cyclic:3", {"s0"})
    _, dsb = parallelise(bracoid, 0)
    assert find_isomorphism(dsb.group, build_group("cyclic:3")) is not None
    assert np.array_equal(dsb.ops[0], np.array(dsb.group.table))


@pytest.mark.parametrize(
    "group_name,members",
    [
        ("cyclic:3", {"s0"}),
        ("cyclic:3", {"s1", "s2", "s3"}),
        ("cyclic:4", {"s2", "s3"}),
        ("cyclic:4", {"s4", "s5", "s6", "s7"}),
    ],
)
def test_parallelise_round_trip_after_label_erasure(group_name, members):
    bracoid = component_bracoid(group_name, members)
    braiding = braiding_of_qtsb(bracoid)
    rng = np.random.default_rng(hash((group_name, tuple(sorted(members)))) % 2**32)
    n = bracoid.label_count
    perms = np.stack([rng.permutation(n) for _ in range(bracoid.vertex_count)])
    scrambled = relabel_bracoid(bracoid, perms)
    for base in range(bracoid.vertex_count):
        labelling, dsb = parallelise(scrambled, base)
        assert verify_dsb(dsb).passed
        assert is_zero_symmetric(dsb)
        new_bracoid = semiloopoid_of_dsb(dsb)
        new_braiding = braiding_of_qtsb(new_bracoid)
        assert verify_braiding(new_bracoid, new_braiding).passed
        iso = find_braiding_isomorphism(bracoid, braiding, new_bracoid, new_braiding)
        assert iso is not None


def test_parallelise_shape_preserved(k4567):
    bracoid, braiding = k4567
    _, dsb = parallelise(bracoid, 0)
    from dynbrace.quivers import connected_components

    report = connected_components(dsb.phi)
    assert report.count == 1
    assert report.degrees[0] == 1
    assert dsb.vertex_count == 4


def test_transversal_inverse_action_identity(k4567):
    # (x bullet y)^-1 -> u  ==  y^-1 -> (x^-1 -> u)  for transversal composites
    bracoid, braiding = k4567
    from dynbrace.structures import semiloopoid_inverse

    pg = schurian_transversal(bracoid, 0)
    L, n = bracoid.phi.shape
    SR = braiding.right
    for lam in range(L):
        for mu in range(L):
            x = int(pg.arrow_label[lam, mu])
            for nu in range(L):
                y = int(pg.arrow_label[mu, nu])
                xy = int(bracoid.bullet[lam, x, y])
                vxi, xi = semiloopoid_inverse(bracoid, lam, x)
                vyi, yi = semiloopoid_inverse(bracoid, mu, y)
                vci, ci = semiloopoid_inverse(bracoid, lam, xy)
                assert (vxi, vyi, vci) == (mu, nu, nu)
                for u in range(n):
                    lhs = int(SR[nu, ci, u])
                    rhs = int(SR[nu, yi, int(SR[mu, xi, u])])
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# ternary tables


def test_heap_matches_reference_values(k4567_heap):
    heap = k4567_heap
    for (x, y, z), want in Z4_HEAP_VALUES.items():
        a = heap.index(HEAP_LETTER_TO_VERTEX[x])
        b = heap.index(HEAP_LETTER_TO_VERTEX[y])
        c = heap.index(HEAP_LETTER_TO_VERTEX[z])
        assert heap.names[heap.value(a, b, c)] == HEAP_LETTER_TO_VERTEX[want]


def test_heap_maltsev_rows(k4567_heap):
    heap = k4567_heap
    for i in range(4):
        for j in range(4):
            assert heap.value(i, i, j) == j
            assert heap.value(i, j, j) == i


def test_heap_verifies_abelian(k4567_heap):
    report = verify_heap(k4567_heap)
    assert report.passed
    assert report.check("abelian").passed


def test_ternary_requires_degree_one():
    bracoid = component_bracoid("cyclic:4", {"s2", "s3"})
    braiding = braiding_of_qtsb(bracoid)
    with pytest.raises(InputError, match="degree"):
        ternary_of_braiding(bracoid, braiding)


def test_pointed_groups_and_compatible_labellings(k4567, k4567_heap):
    bracoid, _ = k4567
    heap = k4567_heap
    letters = {letter: heap.index(v) for letter, v in HEAP_LETTER_TO_VERTEX.items()}

    # every candidate identification is an isomorphism of the pointed group
    for cand in Z4_HEAP_CANDIDATE_LABELLINGS:
        zeta_letter = next(k for k, v in cand.items() if v == 0)
        grp = group_from_pointed_heap(heap, letters[zeta_letter])
        ok = all(
            cand[x] == (cand[y] + cand[z]) % 4
            for y in "abcd"
            for z in "abcd"
            for x in "abcd"
            if letters[x] == grp.mul(letters[y], letters[z])
        )
        assert ok, cand

    # the transport-compatible identification per base is the arrow-label map
    for cand in Z4_HEAP_COMPATIBLE_LABELLINGS:
        zeta_letter = next(k for k, v in cand.items() if v == 0)
        zeta = letters[zeta_letter]
        v_of_letter = {x: bracoid.vertex_index(HEAP_LETTER_TO_VERTEX[x]) for x in "abcd"}
        zeta_vertex = v_of_letter[zeta_letter]
        arrow_label = {}
        for x in "abcd":
            target = v_of_letter[x]
            label = int(np.argwhere(np.asarray(bracoid.phi[zeta_vertex]) == target)[0][0])
            arrow_label[x] = label
        assert arrow_label == cand

    # the non-compatible candidate with the same base differs from the arrow map
    for cand in Z4_HEAP_CANDIDATE_LABELLINGS:
        if cand in Z4_HEAP_COMPATIBLE_LABELLINGS:
            continue
        zeta_letter = next(k for k, v in cand.items() if v == 0)
        v_of_letter = {x: bracoid.vertex_index(HEAP_LETTER_TO_VERTEX[x]) for x in "abcd"}
        zeta_vertex = v_of_letter[zeta_letter]
        arrow_label = {
            x: int(np.argwhere(np.asarray(bracoid.phi[zeta_vertex]) == v_of_letter[x])[0][0])
            for x in "abcd"
        }
        assert arrow_label != cand


def test_pointed_heap_group_transport_identity(k4567, k4567_heap):
    # the group recovered from the pointed table equals the arrow-label
    # transport of the vertex group: labels add modulo 4 under the arrow map
    bracoid, _ = k4567
    heap = k4567_heap
    for zeta in range(4):
        grp = group_from_pointed_heap(heap, zeta)
        zeta_vertex = bracoid.vertex_index(heap.names[zeta])
        phi_row = np.asarray(bracoid.phi[zeta_vertex])
        label_of = {
            v: int(np.argwhere(phi_row == bracoid.vertex_index(heap.names[v]))[0][0])
            for v in range(4)
        }
        for u in range(4):
            for v in range(4):
                w = grp.mul(u, v)
                assert label_of[w] == (label_of[u] + label_of[v]) % 4


def test_group_from_pointed_heap_round_trip():
    for name in ("cyclic:4", "sym:3", "klein4"):
        group = build_group(name)
        heap = heap_from_group(group)
        back = group_from_pointed_heap(heap, group.identity)
        assert np.array_equal(back.table, group.table)


def test_heap_from_group_properties():
    for name in ("cyclic:4", "sym:3"):
        group = build_group(name)
        heap = heap_from_group(group)
        report = verify_heap(heap)
        assert report.passed
        from dynbrace.groups import is_abelian

        assert report.check("abelian").passed == is_abelian(group)


def test_verify_heap_tampered_maltsev():
    heap = heap_from_group(build_group("cyclic:3"))
    table = heap.table.copy()
    table[0, 1, 1] = 1  # break <a,b,b> = a
    bad = make_heap(heap.names, table)
    report = verify_heap(bad)
    assert report.check("maltsev1").line() == "FAIL maltsev1 elements=('0', '1')"


def test_verify_heap_witnesses_non_abelian():
    report = verify_heap(heap_from_group(build_group("sym:3")))
    assert report.passed
    assert report.check("abelian").line() == "FAIL abelian elements=('012', '021', '102')"


TAMPERED_HEAP = (
    "not a heap: FAIL maltsev1 elements=('0', '1'); "
    "FAIL assoc elements=('0', '1', '0', '0', '1') lhs=1 rhs=0; "
    "FAIL assoc1 elements=('0', '1', '0', '1') lhs=1 rhs=0; "
    "FAIL assoc2 elements=('0', '1', '0', '0') lhs=0 rhs=1"
)


@pytest.mark.parametrize("build", [lambda heap: group_from_pointed_heap(heap, 0), braiding_from_heap],
                         ids=["group_from_pointed_heap", "braiding_from_heap"])
def test_heap_consumers_name_every_failure(build):
    heap = heap_from_group(build_group("cyclic:4"))
    table = heap.table.copy()
    table[0, 1, 1] = 1
    with pytest.raises(InputError) as info:
        build(make_heap(heap.names, table))
    assert str(info.value) == TAMPERED_HEAP


def test_braiding_from_heap_round_trips():
    for name in ("cyclic:3", "cyclic:4", "sym:3"):
        group = build_group(name)
        heap = heap_from_group(group)
        bracoid, braiding = braiding_from_heap(heap)
        assert verify_bracoid(bracoid).passed
        report = verify_braiding(bracoid, braiding)
        assert report.passed
        back = ternary_of_braiding(bracoid, braiding)
        assert np.array_equal(back.table, heap.table)
        # the explicit braiding is the one the bracoid's formula gives
        derived = braiding_of_qtsb(bracoid)
        assert np.array_equal(braiding.right, derived.right) and np.array_equal(braiding.left, derived.left)
        from dynbrace.groups import is_abelian

        assert report.check("involutive").passed == is_abelian(group)


def test_two_element_heap_is_unique():
    # there is exactly one heap on two elements (both non-Mal'tsev cells are
    # forced), and it carries the unique degree-one braiding with sigma^2 = id
    heap = heap_from_group(build_group("cyclic:2"))
    for wrong in ((0, 1, 0), (1, 0, 1)):
        table = heap.table.copy()
        table[wrong] = 1 - table[wrong]
        assert not verify_heap(make_heap(heap.names, table)).passed
    bracoid, braiding = braiding_from_heap(heap)
    report = verify_braiding(bracoid, braiding)
    assert report.passed and report.check("involutive").passed
    # chaining from one given non-Mal'tsev cell completes the other
    completed = complete_heap_table(heap.names, {(0, 1, 0): int(heap.table[0, 1, 0])})
    assert np.array_equal(completed.table, heap.table)


def test_complete_heap_table_from_reference_cells(k4567_heap):
    heap = k4567_heap
    letters = {x: heap.index(v) for x, v in HEAP_LETTER_TO_VERTEX.items()}
    entries = {
        (letters[x], letters[y], letters[z]): letters[w]
        for (x, y, z), w in Z4_HEAP_VALUES.items()
    }
    completed = complete_heap_table(heap.names, entries)
    assert np.array_equal(completed.table, heap.table)


def test_complete_heap_table_detects_conflict(k4567_heap):
    heap = k4567_heap
    letters = {x: heap.index(v) for x, v in HEAP_LETTER_TO_VERTEX.items()}
    entries = {
        (letters[x], letters[y], letters[z]): letters[w]
        for (x, y, z), w in Z4_HEAP_VALUES.items()
    }
    key = (letters["a"], letters["b"], letters["a"])
    entries[key] = (entries[key] + 1) % 4
    with pytest.raises(InputError):
        complete_heap_table(heap.names, entries)


def test_nonabelian_heap_gives_noninvolutive_braiding():
    group = build_group("sym:3")
    heap = heap_from_group(group)
    bracoid, braiding = braiding_from_heap(heap)
    report = verify_braiding(bracoid, braiding)
    assert report.passed
    assert not report.check("involutive").passed


@given(st.sampled_from(["cyclic:2", "cyclic:3", "cyclic:4", "klein4", "sym:3"]), st.randoms())
@settings(max_examples=15)
def test_heap_group_change_of_base_isomorphic(name, rng):
    group = build_group(name)
    heap = heap_from_group(group)
    zeta = rng.randrange(group.order)
    pointed = group_from_pointed_heap(heap, zeta)
    assert find_isomorphism(pointed, group) is not None
