"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Budgets are wall-clock bounds stated with each criterion; every numeric
expectation here is exact (integer) and frozen in tests/_golden.py or inline.
"""
import time
from contextlib import contextmanager

import numpy as np

from dynbrace.enumeration import (
    KeySpace,
    _partition_matrix,
    check_partition_constancy,
    component_dsb,
    enumerate_full,
    enumerate_unital,
    initial_counts,
    invariants,
)
from dynbrace.families import seeded_names
from dynbrace.groups import automorphism_group, build_group
from dynbrace.parallelise import (
    find_braiding_isomorphism,
    group_from_pointed_heap,
    parallelise,
    ternary_of_braiding,
    verify_heap,
)
from dynbrace.quivers import connected_components
from dynbrace.structures import (
    braiding_of_qtsb,
    is_zero_symmetric,
    relabel_bracoid,
    semiloopoid_of_dsb,
    verify_bracoid,
    verify_braiding,
    verify_computation_rules,
    verify_dsb,
)

from tests import _golden
from tests._identities import check_inverse_lemma, check_translation_composition
from tests.conftest import cached_group

RESULTS: list[str] = []


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            RESULTS.append(f"criterion {number:02d} FAIL ({elapsed:.2f}s over {budget}s) {label}")
            raise AssertionError(f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s")
        RESULTS.append(f"criterion {number:02d} PASS ({elapsed:.2f}s) {label}")
    except AssertionError:
        if not RESULTS or not RESULTS[-1].startswith(f"criterion {number:02d}"):
            elapsed = time.perf_counter() - start
            RESULTS.append(f"criterion {number:02d} FAIL ({elapsed:.2f}s) {label}")
        raise


def seeded_unital(name):
    group = cached_group(name)
    return group, enumerate_unital(group, seeded_names(name, False))


def test_criterion_01_invariants_cyclic3():
    with criterion(1, "invariants cyclic:3 = {1:1, 3:1}", budget=1.0):
        table = invariants(build_group("cyclic:3"))
        assert dict(table.counts) == {1: 1, 3: 1}


def test_criterion_02_invariants_cyclic4():
    with criterion(2, "invariants cyclic:4 = {1:2, 2:1, 4:1}", budget=1.0):
        table = invariants(build_group("cyclic:4"))
        assert dict(table.counts) == {1: 2, 2: 1, 4: 1}


def test_criterion_03_invariants_klein4():
    with criterion(3, "invariants prod:cyclic:2,cyclic:2 = {1:4, 2:6, 4:50}", budget=5.0):
        table = invariants(build_group("prod:cyclic:2,cyclic:2"))
        assert dict(table.counts) == {1: 4, 2: 6, 4: 50}


def test_criterion_04_invariants_cyclic5():
    with criterion(4, "invariants cyclic:5 = {1:1, 5:51}", budget=1.0):
        table = invariants(build_group("cyclic:5"))
        # 51 is the closed form ((p-1)^(p-1) - 1)/p at p = 5
        assert (4**4 - 1) // 5 == 51
        assert dict(table.counts) == {1: 1, 5: 51}


# every preset of order <= 8; the sweep keeps those with |Aut|^(order-1) <= 1e7
SWEEP_PRESETS = [
    "trivial",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:5",
    "cyclic:6",
    "cyclic:7",
    "cyclic:8",
    "klein4",
    "prod:cyclic:2,cyclic:2",
    "prod:cyclic:2,cyclic:3",
    "prod:cyclic:2,cyclic:4",
    "sym:3",
    "dihedral:3",
    "dihedral:4",
    "quaternion8",
]


def test_criterion_05_relation_sweep():
    with criterion(5, "sum s*N_s relation over all presets of order <= 8", budget=60.0):
        swept = []
        for name in SWEEP_PRESETS:
            group = build_group(name)
            assert group.order <= 8
            radix = len(automorphism_group(group))
            space = radix ** (group.order - 1)
            if space > 10**7:
                continue
            table = invariants(group)
            assert sum(s * c for s, c in table.counts.items()) == space, name
            assert all(group.order % s == 0 for s in table.counts), name
            swept.append(name)
        # the 8^7-key cases are in; only quaternion8 (24^7) falls outside
        assert "dihedral:4" in swept and "prod:cyclic:2,cyclic:4" in swept
        assert swept == [n for n in SWEEP_PRESETS if n != "quaternion8"]


def test_criterion_06_full_cyclic3():
    with criterion(6, "full cyclic:3 family: initial vertices and their counts"):
        group = build_group("cyclic:3")
        result = enumerate_full(group, seeded_names("cyclic:3", True))
        initial = [n for n, u in zip(result.vertex_names, result.unital_flags) if not u]
        assert sorted(initial) == ["r0", "r1", "r2", "r3"]
        index = {n: i for i, n in enumerate(result.vertex_names)}
        for rname, arrows in _golden.Z3_INITIAL_ARROWS.items():
            for label, target in arrows.items():
                assert result.vertex_names[int(result.dsb.phi[index[rname], label])] == target
        counts = initial_counts(result)  # asserts in_K = s(|Aut|-1) and equidistribution
        assert counts.by_size == {1: 1, 3: 3}


def test_criterion_07_golden_braiding_table():
    with criterion(7, "order-4 braiding matches every reference mapping"):
        group, result = seeded_unital("cyclic:4")
        bracoid = semiloopoid_of_dsb(result.dsb)
        braiding = braiding_of_qtsb(bracoid)
        for name in result.vertex_names:
            v = result.dsb.vertex_index(name)
            for a in range(4):
                for b in range(4):
                    want = _golden.z4_expected_braiding(name, a, b)
                    got = (int(braiding.right[v, a, b]), int(braiding.left[v, a, b]))
                    assert got == want, (name, a, b, got, want)
        # involutive, so each listed move also applies reversed
        report = verify_braiding(bracoid, braiding)
        assert report.check("involutive").passed


def test_criterion_08_golden_quasigroup_tables():
    with criterion(8, "order-3 and order-4 vertex tables cell-for-cell"):
        _, z3 = seeded_unital("cyclic:3")
        for name, table in _golden.Z3_OPS.items():
            assert z3.dsb.op_table(name).tolist() == table
        _, z4 = seeded_unital("cyclic:4")
        for name, table in _golden.Z4_OPS.items():
            assert z4.dsb.op_table(name).tolist() == table


PROPERTY_PRESETS = [
    "trivial",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:5",
    "cyclic:6",
    "klein4",
    "sym:3",
    "dihedral:3",
]


def test_criterion_09_property_suite():
    with criterion(9, "exhaustive axiom suite over all enumerations at order <= 6", budget=120.0):
        for name in PROPERTY_PRESETS:
            group = build_group(name)
            assert group.order <= 6
            for full in (False, True):
                result = (enumerate_full if full else enumerate_unital)(group)
                dsb = result.dsb
                assert verify_dsb(dsb).passed, (name, full)
                assert verify_computation_rules(dsb).passed, (name, full)
                bracoid = semiloopoid_of_dsb(dsb)
                assert verify_bracoid(bracoid).passed, (name, full)
                braiding = braiding_of_qtsb(bracoid)
                report = verify_braiding(bracoid, braiding)
                assert report.passed, (name, full)
                for check_name in ("ybe", "bg1", "bg2", "bg3", "bg4", "bg5", "left_nondegenerate"):
                    assert report.check(check_name).passed, (name, full, check_name)
                if not full:
                    assert report.check("right_nondegenerate").passed, name
                space = KeySpace(group, unital=not full)
                check_inverse_lemma(space)
                check_translation_composition(space, space.translation_table())


def test_criterion_10_involutivity_dichotomy():
    with criterion(10, "sigma^2 = id iff the group is abelian (cyclic:4, klein4 vs sym:3)"):
        for name in ("cyclic:4", "klein4"):
            result = enumerate_unital(build_group(name))
            bracoid = semiloopoid_of_dsb(result.dsb)
            braiding = braiding_of_qtsb(bracoid)
            assert verify_braiding(bracoid, braiding).check("involutive").passed, name
        result = enumerate_unital(build_group("sym:3"))
        bracoid = semiloopoid_of_dsb(result.dsb)
        braiding = braiding_of_qtsb(bracoid)
        check = verify_braiding(bracoid, braiding).check("involutive")
        assert not check.passed
        assert check.witness is not None  # a concrete non-involutive pair


def test_criterion_11_parallelisation_round_trip():
    with criterion(11, "label erasure + parallelise from every base, every component", budget=30.0):
        rng = np.random.default_rng(2024)
        for name in ("cyclic:3", "cyclic:4"):
            group, result = seeded_unital(name)
            for cid in range(result.components.count):
                sub = component_dsb(result, cid)
                bracoid = semiloopoid_of_dsb(sub)
                braiding = braiding_of_qtsb(bracoid)
                size = sub.vertex_count
                degree = group.order // size
                perms = np.stack(
                    [rng.permutation(group.order) for _ in range(size)]
                )
                scrambled = relabel_bracoid(bracoid, perms)
                for base in range(size):
                    _, recovered = parallelise(scrambled, base)
                    assert verify_dsb(recovered).passed
                    assert is_zero_symmetric(recovered)
                    report = connected_components(recovered.phi)
                    assert report.count == 1
                    assert len(report.members[0]) == size
                    assert report.degrees[0] == degree
                    new_bracoid = semiloopoid_of_dsb(recovered)
                    new_braiding = braiding_of_qtsb(new_bracoid)
                    assert find_braiding_isomorphism(
                        bracoid, braiding, new_bracoid, new_braiding
                    ) is not None


def test_criterion_12_heap_suite():
    with criterion(12, "degree-one component: ternary values, pointed groups, labellings"):
        group, result = seeded_unital("cyclic:4")
        cid = next(
            i for i, m in enumerate(result.components.members)
            if {result.vertex_names[v] for v in m} == {"s4", "s5", "s6", "s7"}
        )
        sub = component_dsb(result, cid)
        bracoid = semiloopoid_of_dsb(sub)
        braiding = braiding_of_qtsb(bracoid)
        heap = ternary_of_braiding(bracoid, braiding)
        letters = {x: heap.index(v) for x, v in _golden.HEAP_LETTER_TO_VERTEX.items()}

        for (x, y, z), w in _golden.Z4_HEAP_VALUES.items():
            assert heap.value(letters[x], letters[y], letters[z]) == letters[w], (x, y, z)
        for i in range(4):
            for j in range(4):
                assert heap.value(i, i, j) == j
                assert heap.value(i, j, j) == i
        report = verify_heap(heap)
        assert report.passed and report.check("abelian").passed

        # arrow-label identification out of each base
        def arrow_labelling(zeta_letter):
            zeta_vertex = bracoid.vertex_index(_golden.HEAP_LETTER_TO_VERTEX[zeta_letter])
            row = np.asarray(bracoid.phi[zeta_vertex])
            return {
                x: int(np.argwhere(row == bracoid.vertex_index(_golden.HEAP_LETTER_TO_VERTEX[x]))[0][0])
                for x in "abcd"
            }

        # all eight candidates are isomorphisms of the pointed group at their base
        for cand in _golden.Z4_HEAP_CANDIDATE_LABELLINGS:
            zeta_letter = next(k for k, v in cand.items() if v == 0)
            grp = group_from_pointed_heap(heap, letters[zeta_letter])
            for y in "abcd":
                for z in "abcd":
                    w = grp.mul(letters[y], letters[z])
                    letter_w = next(x for x in "abcd" if letters[x] == w)
                    assert cand[letter_w] == (cand[y] + cand[z]) % 4, cand

        # exactly the four reference ones agree with the transport labelling
        matches = [
            cand
            for cand in _golden.Z4_HEAP_CANDIDATE_LABELLINGS
            if cand == arrow_labelling(next(k for k, v in cand.items() if v == 0))
        ]
        assert matches == _golden.Z4_HEAP_COMPATIBLE_LABELLINGS

        # pointed-table group equals the transported vertex group at each base
        for zeta_letter in "abcd":
            grp = group_from_pointed_heap(heap, letters[zeta_letter])
            lab = arrow_labelling(zeta_letter)
            for y in "abcd":
                for z in "abcd":
                    w = grp.mul(letters[y], letters[z])
                    letter_w = next(x for x in "abcd" if letters[x] == w)
                    assert lab[letter_w] == (lab[y] + lab[z]) % 4


def test_criterion_13_partition_constancy():
    with criterion(13, "partition profile constant on components, order <= 6"):
        for name in ("trivial", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5",
                     "cyclic:6", "klein4", "sym:3", "dihedral:3"):
            check_partition_constancy(enumerate_full(build_group(name)))
        # non-converse witness over cyclic:4, with the profiles invariants prints
        group, result = seeded_unital("cyclic:4")
        profiles = _partition_matrix(result.assignments, len(automorphism_group(group))).tolist()
        rows = result.assignments.tolist()
        i1 = rows.index([0, 1, 0, 1])
        i2 = rows.index([0, 0, 1, 1])
        assert profiles[i1] == profiles[i2] == [2, 2]
        assert result.components.component_of[i1] != result.components.component_of[i2]
        assert profiles[rows.index([0, 1, 1, 1])] == [3, 1]
