import numpy as np
import pytest
from hypothesis import given, strategies as st

from dynbrace.errors import InputError
from dynbrace.groups import _inverse_rows, automorphism_group, build_group
from dynbrace.structures import (
    QuiverBraiding,
    bracoid_from_json,
    braiding_of_qtsb,
    dsb_from_json,
    is_zero_symmetric,
    make_bracoid,
    make_dsb,
    relabel_bracoid,
    semiloopoid_inverse,
    semiloopoid_of_dsb,
    verify_bracoid,
    verify_braiding,
    verify_computation_rules,
    verify_dsb,
)

from tests._golden import (
    Z3_ARROWS,
    Z3_OPS,
    Z4_OPS,
    bracoid_to_json,
    dsb_from_subgroup_family,
    dsb_to_json,
    orbit_closure,
    reference_family,
    z4_expected_braiding,
)
from tests.conftest import cached_unital


@pytest.fixture(scope="module")
def z3():
    group, family = reference_family("cyclic:3")
    dsb = dsb_from_subgroup_family(group, family)
    return group, dsb


@pytest.fixture(scope="module")
def z4():
    group, family = reference_family("cyclic:4")
    dsb = dsb_from_subgroup_family(group, family)
    return group, dsb


def test_z3_golden_tables(z3):
    _, dsb = z3
    for name, table in Z3_OPS.items():
        assert dsb.op_table(name).tolist() == table


def test_z4_golden_tables(z4):
    _, dsb = z4
    for name, table in Z4_OPS.items():
        assert dsb.op_table(name).tolist() == table


def test_z3_specific_products(z3):
    _, dsb = z3
    s1 = dsb.vertex_index("s1")
    assert int(dsb.ops[s1, 1, 1]) == 0
    assert int(dsb.ops[s1, 2, 1]) == 0
    s0 = dsb.vertex_index("s0")
    assert dsb.ops[s0].tolist() == [[(a + b) % 3 for b in range(3)] for a in range(3)]


def test_z4_s7_product(z4):
    _, dsb = z4
    s7 = dsb.vertex_index("s7")
    assert int(dsb.ops[s7, 3, 3]) == 0


def test_z3_quiver_arrows(z3):
    _, dsb = z3
    for name, arrows in Z3_ARROWS.items():
        v = dsb.vertex_index(name)
        for label, target in arrows.items():
            assert dsb.vertex_names[int(dsb.phi[v, label])] == target


def test_family_not_closed_rejected():
    group, family = reference_family("cyclic:3")
    partial = {"s1": family["s1"]}
    with pytest.raises(InputError, match="not closed"):
        dsb_from_subgroup_family(group, partial)


def test_verify_dsb_passes(z3, z4):
    for _, dsb in (z3, z4):
        report = verify_dsb(dsb)
        assert report.passed
        assert report.check("zero_symmetric").passed


def test_verify_dsb_tampered_row():
    group, family = reference_family("cyclic:3")
    dsb = dsb_from_subgroup_family(group, family)
    ops = dsb.ops.copy()
    s1 = dsb.vertex_index("s1")
    ops[s1, 1, 2] = ops[s1, 1, 1]  # repeat a row entry
    bad = make_dsb(group, dsb.vertex_names, dsb.phi, ops)
    report = verify_dsb(bad)
    check = report.check("left_quasigroup")
    assert not check.passed
    assert check.witness["vertex"] == "s1"


def test_verify_dsb_tampered_associativity():
    group, family = reference_family("cyclic:3")
    dsb = dsb_from_subgroup_family(group, family)
    ops = dsb.ops.copy()
    s1 = dsb.vertex_index("s1")
    ops[s1, 1] = ops[s1, 1][[1, 0, 2]]  # swap a row: still a permutation
    bad = make_dsb(group, dsb.vertex_names, dsb.phi, ops)
    report = verify_dsb(bad)
    assert report.check("left_quasigroup").passed
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert failed & {"dynamical_associativity", "brace_compatibility"}


def test_single_vertex_trivial_brace():
    group = build_group("cyclic:4")
    phi = [[0] * 4]
    ops = [list(map(list, group.table))]
    dsb = make_dsb(group, ["v"], phi, ops)
    assert verify_dsb(dsb).passed
    assert is_zero_symmetric(dsb)
    bracoid = semiloopoid_of_dsb(dsb)
    report = verify_bracoid(bracoid)
    assert report.passed
    # with product = group law the left action is trivial
    braiding = braiding_of_qtsb(bracoid)
    assert (braiding.right[0] == np.arange(4)[None, :]).all()


def test_semiloopoid_units(z4):
    _, dsb = z4
    bracoid = semiloopoid_of_dsb(dsb)
    assert bracoid.unital.all()
    s1 = dsb.vertex_index("s1")
    for a in range(4):
        mu = int(bracoid.phi[s1, a])
        assert int(bracoid.bullet[s1, a, int(bracoid.units[mu])]) == a


def test_semiloopoid_inverse_example(z4):
    _, dsb = z4
    bracoid = semiloopoid_of_dsb(dsb)
    s4 = dsb.vertex_index("s4")
    s7 = dsb.vertex_index("s7")
    assert semiloopoid_inverse(bracoid, s4, 1) == (s7, 1)
    # oracle: search the label whose two-sided product is the unit
    mu = int(bracoid.phi[s4, 1])
    found = [
        c
        for c in range(4)
        if int(bracoid.bullet[s4, 1, c]) == 0 and int(bracoid.bullet[mu, c, 1]) == 0
    ]
    assert found == [1] and mu == s7


def test_semiloopoid_inverse_matches_automorphism_form(z3, z4):
    # inverse label equals the group inverse of f_a^-1(a), with
    # f_a(b) = a^-1 (a *_lam b) the automorphism attached to the arrow
    for group, dsb in (z3, z4):
        bracoid = semiloopoid_of_dsb(dsb)
        n = group.order
        for lam in range(dsb.vertex_count):
            for a in range(n):
                f = [group.mul(group.inv(a), int(dsb.ops[lam, a, b])) for b in range(n)]
                f_inv = [0] * n
                for b, v in enumerate(f):
                    f_inv[v] = b
                expected = group.inv(f_inv[a])
                assert semiloopoid_inverse(bracoid, lam, a) == (
                    int(dsb.phi[lam, a]),
                    expected,
                )


def test_braiding_golden_values(z4):
    _, dsb = z4
    bracoid = semiloopoid_of_dsb(dsb)
    braiding = braiding_of_qtsb(bracoid)
    for name in dsb.vertex_names:
        v = dsb.vertex_index(name)
        for a in range(4):
            for b in range(4):
                expected = z4_expected_braiding(name, a, b)
                got = (int(braiding.right[v, a, b]), int(braiding.left[v, a, b]))
                assert got == expected, (name, a, b, got, expected)


def test_braiding_unit_rule(z3, z4):
    for _, dsb in (z3, z4):
        bracoid = semiloopoid_of_dsb(dsb)
        braiding = braiding_of_qtsb(bracoid)
        n = dsb.label_count
        for v in range(dsb.vertex_count):
            for a in range(n):
                assert int(braiding.right[v, a, 0]) == 0
                assert int(braiding.left[v, a, 0]) == a


def test_z3_braiding_moves_exactly():
    # frozen from the exhaustively verified solution: besides the a|0 <-> 0|a
    # swaps (and the flip on s0), each triangle vertex moves one extra pair
    group, family = reference_family("cyclic:3")
    dsb = dsb_from_subgroup_family(group, family)
    bracoid = semiloopoid_of_dsb(dsb)
    braiding = braiding_of_qtsb(bracoid)
    moved = {}
    for v, name in enumerate(dsb.vertex_names):
        for a in range(3):
            for b in range(3):
                r, l = int(braiding.right[v, a, b]), int(braiding.left[v, a, b])
                if (r, l) != (a, b):
                    moved[(name, a, b)] = (r, l)
    extra = {
        key: value
        for key, value in moved.items()
        if key[0] != "s0" and 0 not in (key[1], key[2])
    }
    assert extra == {
        ("s1", 1, 1): (2, 1),
        ("s1", 2, 1): (1, 1),
        ("s2", 1, 2): (2, 2),
        ("s2", 2, 2): (1, 2),
        ("s3", 1, 1): (2, 2),
        ("s3", 2, 2): (1, 1),
    }
    assert len(moved) == 24


def test_braiding_reports_pass(z3, z4):
    for _, dsb in (z3, z4):
        bracoid = semiloopoid_of_dsb(dsb)
        braiding = braiding_of_qtsb(bracoid)
        report = verify_braiding(bracoid, braiding)
        assert report.passed
        assert report.check("involutive").passed
        assert report.check("right_nondegenerate").passed


def test_flip_on_nonabelian_group_fails_bg5():
    group = build_group("sym:3")
    n = group.order
    phi = np.zeros((1, n), dtype=int)
    table = [list(map(list, group.table))]
    bracoid = make_bracoid(["v"], group.names, phi, table, table, [0])
    flip = QuiverBraiding(
        np.broadcast_to(np.arange(n, dtype=np.int16)[None, None, :], (1, n, n)).copy(),
        np.broadcast_to(np.arange(n, dtype=np.int16)[None, :, None], (1, n, n)).copy(),
    )
    report = verify_braiding(bracoid, flip)
    check = report.check("bg5")
    assert not check.passed
    assert check.witness is not None


def test_flip_on_abelian_group_is_braiding():
    group = build_group("cyclic:4")
    n = group.order
    phi = np.zeros((1, n), dtype=int)
    table = [list(map(list, group.table))]
    bracoid = make_bracoid(["v"], group.names, phi, table, table, [0])
    flip = QuiverBraiding(
        np.broadcast_to(np.arange(n, dtype=np.int16)[None, None, :], (1, n, n)).copy(),
        np.broadcast_to(np.arange(n, dtype=np.int16)[None, :, None], (1, n, n)).copy(),
    )
    assert verify_braiding(bracoid, flip).passed


def test_verify_bracoid_passes(z3, z4):
    for _, dsb in (z3, z4):
        report = verify_bracoid(semiloopoid_of_dsb(dsb))
        assert report.passed
        assert report.check("groupoid").passed


def test_verify_bracoid_unit_mismatch(z4):
    _, dsb = z4
    bracoid = semiloopoid_of_dsb(dsb)
    units = bracoid.units.copy()
    units[0] = 1  # claim a different unit loop on a unital vertex
    bad = make_bracoid(
        bracoid.vertex_names,
        bracoid.label_names,
        bracoid.phi,
        bracoid.bullet,
        bracoid.dot,
        units,
    )
    report = verify_bracoid(bad)
    assert not report.passed


def test_dot_unit_differs_from_unit_loop_detected(z4):
    _, dsb = z4
    bracoid = semiloopoid_of_dsb(dsb)
    dot = bracoid.dot.copy()
    # replace the vertex group at s0 by an isomorphic copy whose unit is label 1
    perm = np.array([1, 0, 2, 3])
    g = np.array(build_group("cyclic:4").table)
    inv = np.zeros(4, dtype=int)
    inv[perm] = np.arange(4)
    dot[0] = perm[g[inv[:, None], inv[None, :]]]
    bad = make_bracoid(
        bracoid.vertex_names,
        bracoid.label_names,
        bracoid.phi,
        bracoid.bullet,
        dot,
        bracoid.units,
    )
    report = verify_bracoid(bad)
    check = report.check("per_vertex_groups")
    assert not check.passed
    assert "unit" in check.witness["note"]


def test_computation_rules(z3, z4):
    for _, dsb in (z3, z4):
        assert verify_computation_rules(dsb).passed


def test_dsb_bracoid_equivalence_under_tampering(z3):
    group, dsb = z3
    rng = np.random.default_rng(11)
    for _ in range(20):
        ops = dsb.ops.copy()
        v = rng.integers(0, dsb.vertex_count)
        a = rng.integers(1, 3)
        row = rng.permutation(3)
        ops[v, a] = row
        cand = make_dsb(group, dsb.vertex_names, dsb.phi, ops)
        dsb_ok = verify_dsb(cand).passed
        bracoid = semiloopoid_of_dsb(cand)
        bracoid_ok = verify_bracoid(bracoid).passed
        assert dsb_ok == bracoid_ok


def test_relabelled_bracoid_still_valid(z4):
    _, dsb = z4
    bracoid = semiloopoid_of_dsb(dsb)
    rng = np.random.default_rng(3)
    perms = np.stack([rng.permutation(4) for _ in range(bracoid.vertex_count)])
    scrambled = relabel_bracoid(bracoid, perms)
    report = verify_bracoid(scrambled)
    assert report.passed
    braiding = braiding_of_qtsb(scrambled)
    assert verify_braiding(scrambled, braiding).passed


def test_dsb_json_round_trip(z4):
    import json

    _, dsb = z4
    data = dsb_to_json(dsb)
    text = json.dumps(data, indent=2, sort_keys=True)
    back = dsb_from_json(json.loads(text))
    assert back.vertex_names == dsb.vertex_names
    assert np.array_equal(back.phi, dsb.phi)
    assert np.array_equal(back.ops, dsb.ops)
    assert json.dumps(dsb_to_json(back), indent=2, sort_keys=True) == text


def test_bracoid_json_round_trip(z4):
    import json

    _, dsb = z4
    bracoid = semiloopoid_of_dsb(dsb)
    data = bracoid_to_json(bracoid)
    text = json.dumps(data, indent=2, sort_keys=True)
    back = bracoid_from_json(json.loads(text))
    assert np.array_equal(back.bullet, bracoid.bullet)
    assert np.array_equal(back.dot, bracoid.dot)
    assert np.array_equal(back.units, bracoid.units)
    assert json.dumps(bracoid_to_json(back), indent=2, sort_keys=True) == text


def test_semiloopoid_arrays_are_the_validated_ones(z4):
    # semiloopoid_of_dsb builds its bracoid without make_bracoid; every array
    # must be the one the validating constructor builds from plain lists
    from tests.conftest import cached_full

    # the full cyclic:3 family has initial vertices, with unit -1
    for dsb in (z4[1], cached_full("cyclic:3").dsb):
        L, n = dsb.phi.shape
        e = dsb.group.identity
        trivial = [dsb.ops[v, e].tolist() == list(range(n)) and dsb.phi[v, e] == v for v in range(L)]
        checked = make_bracoid(
            list(dsb.vertex_names), list(dsb.group.names), dsb.phi.tolist(), dsb.ops.tolist(),
            [list(map(list, dsb.group.table))] * L, [e if t else -1 for t in trivial],
        )
        bracoid = semiloopoid_of_dsb(dsb)
        assert (bracoid.vertex_names, bracoid.label_names) == (checked.vertex_names, checked.label_names)
        assert bracoid.unital.tolist() == trivial
        for field in ("phi", "bullet", "dot", "units", "unital"):
            ours, theirs = getattr(bracoid, field), getattr(checked, field)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), field
            assert ours.flags.c_contiguous and not ours.flags.writeable, field


def test_derived_tables_are_computed_once(z4):
    bracoid = semiloopoid_of_dsb(z4[1])
    assert verify_bracoid(bracoid).passed
    has, identity = bracoid.dot_identity
    assert has.all() and (identity == z4[0].identity).all()
    assert (bracoid.dot_inverse == np.array(z4[0].inverses)).all()
    action = bracoid.derived_action
    # the braiding's first component is the cached table, not a second copy
    assert braiding_of_qtsb(bracoid).right is action
    for table in (has, identity, bracoid.dot_inverse, action):
        assert not table.flags.writeable
    assert (identity.dtype, bracoid.dot_inverse.dtype, action.dtype) == (np.int16,) * 3
    # x -> y = x^-1 dot (x bullet y), cell by cell
    D, B, inv = bracoid.dot, bracoid.bullet, bracoid.dot_inverse
    for lam, a, b in np.ndindex(action.shape):
        assert action[lam, a, b] == D[lam, inv[lam, a], B[lam, a, b]]


def test_listed_unit_must_not_be_minus_one(z4):
    import json

    data = json.loads(json.dumps(bracoid_to_json(semiloopoid_of_dsb(z4[1]))))
    data["units"]["s2"] = -1
    with pytest.raises(InputError, match="^every unital vertex needs a unit label$"):
        bracoid_from_json(data)
    # leaving the vertex out of 'units' makes it initial
    del data["units"]["s2"]
    bracoid = bracoid_from_json(data)
    assert bracoid.units[bracoid.vertex_index("s2")] == -1
    assert bracoid.unital.sum() == bracoid.vertex_count - 1


@given(st.sampled_from(["cyclic:3", "cyclic:4", "cyclic:5", "klein4"]), st.randoms())
def test_random_orbit_families_verify(name, rng):
    group = build_group(name)
    k = len(automorphism_group(group))
    seed = tuple([0] + [rng.randrange(k) for _ in range(group.order - 1)])
    family = orbit_closure(seed, group)
    dsb = dsb_from_subgroup_family(group, family)
    assert verify_dsb(dsb).passed
    bracoid = semiloopoid_of_dsb(dsb)
    braiding = braiding_of_qtsb(bracoid)
    assert verify_braiding(bracoid, braiding).passed


@pytest.mark.parametrize("name", ["cyclic:4", "klein4", "sym:3"])
def test_relabel_bracoid_inverse_restores_the_tables(name):
    bracoid = semiloopoid_of_dsb(cached_unital(name).dsb)
    L, n = bracoid.phi.shape
    rng = np.random.default_rng(5)
    perms = rng.permuted(np.broadcast_to(np.arange(n), (L, n)), axis=1)
    back = relabel_bracoid(relabel_bracoid(bracoid, perms), _inverse_rows(perms))
    for table in ("phi", "bullet", "dot", "units"):
        assert np.array_equal(getattr(back, table), getattr(bracoid, table)), table
