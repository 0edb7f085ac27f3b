import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dynbrace.errors import InputError, ResourceCapError
from dynbrace.groups import _REPORT_PRESETS, build_group
from dynbrace.holomorph import (
    HolElement,
    RegularSubset,
    check_regular_subset,
    hol_inv,
    hol_mul,
    holomorph,
    orbit_closure,
    translate,
)
from tests import _golden


def identity_subset(group):
    return RegularSubset(tuple(0 for _ in range(group.order)))


def is_unital(subset, group):
    return subset.assignment[group.identity] == 0


def subset_to_json(subset):
    return {"assignment": list(subset.assignment)}


def subset_from_json(data, group):
    if "assignment" not in data:
        raise InputError("regular subset JSON needs an 'assignment' key")
    subset = RegularSubset(tuple(int(v) for v in data["assignment"]))
    check_regular_subset(subset, group)
    return subset


Z3 = build_group("cyclic:3")
Z4 = build_group("cyclic:4")
K4 = build_group("klein4")

# assignments over cyclic:3; automorphism 1 is negation
S0 = RegularSubset((0, 0, 0))
S1 = RegularSubset((0, 1, 0))
S2 = RegularSubset((0, 0, 1))
S3 = RegularSubset((0, 1, 1))
R0 = RegularSubset((1, 1, 1))


def test_unit_of_semidirect_product():
    for b in range(3):
        for g in range(2):
            assert hol_mul(HolElement(0, 0), HolElement(b, g), Z3) == (b, g)


def test_negation_pair_squares_to_unit():
    x = HolElement(1, 1)  # (1, -id) in the order-3 case
    assert hol_mul(x, x, Z3) == (0, 0)


def test_inverse_examples():
    assert hol_inv(HolElement(0, 0), Z3) == (0, 0)
    assert hol_inv(HolElement(1, 1), Z3) == (1, 1)


@pytest.mark.parametrize("group", [Z4, K4])
def test_inverse_law_exhaustive(group):
    hol = holomorph(group)
    for a in range(group.order):
        for f in range(len(hol.auts)):
            x = HolElement(a, f)
            assert hol_mul(x, hol_inv(x, group), group) == (0, 0)
            assert hol_mul(hol_inv(x, group), x, group) == (0, 0)


def test_hol_mul_associative_on_klein4():
    hol = holomorph(K4)
    elements = [HolElement(a, f) for a in range(4) for f in range(len(hol.auts))]
    for x, y, z in itertools.islice(itertools.product(elements, repeat=3), 0, None, 7):
        assert hol_mul(hol_mul(x, y, K4), z, K4) == hol_mul(x, hol_mul(y, z, K4), K4)


def test_translate_matches_worked_family():
    assert translate(S1, 1, Z3) == S3
    assert translate(S1, 2, Z3) == S2
    for a in range(3):
        assert translate(S0, a, Z3) == S0


def test_translate_by_identity_fixes_unital():
    for s in (S0, S1, S2, S3):
        assert translate(s, 0, Z3) == s


def test_translate_initial_vertex_hits_identity_family():
    for a in range(3):
        assert translate(R0, a, Z3) == S0


def test_inverse_identity_fails_off_the_unital_part():
    # counterexample showing why the identity is a unital-only fact:
    # all arrows of R0 land on the all-identity family
    hol = holomorph(Z3)
    a, fa = 1, R0.assignment[1]
    fi = hol.ainv[fa]
    position = Z3.inv(hol.act[fi][a])
    assert translate(R0, a, Z3).assignment[position] != fi


def test_orbit_closures():
    assert orbit_closure(S0, Z3) == (S0,)
    assert set(orbit_closure(S1, Z3)) == {S1, S2, S3}
    assert set(orbit_closure(R0, Z3)) == {R0, S0}


def test_orbit_closure_sorted_canonically():
    orbit = orbit_closure(S1, Z3)
    assert [s.assignment for s in orbit] == sorted(s.assignment for s in orbit)


def test_orbit_closure_cap():
    g = build_group("cyclic:5")
    seed = RegularSubset((0, 1, 1, 1, 1))
    with pytest.raises(ResourceCapError):
        orbit_closure(seed, g, cap=2)


def test_translate_range_check():
    with pytest.raises(InputError):
        translate(S0, 5, Z3)


def small_group_and_subset():
    names = st.sampled_from(["cyclic:3", "cyclic:4", "klein4", "cyclic:6", "sym:3"])

    @st.composite
    def build(draw):
        group = build_group(draw(names))
        k = len(holomorph(group).auts)
        assignment = tuple(
            draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(group.order)
        )
        return group, RegularSubset(assignment)

    return build()


@given(small_group_and_subset())
def test_translation_composition_law(pair):
    # translate(translate(S,a), b) == translate(S, a * f_a(b))
    group, s = pair
    hol = holomorph(group)
    for a in range(group.order):
        fa = s.assignment[a]
        for b in range(group.order):
            ab = group.mul(a, hol.act[fa][b])
            assert translate(translate(s, a, group), b, group) == translate(s, ab, group)


@given(small_group_and_subset())
def test_translate_of_unital_is_unital(pair):
    group, s = pair
    if not is_unital(s, group):
        s = RegularSubset((0,) + s.assignment[1:])
    for a in range(group.order):
        assert is_unital(translate(s, a, group), group)


@given(small_group_and_subset())
def test_unital_orbit_size_divides_order(pair):
    group, s = pair
    s = RegularSubset((0,) + s.assignment[1:])
    orbit = orbit_closure(s, group)
    assert group.order % len(orbit) == 0


@given(small_group_and_subset())
def test_inverse_identity_for_assigned_automorphisms(pair):
    # in translate(S, a), the element (f_a^-1(a))^-1 carries f_a^-1;
    # this needs S unital (the identity pair supplies the inverse element)
    group, s = pair
    s = RegularSubset((0,) + s.assignment[1:])
    hol = holomorph(group)
    for a in range(group.order):
        fa = s.assignment[a]
        fi = hol.ainv[fa]
        target = translate(s, a, group)
        position = group.inv(hol.act[fi][a])
        assert target.assignment[position] == fi


def test_identity_subset_translates_to_itself():
    for group in (Z3, Z4, K4):
        s = identity_subset(group)
        for a in range(group.order):
            assert translate(s, a, group) == s


def test_subset_json_round_trip():
    data = subset_to_json(S3)
    assert data == {"assignment": [0, 1, 1]}
    assert subset_from_json(data, Z3) == S3
    with pytest.raises(InputError):
        subset_from_json({"assignment": [0, 9, 0]}, Z3)


@pytest.mark.parametrize("name", [n for n in _REPORT_PRESETS if build_group(n).order <= 8])
def test_holomorph_tables_agree_with_the_dict_lookup_oracle(name):
    hol = holomorph(build_group(name))
    comp, ainv = _golden.holomorph_tables([a.images for a in hol.auts])
    assert hol.act.tolist() == [list(a.images) for a in hol.auts]
    assert hol.comp.tolist() == comp and hol.ainv.tolist() == ainv
    for table in (hol.act, hol.comp, hol.ainv):
        assert table.dtype == np.int16 and not table.flags.writeable
