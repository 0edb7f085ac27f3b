import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynbrace.errors import InputError
from dynbrace.groups import (
    _inverse_rows,
    _REPORT_PRESETS,
    automorphism_group,
    build_group,
    find_isomorphism,
    group_from_json,
    group_to_json,
    is_abelian,
    isomorphisms,
    make_group,
)
from tests import _golden

PRESET_ORDERS = {
    "trivial": 1,
    "cyclic:2": 2,
    "cyclic:3": 3,
    "cyclic:4": 4,
    "cyclic:5": 5,
    "cyclic:6": 6,
    "cyclic:7": 7,
    "cyclic:8": 8,
    "klein4": 4,
    "sym:3": 6,
    "dihedral:3": 6,
    "dihedral:4": 8,
    "quaternion8": 8,
    "prod:cyclic:2,cyclic:2": 4,
    "prod:cyclic:2,cyclic:4": 8,
}


@pytest.mark.parametrize("name,order", sorted(PRESET_ORDERS.items()))
def test_preset_orders_and_identity(name, order):
    g = build_group(name)
    assert g.order == order
    assert g.identity == 0
    for a in range(order):
        assert g.mul(0, a) == a == g.mul(a, 0)


def test_cyclic_table_is_addition():
    g = build_group("cyclic:3")
    assert np.array_equal(g.table, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def test_trivial_group():
    g = build_group("trivial")
    assert g.order == 1 and np.array_equal(g.table, [[0]])


@pytest.mark.parametrize(
    "name,expected",
    [("cyclic:4", True), ("sym:3", False), ("trivial", True), ("quaternion8", False)],
)
def test_is_abelian(name, expected):
    assert is_abelian(build_group(name)) is expected


def test_latin_square_violation_names_cell():
    table = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]
    with pytest.raises(InputError, match="row 1 repeats value 1"):
        build_group({"table": table})


def test_missing_identity_rejected():
    # latin square without a two-sided unit
    table = [[1, 0, 2], [2, 1, 0], [0, 2, 1]]
    with pytest.raises(InputError):
        build_group({"table": table})


def test_non_associative_rejected():
    # a latin square with an identity that is not a group (order 5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InputError, match="associative"):
        build_group({"table": table})


def test_identity_canonicalised_to_zero():
    # cyclic group of order 3 with the identity sitting at index 1
    table = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    g = build_group({"table": table})
    assert g.identity == 0
    assert g.mul(0, 2) == 2


def test_inverses():
    g = build_group("quaternion8")
    for a in range(8):
        assert g.mul(a, g.inv(a)) == 0
        assert g.mul(g.inv(a), a) == 0


AUT_COUNTS = {
    "trivial": 1,
    "cyclic:2": 1,
    "cyclic:3": 2,
    "cyclic:4": 2,
    "cyclic:5": 4,
    "cyclic:6": 2,
    "cyclic:7": 6,
    "cyclic:8": 4,
    "klein4": 6,
    "sym:3": 6,
    "dihedral:4": 8,
    "quaternion8": 24,
    "prod:cyclic:2,cyclic:4": 8,
}


@pytest.mark.parametrize("name,count", sorted(AUT_COUNTS.items()))
def test_automorphism_counts(name, count):
    g = build_group(name)
    assert len(automorphism_group(g)) == count


def brute_force_automorphisms(g):
    """Oracle: all identity-fixing bijections preserving the table."""
    rest = [x for x in range(g.order) if x != g.identity]
    found = []
    for images_rest in itertools.permutations(rest):
        img = [0] * g.order
        img[g.identity] = g.identity
        for x, y in zip(rest, images_rest):
            img[x] = y
        if all(
            img[g.mul(a, b)] == g.mul(img[a], img[b])
            for a in range(g.order)
            for b in range(g.order)
        ):
            found.append(tuple(img))
    return sorted(found)


@pytest.mark.parametrize("name", ["cyclic:3", "cyclic:4", "klein4", "sym:3", "cyclic:6"])
def test_automorphisms_match_brute_force(name):
    g = build_group(name)
    assert [tuple(row) for row in automorphism_group(g).tolist()] == brute_force_automorphisms(g)


def test_automorphism_order_canonical():
    g = build_group("klein4")
    images = automorphism_group(g).tolist()
    assert images == sorted(images)
    assert images[0] == list(range(g.order))


@pytest.mark.parametrize("name", ["cyclic:4", "klein4", "sym:3", "quaternion8", "dihedral:4"])
def test_automorphisms_closed_under_composition_and_inverse(name):
    g = build_group(name)
    auts = {tuple(row) for row in automorphism_group(g).tolist()}
    for f in list(auts):
        inv = [0] * g.order
        for x, y in enumerate(f):
            inv[y] = x
        assert tuple(inv) in auts
        for h in list(auts):
            assert tuple(f[h[x]] for x in range(g.order)) in auts


def test_automorphism_count_divides_factorial():
    import math

    for name in PRESET_ORDERS:
        g = build_group(name)
        assert math.factorial(g.order) % len(automorphism_group(g)) == 0


def test_isomorphisms_dihedral3_sym3():
    assert find_isomorphism(build_group("dihedral:3"), build_group("sym:3")) is not None
    assert find_isomorphism(build_group("cyclic:6"), build_group("sym:3")) is None


def test_klein4_equals_product():
    assert np.array_equal(build_group("klein4").table, build_group("prod:cyclic:2,cyclic:2").table)


@given(st.sampled_from(["cyclic:4", "klein4", "sym:3", "cyclic:6"]), st.randoms())
def test_automorphism_count_is_isomorphism_invariant(name, rng):
    g = build_group(name)
    perm = list(range(g.order))
    rest = perm[1:]
    rng.shuffle(rest)
    perm[1:] = rest
    table = [
        [perm[g.mul(a, b)] for b in range(g.order)]
        for a in range(g.order)
    ]
    inv = [0] * g.order
    for x, y in enumerate(perm):
        inv[y] = x
    table = [[table[inv[i]][inv[j]] for j in range(g.order)] for i in range(g.order)]
    h = build_group({"table": table})
    assert len(automorphism_group(h)) == len(automorphism_group(g))
    assert find_isomorphism(g, h) is not None


def test_group_json_round_trip():
    g = build_group("dihedral:4")
    data = group_to_json(g)
    assert sorted(data) == ["identity", "name", "order", "table"]
    assert data["table"] is g.table  # the writer lays out the read-only array itself
    h = group_from_json(dict(data, table=g.table.tolist()))
    assert np.array_equal(h.table, g.table) and h.identity == 0


@pytest.mark.parametrize("key,value", [
    ("order", 5), ("order", True), ("order", 2.0), ("order", "2"), ("order", None),
    ("identity", 1), ("identity", False), ("identity", [0]),
])
def test_group_json_order_and_identity_must_be_the_tables(key, value):
    data = {"table": [[0, 1], [1, 0]], "order": 2, "identity": 0, key: value}
    with pytest.raises(InputError) as info:
        group_from_json(data)
    actual = 2 if key == "order" else 0
    assert str(info.value) == f"group {key} is {value!r}, but its table has {key} {actual}"


def test_group_json_order_and_identity_are_optional():
    assert group_from_json({"table": [[0, 1], [1, 0]]}).identity == 0
    assert group_from_json({"table": [[1, 0], [0, 1]], "order": 2, "identity": 1}).identity == 1


def test_duplicate_element_names_are_rejected():
    with pytest.raises(InputError, match="^duplicate group element name 'e'$"):
        make_group([[0, 1], [1, 0]], names=["e", "e"])
    with pytest.raises(InputError, match="^duplicate group element name 'b'$"):
        group_from_json({"table": _cyclic3(), "names": ["a", "b", "b"]})


@pytest.mark.parametrize("names,message", [
    ("ab", "group names must be a list of names"),
    (["a", 5], "group names[1] = 5 is not a string"),
    # the length is checked before the duplicates, as before
    (["a", "a", "b"], "3 element names for order 2"),
], ids=["a-string", "a-non-string", "too-many"])
def test_element_names_are_checked_like_vertex_names(names, message):
    with pytest.raises(InputError) as info:
        make_group([[0, 1], [1, 0]], names=names)
    assert str(info.value) == message


def _cyclic3():
    return [[(i + j) % 3 for j in range(3)] for i in range(3)]


def test_order_cap():
    with pytest.raises(InputError, match="exceeds"):
        build_group("cyclic:17")


def test_oversized_product_builds_no_product_table(monkeypatch):
    monkeypatch.setattr("dynbrace.groups.direct_product", lambda *args: pytest.fail("product table built"))
    with pytest.raises(InputError, match="^group order 256 exceeds supported maximum 16$"):
        build_group("prod:cyclic:16,cyclic:16,cyclic:16")


def test_unknown_spec():
    with pytest.raises(InputError):
        build_group("tetrahedral:12")


def test_pointed_identity_preserved_by_make_group():
    # a group built around a nonzero identity keeps it
    table = [[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]]
    g = make_group(table, identity=1)
    assert g.identity == 1
    assert find_isomorphism(g, build_group("klein4")) is not None


# -- the array checks against the cell-by-cell oracle of tests/_golden.py


def _cyclic_isotope(n, rows, cols, symbols):
    """The Latin square symbols[(rows[i] + cols[j]) % n]: an isotope of C_n,
    a group table only for some choices of the three permutations."""
    return [[symbols[(rows[i] + cols[j]) % n] for j in range(n)] for i in range(n)]


def _reduced_latin_square(n, rng):
    """A random Latin square with row 0 and column 0 in natural order, by
    backtracking: the table of a loop with identity 0, rarely associative."""
    table = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            return True
        i, j = divmod(cell, n)
        if table[i][j] >= 0:
            return fill(cell + 1)
        used = set(table[i]) | {table[r][j] for r in range(n)}
        for v in rng.sample(range(n), n):
            if v not in used:
                table[i][j] = v
                if fill(cell + 1):
                    return True
        table[i][j] = -1
        return False

    fill(0)
    return table


@st.composite
def raw_tables(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["cells", "rows", "isotope", "loop"]))
    if kind in ("cells", "rows"):
        cell = (st.integers(-1, n) | st.sampled_from([True, 1.0, None])) if draw(st.booleans()) else st.integers(0, n - 1)
        table = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
        if kind == "rows":  # one row a cell shorter or longer, or every row of another length
            row = table[draw(st.integers(0, n - 1))]
            change = draw(st.sampled_from(["shorter", "longer", "all", "cell"]))
            if change == "shorter":
                row.pop()
            elif change == "longer":
                row.append(draw(cell))
            elif change == "all":
                table = [r + [0] for r in table]
            else:
                table[draw(st.integers(0, n - 1))] = draw(cell)
        return table
    if kind == "isotope":
        perm = st.permutations(range(n))
        return _cyclic_isotope(n, draw(perm), draw(perm), draw(perm))
    return _reduced_latin_square(n, draw(st.randoms(use_true_random=False)))


@settings(max_examples=300)
@given(raw_tables(), st.data())
def test_make_group_agrees_with_the_cell_by_cell_oracle(table, data):
    identity = data.draw(st.none() | st.integers(0, len(table) - 1))
    try:
        expected = _golden.validate_table(table, identity)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            make_group(table, identity=identity)
        assert str(info.value) == str(exc)
    else:
        group = make_group(table, identity=identity)
        assert group.table.tolist() == table and group.identity == expected
        assert group.table.dtype == np.int16 and not group.table.flags.writeable
        assert group.inverses.dtype == np.int16 and not group.inverses.flags.writeable


_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("table,identity,message", [
    (_LOOP5, None, "not associative at triple (1,1,2)"),
    (_LOOP5, 1, "element 1 is not an identity: fails at 0"),
    ([[0, 1, 2], [1, 2, 0], [0, 2, 1]], None, "not a Latin square: column 0 repeats value 0 at rows 0 and 2"),
    ([[0, 1], [1, 0], [0, 1]], None, "group table has shape (3, 2), expected (3, 3)"),
    ([[0, 1], [1]], None, "group table is not a rectangular array"),
    ([[0, 1], [1, 0.0]], None, "group table entries must be integers"),
    ([[0, 5], [5, 0]], None, "group table[0][1] = 5 is not in [0, 2)"),
])
def test_first_violation_messages(table, identity, message):
    with pytest.raises(InputError) as oracle:
        _golden.validate_table(table, identity)
    with pytest.raises(InputError) as info:
        make_group(table, identity=identity)
    assert str(info.value) == str(oracle.value) == message


@pytest.mark.parametrize("name", [n for n in _REPORT_PRESETS if build_group(n).order <= 12])
def test_automorphisms_agree_with_the_oracle(name):
    g = build_group(name)
    auts = automorphism_group(g)
    assert tuple(map(tuple, auts.tolist())) == _golden.isomorphisms(g, g)
    assert auts.dtype == np.int16 and not auts.flags.writeable


@pytest.mark.parametrize("name", ["cyclic:6", "sym:3", "dihedral:4", "quaternion8", "prod:cyclic:2,cyclic:4"])
def test_isomorphisms_to_a_relabelled_copy_agree_with_the_oracle(name):
    g = build_group(name)
    perm = np.roll(np.arange(g.order), -1)  # x -> x + 1 mod n: the identity moves to 1
    h = make_group(perm[g.table][np.ix_(np.argsort(perm), np.argsort(perm))])
    assert h.identity == 1
    found = tuple(map(tuple, isomorphisms(g, h).tolist()))
    assert found == _golden.isomorphisms(g, h) and tuple(perm.tolist()) in found


ORDER_16_AUT_COUNTS = {
    "prod:cyclic:2,cyclic:2,cyclic:2,cyclic:2": 20160,
    "prod:cyclic:2,cyclic:2,cyclic:4": 192,
    "prod:cyclic:4,cyclic:4": 96,
    "dihedral:8": 32,
    "prod:cyclic:2,cyclic:8": 16,
    "cyclic:16": 8,
}


@pytest.mark.parametrize("name,count", sorted(ORDER_16_AUT_COUNTS.items()))
def test_order_16_automorphism_counts(name, count):
    auts = automorphism_group(build_group(name)).tolist()
    assert len(auts) == count and auts[0] == list(range(16))
    assert auts == sorted(auts)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.intp])
@pytest.mark.parametrize("shape", [(7, 5), (3, 4, 6)])
def test_inverse_rows_is_argsort(shape, dtype):
    rng = np.random.default_rng(11)
    perms = rng.permuted(np.broadcast_to(np.arange(shape[-1]), shape), axis=-1).astype(dtype)
    inverse = _inverse_rows(perms)
    assert inverse.dtype == dtype
    assert np.array_equal(inverse, np.argsort(perms, axis=-1))
