"""``quivers.int_array``, the one validator of caller tables: every constructor
leaves a caller's array as it was and refuses float, bool and out-of-range
arrays, and on any other table the validator answers as the list-and-asarray
validator kept in ``tests/_golden.py`` does, except where noted there."""
import ast
import math
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynbrace.enumeration import enumerate_unital
from dynbrace.errors import InputError
from dynbrace.groups import build_group, make_group
from dynbrace.parallelise import heap_from_group, make_heap, parallelise
from dynbrace.quivers import int_array, quiver_of_dynamical_set
from dynbrace.structures import make_bracoid, make_dsb, relabel_bracoid, restrict_bracoid, semiloopoid_of_dsb
from tests import _golden


@lru_cache(maxsize=None)
def _cyclic3():
    dsb = enumerate_unital(build_group("cyclic:3")).dsb
    return dsb, semiloopoid_of_dsb(dsb)


def _dsb(phi=None, ops=None):
    dsb, _ = _cyclic3()
    return make_dsb(dsb.group, dsb.vertex_names, dsb.phi if phi is None else phi, dsb.ops if ops is None else ops)


def _bracoid(**tables):
    _, b = _cyclic3()
    tables = {k: tables.get(k, getattr(b, k)) for k in ("phi", "bullet", "dot", "units")}
    return make_bracoid(b.vertex_names, b.label_names, **tables)


def _loop():
    """The one-vertex component of the cyclic:3 family, a connected bracoid."""
    _, b = _cyclic3()
    return restrict_bracoid(b, [0])


# case: (a table of the target dtype, a call passing it on and returning the table its result holds)
CASES = {
    "make_group": (lambda: build_group("cyclic:3").table, lambda t: make_group(t).table),
    "make_dsb-phi": (lambda: _cyclic3()[0].phi, lambda t: _dsb(phi=t).phi),
    "make_dsb-ops": (lambda: _cyclic3()[0].ops, lambda t: _dsb(ops=t).ops),
    "make_bracoid-phi": (lambda: _cyclic3()[1].phi, lambda t: _bracoid(phi=t).phi),
    "make_bracoid-bullet": (lambda: _cyclic3()[1].bullet, lambda t: _bracoid(bullet=t).bullet),
    "make_bracoid-dot": (lambda: _cyclic3()[1].dot, lambda t: _bracoid(dot=t).dot),
    "make_bracoid-units": (lambda: _cyclic3()[1].units, lambda t: _bracoid(units=t).units),
    "make_heap": (lambda: heap_from_group(build_group("cyclic:3")).table,
                  lambda t: make_heap(("0", "1", "2"), t).table),
    "relabel_bracoid": (lambda: np.tile(np.arange(3, dtype=np.int16), (4, 1)),
                        lambda t: relabel_bracoid(_cyclic3()[1], t).bullet),
    "quiver_of_dynamical_set": (lambda: _cyclic3()[0].phi,
                                lambda t: quiver_of_dynamical_set(_cyclic3()[0].vertex_names, ["a", "b", "c"], t).phi),
    "parallelise-base_labelling": (lambda: np.arange(3, dtype=np.int16),
                                   lambda t: parallelise(_loop(), 0, t)[0]),
}


@pytest.mark.parametrize("case", CASES)
def test_a_caller_array_stays_writable(case):
    source, build = CASES[case]
    table = source().copy()
    before = table.copy()
    stored = build(table)
    assert table.flags.writeable and np.array_equal(table, before)
    assert not stored.flags.writeable and not np.shares_memory(stored, table)


@pytest.mark.parametrize("defect", ["float", "bool", "out-of-range"])
@pytest.mark.parametrize("case", CASES)
def test_a_caller_array_needs_integer_cells_in_range(case, defect):
    source, build = CASES[case]
    table = source().copy()
    if defect == "out-of-range":
        table.flat[-1] = 1000
        match = r"\[\d+\] = 1000 is not in \[-?\d+, \d+\)$"
    else:
        table = table.astype(float if defect == "float" else bool)
        match = " entries must be integers$"
    with pytest.raises(InputError, match=match):
        build(table)


@pytest.mark.parametrize("table,message", [
    (np.array([[0.0, 1.0], [1.0, 0.0]]), "group table entries must be integers"),
    (np.array([[True, False], [False, True]]), "group table entries must be integers"),
    (np.array([[0, 5], [5, 0]]), "group table[0][1] = 5 is not in [0, 2)"),
], ids=["float", "bool", "out-of-range"])
def test_make_group_refuses_arrays_it_used_to_trust(table, message):
    with pytest.raises(InputError) as info:
        make_group(table)
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda nest: int_array(nest, "x", (16, 16), 0, 16, np.int16),
    make_group,
], ids=["int_array", "make_group"])
def test_an_oversized_nest_is_refused_before_its_cells_are_read(call):
    nest = [[0] * 10**7] * 16
    start = time.perf_counter()
    with pytest.raises(InputError, match=r"has shape \(16, 10000000\), expected \(16, 16\)$"):
        call(nest)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("nest,expected", [
    ([np.array([0, 1], dtype=np.int8), (1, np.int64(0))], [[0, 1], [1, 0]]),
    ([np.array([0, 1]), [np.array(1), 0]], [[0, 1], [1, 0]]),
    ([np.array([0.0, 1.0]), [1, 0]], "x entries must be integers"),
    ([np.array([0, 1]), np.array([1])], "x is not a rectangular array"),
], ids=["int-rows", "zero-dimensional-cell", "float-row", "ragged-rows"])
def test_an_array_inside_a_nest_reads_as_its_list(nest, expected):
    # as np.asarray reads it: an array is a level, a 0-d array a cell
    for validate in (int_array, _golden.int_array):
        outcome = _outcome(validate, nest, (2, 2), 0, 2, np.int16)
        assert (outcome.tolist() if isinstance(outcome, np.ndarray) else outcome) == expected


# -- agreement with the parent validator


_ODD_CELLS = [True, False, 1.0, None, "1", 2**63, 2**64, -2**63 - 1, 2**70]


@st.composite
def int_array_inputs(draw):
    """(data, shape, low, high, dtype): an array or a nest of lists or tuples
    near ``shape``, sometimes deeper, shallower, ragged or with odd cells."""
    shape = tuple(draw(st.lists(st.none() | st.integers(0, 3), min_size=1, max_size=3)))
    dims = [draw(st.integers(0, 3)) if d is None else d for d in shape]
    if draw(st.booleans()):
        change = draw(st.sampled_from(["longer", "shorter", "deeper", "shallower"]))
        k = draw(st.integers(0, len(dims) - 1))
        if change == "longer":
            dims[k] += 1
        elif change == "shorter":
            dims[k] = max(dims[k] - 1, 0)
        elif change == "deeper":
            dims.append(draw(st.integers(1, 2)))
        elif len(dims) > 1:
            dims.pop()
    size = math.prod(dims)
    low, high = draw(st.integers(-1, 0)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.int16, np.int32]))
    if draw(st.integers(0, 3)) == 0:
        values = draw(st.lists(st.integers(-2, 5), min_size=size, max_size=size))
        kind = draw(st.sampled_from([np.int16, np.int32, np.int64, np.uint8, np.float64, bool]))
        return np.array(values).astype(kind).reshape(dims), shape, low, high, dtype
    cell = (st.integers(-2, 5) | st.sampled_from(_ODD_CELLS)) if draw(st.booleans()) else st.integers(-1, 4)
    cells = draw(st.lists(cell, min_size=size, max_size=size))
    holder = np.empty(size, dtype=object)
    holder[:] = cells
    nest = holder.reshape(dims).tolist()
    if size and draw(st.booleans()):  # one list a cell longer or shorter
        row = nest
        while isinstance(row[0], list) and row[0] and draw(st.booleans()):
            row = row[draw(st.integers(0, len(row) - 1))]
        if draw(st.booleans()):
            row.append(draw(cell))
        else:
            row.pop()
    if draw(st.booleans()):
        nest = _tuples(nest)
    return nest, shape, low, high, dtype


def _tuples(nest):
    return tuple(map(_tuples, nest)) if isinstance(nest, list) else nest


def _cells_with_depths(nest):
    """The (depth, cell) pairs of the cells of a nest of lists and tuples."""
    cells, todo = [], [(nest, 0)]
    while todo:
        item, depth = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend((x, depth + 1) for x in item)
        else:
            cells.append((depth, item))
    return cells


def _outcome(validate, data, shape, low, high, dtype):
    try:
        return validate(data, "x", shape, low, high, dtype)
    except InputError as exc:
        return str(exc)


@settings(max_examples=400)
@given(int_array_inputs())
def test_int_array_agrees_with_the_parent_validator(case):
    data, shape, low, high, dtype = case
    old = _outcome(_golden.int_array, *case)
    new = _outcome(int_array, *case)
    if isinstance(old, np.ndarray) or isinstance(new, np.ndarray):
        assert isinstance(old, np.ndarray) and isinstance(new, np.ndarray), (old, new)
        assert new.dtype == dtype and new.shape == old.shape and np.array_equal(new, old)
        assert not new.flags.writeable
        return
    if old == new:
        return
    cells = _cells_with_depths(data)
    if old == "x entries must be integers":
        # an integer beyond int64 made numpy hold the nest as floats or
        # objects; it is now the out-of-range cell it is
        assert {type(v) for _, v in cells} == {int}
        assert any(not -2**63 <= v < 2**63 for _, v in cells)
        assert new.startswith("x[") and f" is not in [{low}, {high})" in new
    else:
        # a nest deeper than ``shape`` and of other lengths in its first
        # levels was measured to its bottom; it is now read to the depth of
        # ``shape`` only, which already differs
        got = ast.literal_eval(new.removeprefix("x has shape ").split(", expected")[0])
        assert any(depth > len(shape) for depth, _ in cells) and len(got) == len(shape)
        assert old == "x is not a rectangular array" or old.startswith(f"x has shape {got}"[:-1])
