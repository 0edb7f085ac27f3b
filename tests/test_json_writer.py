"""The CLI's indented JSON writer emits the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``.

``cli._write_json`` lays out dicts and mixed lists in Python, lists of scalars
through one compact C encoding, and int and bool arrays (and the keyed,
ragged, braiding and component tables, each a ``_Rows``) straight from the
arrays; documents too large for one block are written key by key and block by
block.  Whatever shape a JSON tree has, the bytes must be the stdlib's for the
lists the arrays stand for.
"""
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dynbrace import cli
from dynbrace.enumeration import enumerate_full, initial_counts
from dynbrace.groups import automorphism_group
from dynbrace.parallelise import parallelise
from dynbrace.structures import braiding_of_qtsb, semiloopoid_of_dsb

from tests._golden import dsb_to_json
from tests.conftest import cached_full, cached_group, cached_unital

INTS = st.integers(min_value=-(2**70), max_value=2**70)
SCALARS = st.none() | st.booleans() | INTS | st.floats() | st.text()
TABLES = st.lists(st.lists(INTS, min_size=1, max_size=6), min_size=1, max_size=6)
TREES = st.recursive(
    SCALARS | TABLES,
    lambda kids: st.lists(kids, max_size=6) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=6),
    max_leaves=60,
)
ESCAPED = "é\n\"\\ "


def _stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _assert_same_text(got: str, want: str) -> None:
    # pytest's diff of two multi-megabyte texts takes minutes; name the first difference
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        near = slice(max(at - 80, 0), at + 80)
        raise AssertionError(f"texts differ at offset {at}: {got[near]!r} != {want[near]!r}")


def _written(obj, block_cells: int | None = None) -> str:
    fh = io.StringIO()
    with mock.patch.object(cli, "_BLOCK_CELLS", block_cells or cli._BLOCK_CELLS):
        cli._write_json(fh, obj)
    return fh.getvalue() + "\n"


@settings(max_examples=300)
@given(TREES)
@example([-1, 0, 2**64, -(2**80)])
@example({ESCAPED: ["\x00", "ü", "퟿"], "": "plain"})
@example({"empty": [], "none": {}, "nested": [[], {}, [[]], [{}]]})
@example([[1, 2, 3], [4], [5, 6]])
@example([[1, [2]], [3], 4, "x", [True, 1], [None], [1.5, 2]])
@example([True, False, None, 0, -0.0, 1e300, float("inf"), float("nan")])
@example([[True, 1], [1, None]])
@example([(1, 2), [3, 4]])
@example([[1, 2], [], [3]])
@example([[1, [2]], 3])
@example([1, "a, b"])
@example([0, {"k": 1}])
@example([0, [1, 2], 3])
@example(["a", "b", 1])
def test_dumps_matches_the_stdlib(obj):
    # whole, and with blocks of two cells, so that every dict and list that
    # can be streamed is
    assert _written(obj) == _stdlib(obj)
    assert _written(obj, block_cells=2) == _stdlib(obj)


def _array_elements(dtype):
    if dtype == np.bool_:
        return st.booleans()
    info = np.iinfo(dtype)
    # small values come from the decimal table; negative ones and those
    # from the table's cap on go through str
    values = st.integers(-3, 40) | st.integers(info.min, info.max)
    if info.max > cli._LUT_CAP:
        values |= st.integers(cli._LUT_CAP - 2, cli._LUT_CAP + 2)
    return values


@st.composite
def int_arrays(draw):
    dtype = draw(st.sampled_from([np.int16, np.int32, np.int64, np.bool_]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5))
    return draw(hnp.arrays(dtype, shape, elements=_array_elements(dtype)))


@settings(max_examples=300)
@given(int_arrays())
@example(np.array([2**62, -(2**62), 0], dtype=np.int64))
@example(np.zeros((3, 0, 2), dtype=np.int32))
@example(np.zeros((0, 4), dtype=np.int16))
@example(np.ones((1, 1, 1), dtype=np.bool_))
@example(np.array([[cli._LUT_CAP - 1, cli._LUT_CAP], [-1, 7]], dtype=np.int32))
def test_array_layout_matches_the_stdlib(a):
    assert json.dumps(a, cls=cli._IndentedEncoder) == json.dumps(a.tolist(), indent=2)
    # nested, and streamed by blocks of rows
    for block_cells in (None, 1):
        assert _written({"k": [a], "t": a}, block_cells) == _stdlib({"k": [a.tolist()], "t": a.tolist()})


def test_array_layout_before_the_decimal_table_exists():
    a = np.array([[-5, -1], [-3, -2]], dtype=np.int64)
    with mock.patch.object(cli, "_decimal_lut", np.empty(0, dtype=object)):
        assert json.dumps(a, cls=cli._IndentedEncoder) == json.dumps(a.tolist(), indent=2)
        assert json.dumps(a + 6, cls=cli._IndentedEncoder) == json.dumps((a + 6).tolist(), indent=2)


def test_keyed_table_matches_the_stdlib_dict():
    names = (ESCAPED, "s10", "s2", "", "\x00", "ü")
    table = np.arange(6 * 2 * 3, dtype=np.int16).reshape(6, 2, 3) - 20
    want = {name: row.tolist() for name, row in zip(names, table)}
    keyed = cli._keyed(names, table)
    assert json.dumps(keyed, cls=cli._IndentedEncoder) == json.dumps(want, indent=2, sort_keys=True)
    for block_cells in (None, 6, 1):
        assert _written({"ops": keyed}, block_cells) == _stdlib({"ops": want})
    flat = cli._keyed(names, np.arange(6))
    assert json.dumps(flat, cls=cli._IndentedEncoder) == json.dumps(
        dict(zip(names, range(6))), indent=2, sort_keys=True)


def test_write_components_streams_the_dumps_bytes():
    structures = []
    for family in (cached_unital("cyclic:4"), cached_unital("sym:3")):
        structures += parallelise(semiloopoid_of_dsb(family.dsb))[1]
    want = _stdlib({"components": [dsb_to_json(dsb) for dsb in structures]})
    for block_cells in (None, 50, 1):
        assert _written({"components": cli._components(tuple(structures))}, block_cells) == want


def _list_document(result, initial=None) -> dict:
    """The ``enumerate --json`` document as plain lists."""
    data = dsb_to_json(result.dsb)
    data["aut"] = automorphism_group(result.group).tolist()
    data["assignments"] = result.assignments.tolist()
    data["unital"] = result.unital_flags.tolist()
    data["components"] = {
        "members": [m.tolist() for m in result.components.members],
        "degrees": list(result.components.degrees),
    }
    if initial is not None:
        data["initial_counts"] = initial
    return data


def test_dumps_of_enumeration_json_matches_the_stdlib(tmp_path):
    # the streamed enumerate --json file against the stdlib dump of the list
    # document, also with blocks small enough to split every table
    for group, full in (("cyclic:4", True), ("dihedral:3", False)):
        result = cached_full(group) if full else cached_unital(group)
        initial = {str(s): c for s, c in initial_counts(result).by_size.items()} if full else None
        want = _stdlib(_list_document(result, initial))
        path = tmp_path / f"{group}.json"
        argv = ["enumerate", "--group", group, "--json", "--out", str(path)] + (["--full"] if full else [])
        for block_cells in (cli._BLOCK_CELLS, 64):
            with mock.patch.object(cli, "_BLOCK_CELLS", block_cells):
                assert cli.main(argv) == 0
            _assert_same_text(path.read_text(), want)


def _pair_map(bracoid, braiding) -> list:
    """The braiding as plain lists: [x, y, x->y, x<-y] per composable pair."""
    names = bracoid.vertex_names
    quadruples = []
    for lam in range(bracoid.vertex_count):
        for a in range(bracoid.label_count):
            for b in range(bracoid.label_count):
                _, r, w, l = braiding.apply(bracoid, lam, a, b)
                mu = int(bracoid.phi[lam, a])
                quadruples.append([[names[lam], a], [names[mu], b], [names[lam], r], [names[w], l]])
    return quadruples


def test_verify_json_braiding_is_the_pair_map(tmp_path):
    result = cached_full("cyclic:4")
    bracoid = semiloopoid_of_dsb(result.dsb)
    want = _pair_map(bracoid, braiding_of_qtsb(bracoid))
    path = tmp_path / "verify.json"
    with mock.patch.object(cli, "_BLOCK_CELLS", 1000):
        assert cli.main(["verify", "--group", "cyclic:4", "--full", "--json", "--out", str(path)]) == 0
    text = path.read_text()
    data = json.loads(text)
    assert data["braiding"] == want
    assert text == _stdlib(data)


def test_ragged_and_braiding_tables_at_one_cell_blocks():
    # one block per row (a source vertex for the braiding), so every block
    # starts at a new lo
    result = cached_full("cyclic:4")
    bracoid = semiloopoid_of_dsb(result.dsb)
    braiding = braiding_of_qtsb(bracoid)
    members = cli._ragged(result.components.order, result.components.starts)
    want = {"members": [m.tolist() for m in result.components.members]}
    for block_cells in (None, 1):
        _assert_same_text(_written({"members": members}, block_cells), _stdlib(want))
        _assert_same_text(_written({"braiding": cli._braiding(bracoid, braiding)}, block_cells),
                          _stdlib({"braiding": _pair_map(bracoid, braiding)}))


def test_writer_never_holds_the_whole_document():
    data = cli._enumeration_json(enumerate_full(cached_group("dihedral:3")))

    class Sink:
        written = 0

        def write(self, text):
            self.written += len(text)

    cli._write_json(Sink(), data)  # builds the decimal table, which is bounded by _LUT_CAP
    sink = Sink()
    tracemalloc.start()
    try:
        cli._write_json(sink, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 33 MB document, of which the writer holds a few blocks at a time
    assert sink.written > 30_000_000
    assert peak < sink.written // 8
