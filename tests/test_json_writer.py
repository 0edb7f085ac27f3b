"""The CLI's indented JSON writer emits the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``.

``cli._dumps`` and ``cli._write_components`` lay out int tables through one
``repr`` and lists of scalars through one compact C encoding; whatever shape
a JSON tree has, the bytes must be the stdlib's.
"""
import io
import json

from hypothesis import example, given, settings, strategies as st

from dynbrace import cli
from dynbrace.parallelise import parallelise
from dynbrace.structures import dsb_to_json, semiloopoid_of_dsb

from tests.conftest import cached_full, cached_unital

INTS = st.integers(min_value=-(2**70), max_value=2**70)
SCALARS = st.none() | st.booleans() | INTS | st.floats() | st.text()
TABLES = st.lists(st.lists(INTS, min_size=1, max_size=6), min_size=1, max_size=6)
TREES = st.recursive(
    SCALARS | TABLES,
    lambda kids: st.lists(kids, max_size=6) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=6),
    max_leaves=60,
)


def _stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300)
@given(TREES)
@example([-1, 0, 2**64, -(2**80)])
@example({"é\n\"\\ ": ["\x00", "ü", "퟿"], "": "plain"})
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
def test_dumps_matches_the_stdlib(obj):
    assert cli._dumps(obj) == _stdlib(obj)


def test_write_components_streams_the_dumps_bytes():
    structures = []
    for family in (cached_unital("cyclic:4"), cached_unital("sym:3")):
        structures += parallelise(semiloopoid_of_dsb(family.dsb))[1]
    fh = io.StringIO()
    cli._write_components(fh, structures)
    assert fh.getvalue() == _stdlib({"components": [dsb_to_json(dsb) for dsb in structures]})


def test_dumps_of_enumeration_json_matches_the_stdlib():
    data = cli._enumeration_json(cached_full("cyclic:4"))
    assert cli._dumps(data) == _stdlib(data)
