import tracemalloc
from collections import deque
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dynbrace.quivers as quivers
from dynbrace.errors import InputError
from dynbrace.quivers import (
    component_report,
    connected_components,
    export_dot,
    homogeneous_weight,
    labels,
    quiver_from_json,
    quiver_of_dynamical_set,
    uneven_rows,
)

from tests import _golden
from tests._golden import quiver_to_json
from tests.conftest import cached_full, cached_unital

# the worked unital family over the order-3 cyclic group:
# s0 isolated with three loops, s1/s2/s3 a complete degree-1 triangle
Z3_PHI = [
    [0, 0, 0],  # s0
    [1, 3, 2],  # s1
    [2, 1, 3],  # s2
    [3, 1, 2],  # s3
]
Z3_QUIVER = quiver_of_dynamical_set(["s0", "s1", "s2", "s3"], ["0", "1", "2"], Z3_PHI)


def test_quiver_shape():
    assert Z3_QUIVER.vertex_count == 4
    assert Z3_QUIVER.phi.size == 12


def test_singleton_vertex_is_loop_bundle():
    q = quiver_of_dynamical_set(["v"], ["a", "b", "c"], [[0, 0, 0]])
    assert q.phi.size == 3
    assert all(t == 0 for t in q.phi[0])


def test_phi_out_of_range_rejected():
    with pytest.raises(InputError, match=r"phi\[0\]\[1\]"):
        quiver_of_dynamical_set(["v"], ["a", "b"], [[0, 3]])


def test_components_of_worked_family():
    report = connected_components(Z3_QUIVER.phi)
    assert [m.tolist() for m in report.members] == [[0], [1, 2, 3]]
    assert report.component_of.tolist() == [0, 1, 1, 1]


def test_component_numbering_by_smallest_vertex():
    q = quiver_of_dynamical_set(["a", "b", "c"], ["x"], [[2], [1], [0]])
    report = connected_components(q.phi)
    assert [m.tolist() for m in report.members] == [[0, 2], [1]]


def test_two_loop_bundles_are_two_components():
    q = quiver_of_dynamical_set(["a", "b"], ["x", "y"], [[0, 0], [1, 1]])
    assert connected_components(q.phi).count == 2


def test_completeness_degrees():
    report = connected_components(Z3_QUIVER.phi)
    assert report.degrees == (3, 1)


def test_degree_two_component():
    # two vertices with doubled arrows both ways and two loops each
    q = quiver_of_dynamical_set(
        ["s2", "s3"], ["0", "1", "2", "3"], [[0, 1, 1, 0], [1, 0, 0, 1]]
    )
    report = connected_components(q.phi)
    assert report.degrees == (2,)


def test_not_complete_degree():
    q = quiver_of_dynamical_set(["a", "b"], ["x", "y"], [[0, 1], [1, 1]])
    report = connected_components(q.phi)
    assert report.degrees == (None,)


def test_uneven_rows():
    rows = np.array([[0, 0, 1, 1], [1, 0, 1, 0], [0, 0, 0, 1], [2, 2, 2, 2], [3, 2, 1, 0], [3, 2, 1, 0]])
    step = np.array([2, 2, 2, 4, 1, 0])
    assert uneven_rows(rows, step).tolist() == [False, False, True, False, False, True]


def test_homogeneous_weights():
    assert homogeneous_weight(connected_components(Z3_QUIVER.phi)) == 3
    loops = quiver_of_dynamical_set(["v"], ["a", "b", "c"], [[0, 0, 0]])
    assert homogeneous_weight(connected_components(loops.phi)) == 3


def test_inhomogeneous_with_initial_vertices():
    # attach an initial vertex feeding the triangle: no longer homogeneous
    phi = [row + [] for row in Z3_PHI] + [[1, 2, 3]]
    q = quiver_of_dynamical_set(["s0", "s1", "s2", "s3", "r"], ["0", "1", "2"], phi)
    assert homogeneous_weight(connected_components(q.phi)) is None


def test_homogeneity_failure_reports_component():
    q = quiver_of_dynamical_set(["a", "b"], ["x", "y"], [[0, 0], [1, 1]])
    # two loop bundles of degree 2: homogeneous of weight 2
    assert homogeneous_weight(connected_components(q.phi)) == 2
    # b and c swap without loops: their component, component 1, is not complete
    q2 = quiver_of_dynamical_set(["a", "b", "c"], ["x", "y"], [[0, 0], [2, 2], [1, 1]])
    report = connected_components(q2.phi)
    assert homogeneous_weight(report) is None and report.degrees == (2, None)


def test_export_dot_single_loop():
    q = quiver_of_dynamical_set(["v"], ["0"], [[0]])
    text = export_dot(q)
    assert text == 'digraph quiver {\n  "v";\n  "v" -> "v" [label="0"];\n}\n'


def test_export_dot_counts():
    text = export_dot(Z3_QUIVER)
    assert text.count("->") == 12
    assert len([l for l in text.splitlines() if l.endswith('";') and "->" not in l]) == 4


def test_export_dot_collapse():
    loops = quiver_of_dynamical_set(["s0"], ["0", "1", "2"], [[0, 0, 0]])
    text = export_dot(loops, collapse_labels=True)
    assert '"s0" -> "s0" [label="×3"];' in text
    assert text.count("->") == 1


def test_export_dot_deterministic():
    assert export_dot(Z3_QUIVER) == export_dot(Z3_QUIVER)
    assert export_dot(Z3_QUIVER, collapse_labels=True) == export_dot(
        Z3_QUIVER, collapse_labels=True
    )


def test_quiver_json_round_trip():
    data = quiver_to_json(Z3_QUIVER)
    assert quiver_from_json(data) == Z3_QUIVER


def _reference_components(phi):
    """Brute force: BFS over arrows in both directions, then arrow counts per pair."""
    nv = len(phi)
    neighbours = [set() for _ in range(nv)]
    for v, row in enumerate(phi):
        for w in row:
            neighbours[v].add(w)
            neighbours[w].add(v)
    component_of = [-1] * nv
    members = []
    for start in range(nv):
        if component_of[start] >= 0:
            continue
        component_of[start] = len(members)
        found, queue = [start], deque([start])
        while queue:
            for w in neighbours[queue.popleft()]:
                if component_of[w] < 0:
                    component_of[w] = len(members)
                    found.append(w)
                    queue.append(w)
        members.append(tuple(sorted(found)))
    degrees = []
    for group in members:
        expected = phi[group[0]].count(phi[group[0]][0])
        complete = all(phi[v].count(w) == expected for v in group for w in group)
        degrees.append(expected if complete else None)
    return tuple(component_of), tuple(members), tuple(degrees)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.randoms(),
)
def test_random_functional_quivers_partition(nv, nl, rng):
    phi = [[rng.randrange(nv) for _ in range(nl)] for _ in range(nv)]
    q = quiver_of_dynamical_set([f"v{i}" for i in range(nv)], [str(a) for a in range(nl)], phi)
    report = connected_components(q.phi)
    component_of, members, degrees = _reference_components(phi)
    assert [m.tolist() for m in report.members] == list(map(list, members))
    assert report.component_of.tolist() == list(component_of)
    assert report.rank.tolist() == [members[c].index(v) for v, c in enumerate(component_of)]
    assert report.degrees == degrees


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.randoms())
def test_random_complete_quivers_have_degree(s, d, rng):
    # disjoint complete blocks of s vertices and degree d, vertices shuffled
    blocks = 3
    perm = list(range(blocks * s))
    rng.shuffle(perm)
    phi = [None] * (blocks * s)
    for b in range(blocks):
        for v in range(s):
            row = [perm[b * s + w] for w in range(s) for _ in range(d)]
            rng.shuffle(row)
            phi[perm[b * s + v]] = row
    q = quiver_of_dynamical_set([str(i) for i in range(blocks * s)], [str(a) for a in range(s * d)], phi)
    report = connected_components(q.phi)
    assert report.count == blocks
    assert report.degrees == (d,) * blocks
    assert homogeneous_weight(report) == s * d


def test_component_report_holds_no_per_vertex_objects():
    # cyclic:8 unital: 16,384 vertices in 2,093 components; the report keeps
    # its intp component_of, order and rank arrays, the starts and one
    # degree per component, within five int arrays of length nv
    phi = cached_unital("cyclic:8").dsb.phi
    lab = labels(phi)
    nv = phi.shape[0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = component_report(phi, lab)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert report.count == 2093
    assert retained < 5 * 8 * nv
    for arr in (report.component_of, report.order, report.starts, report.rank):
        assert arr.dtype == np.intp and not arr.flags.writeable
    assert np.array_equal(np.concatenate(report.members), report.order)


def test_component_report_blocks_do_not_change_degrees(monkeypatch):
    # rows in blocks of 5: no vertex count below is a multiple of it
    rng = np.random.default_rng(5)
    phis = [cached_unital(name).phi for name in ("cyclic:4", "cyclic:5")]
    phis += [cached_full("cyclic:4").phi, rng.integers(0, 23, (23, 3))]
    want = [component_report(phi, labels(phi)).degrees for phi in phis]
    assert {None, 1, 2, 4, 5} <= set(chain.from_iterable(want))
    monkeypatch.setattr(quivers, "ROW_BLOCK", 5)
    assert [component_report(phi, labels(phi)).degrees for phi in phis] == want


@pytest.mark.parametrize("kind", ["functional-1", "functional-2", "functional-3", "permutations", "path"])
def test_labels_match_oracles_by_blocks(monkeypatch, kind):
    # 7-row blocks: labels move across block boundaries both ways.  Minima
    # travel backwards along the chains of a functional table and along a
    # path through the vertices in shuffled order, so the gather-free first
    # pass falls short and later passes must pull, push and shortcut.
    rng = np.random.default_rng(23)
    size = 500
    if kind.startswith("functional"):
        phi = rng.integers(0, size, (size, int(kind[-1])))
    elif kind == "permutations":
        phi = np.stack([rng.permutation(size) for _ in range(2)], axis=1)
    else:
        order = rng.permutation(size)
        phi = np.empty((size, 1), dtype=np.intp)
        phi[order, 0] = np.append(order[1:], order[-1])
    phi = phi.astype(np.int32)
    expected = _golden.undirected_minima(phi)
    assert not np.array_equal(np.minimum.reduce([np.arange(size), *phi.T]), expected)
    assert np.array_equal(_golden.whole_table_labels(phi), expected)
    monkeypatch.setattr(quivers, "ROW_BLOCK", 7)
    got = labels(phi)
    assert got.dtype == np.int32 and np.array_equal(got, expected)


def test_labels_hold_no_whole_table_gather():
    # cyclic:8 full: a 65,536 x 8 int32 phi of 2 MB.  The labelling holds its
    # int32 labels and one block's buffers, never an array the size of phi.
    phi = cached_full("cyclic:8").phi
    assert phi.shape == (65536, 8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lab = labels(phi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < phi.nbytes / 2
    assert np.array_equal(lab, _golden.whole_table_labels(phi))


def test_quiver_phi_is_the_read_only_int32_array():
    assert Z3_QUIVER.phi.dtype == np.int32 and Z3_QUIVER.phi.shape == (4, 3)
    assert not Z3_QUIVER.phi.flags.writeable
    assert Z3_QUIVER.vertex_index("s2") == 2
    with pytest.raises(InputError, match="unknown vertex"):
        Z3_QUIVER.vertex_index("s9")


@pytest.mark.parametrize(
    "vertices,phi,message",
    [
        (["v", "v"], [[0], [1]], "duplicate vertex name 'v'"),
        ([], [], "at least one vertex"),
        (["v", "w"], [[0, 1], [1]], "not a rectangular array"),
        (["v"], [[0.0, 0.0]], "must be integers"),
        (["v"], [["0", "0"]], "must be integers"),
        (["v"], [0, 0], "shape"),
        (["v", "w"], [[0, 0]], "shape"),
        (["v"], [[0, 0, 0]], "shape"),
        (["v"], [[-1, 0]], r"phi\[0\]\[0\]"),
        ("vw", [[0, 0], [1, 1]], "list of names"),
    ],
)
def test_validate_phi_rejects(vertices, phi, message):
    with pytest.raises(InputError, match=message):
        quiver_of_dynamical_set(vertices, ["a", "b"], phi)
