"""The blocked axiom driver of ``structures``.

Every verifier runs its (vertex, a, b, c) axioms over vertex blocks of
``BLOCK_CELLS // n**3`` vertices and stops at the first failing block.  Reports must not depend on
the block size: the same ``verify`` text and ``--json`` bytes come out with
one vertex per block, seven vertices per block and the default budget, for
passing families and for corrupted files whose first failure lies in the
last, partial block.  The heap verifier runs on the same driver, one element
of the heap per vertex, its five-element associativity in blocks of
``BLOCK_CELLS // m**4`` elements.  Right non-degeneracy runs on it too, by
blocks of target vertices sized by their in-arrows, and must agree with the
whole-family sort in ``tests._golden``.  Memory must follow the budget, not
the L·n³ tuples, nor the L·n² composable pairs.
"""
import copy
import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from dynbrace import structures
from dynbrace.cli import main
from dynbrace.enumeration import enumerate_full
from dynbrace.groups import build_group
from dynbrace.parallelise import heap_from_group, make_heap, verify_heap
from dynbrace.quivers import connected_components
from dynbrace.structures import (
    Check,
    QuiverBraiding,
    braiding_of_qtsb,
    make_bracoid,
    restrict_bracoid,
    semiloopoid_of_dsb,
    verify_bracoid,
    verify_braiding,
    verify_dsb,
)

from tests._golden import bracoid_to_json, dsb_to_json, right_nondegenerate
from tests.conftest import cached_full, cached_unital

BLOCK_VERTICES = (1, 7)


def _run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _swap(row, i, j):
    row[i], row[j] = row[j], row[i]


# the files: name -> label count n
LABELS = {
    "klein4": 4, "cyclic4-full": 4, "sym3-part": 6,
    "klein4-swap-late": 4, "klein4-three-late": 4,
    "sym3-dot-late": 6, "sym3-bullet-late": 6, "sym3-unit-late": 6,
}


@pytest.fixture(scope="module")
def documents():
    """name -> (JSON document, index of the first corrupted vertex or None)."""
    klein4 = dsb_to_json(cached_unital("klein4").dsb)          # 216 vertices: blocks of 7 end at 210..215
    cyclic4 = dsb_to_json(cached_full("cyclic:4").dsb)         # 16 vertices, 8 of them initial
    sym3 = cached_unital("sym:3").dsb                          # non-abelian: involutivity fails
    report = connected_components(sym3.phi)
    members = [v for m in report.members[:12] for v in m]      # 61 vertices
    sym3_part = bracoid_to_json(restrict_bracoid(semiloopoid_of_dsb(sym3), members))
    docs = {"klein4": (klein4, None), "cyclic4-full": (cyclic4, None), "sym3-part": (sym3_part, None)}

    names = klein4["vertices"]
    bad = copy.deepcopy(klein4)
    _swap(bad["ops"][names[213]][1], 0, 2)
    docs["klein4-swap-late"] = (bad, 213)
    bad = copy.deepcopy(klein4)
    _swap(bad["ops"][names[215]][2], 1, 3)
    _swap(bad["ops"][names[211]][3], 0, 1)
    bad["ops"][names[214]][1][0] = bad["ops"][names[214]][1][1]
    docs["klein4-three-late"] = (bad, 211)

    names = sym3_part["vertices"]
    last = len(names) - 1
    bad = copy.deepcopy(sym3_part)
    _swap(bad["dot"][names[last]][2], 0, 4)
    docs["sym3-dot-late"] = (bad, last)
    bad = copy.deepcopy(sym3_part)
    _swap(bad["ops"][names[last - 1]][3], 1, 5)
    docs["sym3-bullet-late"] = (bad, last - 1)
    bad = copy.deepcopy(sym3_part)
    bad["units"][names[last]] = (bad["units"][names[last]] + 1) % 6
    docs["sym3-unit-late"] = (bad, last)
    assert set(docs) == set(LABELS)
    return docs


@pytest.fixture(scope="module")
def files(documents, tmp_path_factory):
    root = tmp_path_factory.mktemp("driver")
    paths = {}
    for name, (doc, _) in documents.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    return paths


def _outputs(capsys, argv_base):
    return [_run(capsys, argv_base + extra) for extra in ([], ["--json"])]


@pytest.mark.parametrize("vertices", BLOCK_VERTICES)
@pytest.mark.parametrize("name", sorted(LABELS))
def test_verify_input_is_block_size_independent(capsys, monkeypatch, documents, files, name, vertices):
    argv = ["verify", "--input", str(files[name])]
    reference = _outputs(capsys, argv)
    if documents[name][1] is not None:
        code, _, err = reference[0]
        assert code == 1 and err
    monkeypatch.setattr(structures, "BLOCK_CELLS", vertices * LABELS[name] ** 3)
    assert _outputs(capsys, argv) == reference


@pytest.mark.parametrize("vertices", BLOCK_VERTICES)
@pytest.mark.parametrize("group, n", [("cyclic:4", 4), ("cyclic:6", 6), ("klein4", 4)])
def test_verify_group_full_is_block_size_independent(capsys, monkeypatch, group, n, vertices):
    argv = ["verify", "--group", group, "--full"]
    reference = _outputs(capsys, argv)
    assert reference[0][0] == 0
    monkeypatch.setattr(structures, "BLOCK_CELLS", vertices * n**3)
    assert _outputs(capsys, argv) == reference


def test_late_corruptions_fail_in_the_last_block(capsys, documents, files):
    # with seven-vertex blocks these files fail first in their last, partial
    # block, after the driver has passed every earlier block
    for name, (doc, first_bad) in documents.items():
        if first_bad is None:
            continue
        L = len(doc["vertices"])
        last_block = doc["vertices"][7 * ((L - 1) // 7):]
        assert L % 7 and first_bad >= L - len(last_block), name
        _, _, err = _run(capsys, ["verify", "--input", str(files[name])])
        witnessed = [line.split("vertex=")[1].split()[0] for line in err.splitlines() if "vertex=" in line]
        assert set(witnessed) & set(last_block), (name, err)


def _heaps():
    """The empty heap, group heaps, and the same heaps tampered in one cell of
    the first or the last element."""
    yield "empty", make_heap([], np.zeros((0, 0, 0)))
    for name in ("cyclic:4", "klein4", "sym:3", "dihedral:4"):
        heap = heap_from_group(build_group(name))
        yield name, heap
        m = heap.size
        for cell in ((0, 1, 1), (m - 1, 1, 1), (m - 1, m - 2, 0)):
            table = heap.table.copy()
            table[cell] = (table[cell] + 1) % m
            yield f"{name}{cell}", make_heap(heap.names, table)


def test_verify_heap_is_block_size_independent(monkeypatch):
    reference = {name: verify_heap(heap).lines() for name, heap in _heaps()}
    # the tampered heaps fail with witnesses, both sides included
    assert any(line.startswith("FAIL assoc ") for lines in reference.values() for line in lines)
    monkeypatch.setattr(structures, "BLOCK_CELLS", 1)
    assert {name: verify_heap(heap).lines() for name, heap in _heaps()} == reference


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.passed
    return peak


def test_verifier_memory_follows_the_block_budget(monkeypatch):
    # cyclic:7 full: 279,936 vertices, 96M (vertex, a, b, c) tuples; one int8
    # (L, n, n, n) tensor alone would take 96 MB.  Not cached: it is large.
    dsb = enumerate_full(build_group("cyclic:7")).dsb
    bracoid = semiloopoid_of_dsb(dsb)
    L, n = dsb.phi.shape
    budget = 1 << 16
    monkeypatch.setattr(structures, "BLOCK_CELLS", budget)
    block_bytes = 64 * budget  # a few int32/intp temporaries of one block
    # verify_dsb keeps nothing per vertex beyond a block
    assert _traced_peak(lambda: verify_dsb(dsb)) < block_bytes
    # verify_bracoid also holds the derived action, one int16 (L, n, n)
    # table like each input table, and the per-vertex inverses
    table_bytes = 2 * L * n * n
    assert _traced_peak(lambda: verify_bracoid(bracoid)) < 1.5 * table_bytes + block_bytes
    assert 1.5 * table_bytes + block_bytes < L * n**3 / 2


def test_heap_verifier_memory_follows_the_block_budget(monkeypatch):
    # order 16: the five-element associativity has 16**4 tuples per element,
    # so blocks sized for four axes would hold 16 elements, 2**20 tuples
    heap = heap_from_group(build_group("dihedral:8"))
    budget = 1 << 16
    monkeypatch.setattr(structures, "BLOCK_CELLS", budget)
    assert _traced_peak(lambda: verify_heap(heap)) < 32 * budget


# right non-degeneracy

# the presets of order at most 6 that the suite enumerates
SMALL_GROUPS = ("trivial", "cyclic:2", "cyclic:3", "cyclic:4", "klein4", "prod:cyclic:2,cyclic:2",
                "cyclic:5", "cyclic:6", "sym:3", "dihedral:3")


@lru_cache(maxsize=None)
def _braided(group: str, full: bool):
    bracoid = semiloopoid_of_dsb((cached_full if full else cached_unital)(group).dsb)
    return bracoid, braiding_of_qtsb(bracoid)


def _colliding(bracoid, braiding, vertices):
    """``braiding`` with one cell of ``left`` changed, so that two pairs (x, y)
    with y = [mu|0], mu the first of ``vertices`` that allows it, share x <- y."""
    phi, SR, left = bracoid.phi, braiding.right, braiding.left.copy()
    for mu in vertices:
        seen = {}
        for lam, a in np.argwhere(phi == mu):
            w = int(phi[lam, SR[lam, a, 0]])
            if w in seen:
                left[lam, a, 0] = left[seen[w] + (0,)]
                return QuiverBraiding(SR, left)
            seen[w] = (lam, a)
    raise AssertionError("no two in-arrows share x <- y's source")


def _initial_chain():
    """Initial vertices r and t and a unital vertex s on two labels, with the
    arrows r -> t, r -> s, t -> s twice, s -> s and s -> t: (y, x) ->
    (y, x <- y) is injective, but t has in-degree 2 where s has 4."""
    table = [[0, 1], [1, 0]]
    phi = [[1, 2], [2, 2], [2, 1]]
    bracoid = make_bracoid(["r", "t", "s"], ["0", "1"], phi, [table] * 3, [table] * 3, [-1, -1, 0])
    right = np.array([[0, 0], [0, 0], [1, 0]], dtype=np.int16)[:, :, None].repeat(2, axis=2)
    left = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int16)[:, :, None].repeat(2, axis=2)
    return bracoid, QuiverBraiding(right, left)


def _cases():
    """name -> (bracoid, braiding, the oracle's expected two halves).

    On the families, in-degrees agree, and injectivity holds exactly when
    there is no initial vertex."""
    families = [(g, full) for g in SMALL_GROUPS for full in (False, True)] + [("cyclic:8", True)]
    cases = {}
    for g, full in families:
        bracoid, braiding = _braided(g, full)
        cases[f"{g}-{'full' if full else 'unital'}"] = (bracoid, braiding, (bool(bracoid.unital.all()), True))
    for g in ("klein4", "sym:3"):
        bracoid, braiding = _braided(g, False)
        L = bracoid.vertex_count
        cases[f"{g}-collide-first"] = (bracoid, _colliding(bracoid, braiding, range(L)), (False, True))
        cases[f"{g}-collide-last"] = (bracoid, _colliding(bracoid, braiding, range(L - 1, -1, -1)), (False, True))
    cases["initial-chain"] = _initial_chain() + ((True, False),)
    return cases


@pytest.mark.parametrize("budget", [None, 1])
def test_right_nondegeneracy_agrees_with_the_whole_family_sort(monkeypatch, budget):
    if budget is not None:  # one target vertex with in-arrows per block
        monkeypatch.setattr(structures, "BLOCK_CELLS", budget)
    for name, (bracoid, braiding, halves) in _cases().items():
        assert right_nondegenerate(bracoid, braiding) == halves, name
        check = structures._right_nondegenerate(bracoid, braiding)
        assert check == Check("right_nondegenerate", all(halves), bool(bracoid.unital.all())), name


def test_verify_braiding_holds_no_table_per_composable_pair():
    # cyclic:8 full: 65,536 vertices and 4,194,304 composable pairs, whose
    # int64 keys alone would take 33.5 MB; half of one int64 (L, n, n) table
    # is the bound, the braiding's other checks staying within their blocks
    bracoid, braiding = _braided("cyclic:8", True)
    L, n = bracoid.phi.shape
    assert _traced_peak(lambda: verify_braiding(bracoid, braiding)) < L * n * n * 4
