"""``parallelise --per-component`` as one whole-family pass.

The reference is the sequential loop the command used to run, kept here:
restrict the bracoid to each component, parallelise it from its smallest
vertex, encode each structure with ``dsb_to_json`` and dump the list.  The
whole-family pass must write the same bytes, raise the same error as the
first failing component of that loop, and write nothing when it fails.
"""
import hashlib
import importlib
import json
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from dynbrace.errors import InputError
from dynbrace.quivers import connected_components
from dynbrace.structures import (
    Report,
    SkewBracoid,
    bracoid_from_json,
    braiding_of_qtsb,
    is_zero_symmetric,
    make_dsb,
    relabel_bracoid,
    restrict_bracoid,
    semiloopoid_of_dsb,
    verify_dsb,
)

from tests._golden import bracoid_to_json, dsb_to_json
from tests.conftest import cached_full, cached_unital
from tests.test_cli import run

# the package re-exports the function under the module's name
par = importlib.import_module("dynbrace.parallelise")

# sha256 prefixes of the --out files the sequential loop wrote for the unital families
PINNED = {
    "cyclic:3": "91d34eb8fa5c880c",
    "cyclic:4": "a489ad5b69404721",
    "cyclic:5": "a6490ef59878e7d1",
    "cyclic:6": "69a29274996775da",
    "klein4": "0b888023c75d2948",
    "sym:3": "c6d7b6c032704b41",
    "dihedral:3": "f59a644fff3d8d50",
}


def reference_components(bracoid) -> str:
    outputs = []
    for members in connected_components(bracoid.phi).members:
        _, dsb = par.parallelise(restrict_bracoid(bracoid, members), 0)
        outputs.append(dsb_to_json(dsb))
    return json.dumps({"components": outputs}, indent=2, sort_keys=True) + "\n"


def reference_error(bracoid):
    try:
        reference_components(bracoid)
    except (InputError, AssertionError) as exc:
        return type(exc), str(exc)
    return None


def per_component(capsys, tmp_path, data, out=True):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(data), encoding="utf-8")
    dst = tmp_path / "out.json"
    argv = ["parallelise", "--input", str(src), "--per-component"]
    code, stdout, stderr = run(capsys, *argv, *(["--out", str(dst)] if out else []))
    return code, stdout, stderr, dst


@pytest.mark.parametrize("name", sorted(PINNED))
def test_per_component_matches_the_component_loop(name, tmp_path, capsys):
    dsb = cached_unital(name).dsb
    code, stdout, stderr, dst = per_component(capsys, tmp_path, dsb_to_json(dsb))
    assert (code, stdout, stderr) == (0, "", "")
    written = dst.read_bytes()
    assert written == reference_components(semiloopoid_of_dsb(dsb)).encode("utf-8")
    assert hashlib.sha256(written).hexdigest()[:16] == PINNED[name]


def test_per_component_stdout_matches_the_component_loop(tmp_path, capsys):
    dsb = cached_unital("klein4").dsb
    code, stdout, _, dst = per_component(capsys, tmp_path, dsb_to_json(dsb), out=False)
    assert code == 0 and not dst.exists()
    assert stdout == reference_components(semiloopoid_of_dsb(dsb))


def test_scrambled_bracoid_matches_the_component_loop(tmp_path, capsys):
    bracoid = semiloopoid_of_dsb(cached_unital("cyclic:6").dsb)
    L, n = bracoid.phi.shape
    rng = np.random.default_rng(6)
    scrambled = relabel_bracoid(bracoid, np.stack([rng.permutation(n) for _ in range(L)]))
    # every vertex now has its own dot and bullet tables
    assert len({scrambled.dot[v].tobytes() for v in range(L)}) > L // 2
    assert len({scrambled.bullet[v].tobytes() for v in range(L)}) > L // 2
    code, _, _, dst = per_component(capsys, tmp_path, bracoid_to_json(scrambled))
    assert code == 0
    assert dst.read_text(encoding="utf-8") == reference_components(scrambled)


def _corrupted(name, key, edit) -> dict:
    """The bracoid file of a unital family with the ``key`` table of the last
    vertex of component 2 edited in place."""
    result = cached_unital(name)
    data = bracoid_to_json(semiloopoid_of_dsb(result.dsb))
    edit(data[key][result.vertex_names[result.components.members[2][-1]]])
    return data


def _swap_rows(table):
    table[1], table[2] = table[2], table[1]


def _conjugate(table):
    """The same group law with labels 1 and 2 exchanged."""
    p = np.array([0, 2, 1, 3])
    table[:] = p[np.array(table)[p][:, p]].tolist()


# exit codes and stderr as the sequential loop printed them
CORRUPTIONS = [
    ("cyclic:4", "dot", 2,
     "error: not a skew bracoid: FAIL per_vertex_groups vertex=s6 labels=(1, 0, 0) "
     "note=vertex operation not associative; FAIL bracoid_compatibility note=skipped: "
     "structure invalid; FAIL action_composition note=skipped: structure invalid; "
     "FAIL action_distributivity note=skipped: structure invalid\n"),
    ("sym:3", "ops", 1, "verification failure: pair subgroupoid is not closed under composition\n"),
]


@pytest.mark.parametrize("name,key,code,stderr", CORRUPTIONS, ids=["cyclic:4-dot", "sym:3-ops"])
def test_corrupted_component_fails_like_the_loop(name, key, code, stderr, tmp_path, capsys):
    data = _corrupted(name, key, _swap_rows)
    assert per_component(capsys, tmp_path, data)[:3] == (code, "", stderr)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("name,vertex", [("cyclic:3", "r3"), ("cyclic:4", "r7"), ("klein4", "r43")])
def test_full_family_names_the_loops_initial_vertex(name, vertex, tmp_path, capsys):
    data = dsb_to_json(cached_full(name).dsb)
    code, stdout, stderr, dst = per_component(capsys, tmp_path, data)
    assert (code, stdout, stderr) == (2, "", f"error: vertex {vertex} is initial; need a groupoid\n")
    assert not dst.exists()


def test_law_agreement_is_checked(monkeypatch):
    # With the bracoid axioms skipped, a vertex whose out-star group is
    # relabelled is still caught by the transported-law check.
    monkeypatch.setattr(par, "verify_bracoid", lambda bracoid: Report(()))
    bracoid = bracoid_from_json(_corrupted("cyclic:4", "dot", _conjugate))
    with pytest.raises(AssertionError) as info:
        par.parallelise(bracoid)
    assert str(info.value) == "transported vertex group laws disagree: vertex=s6 labels=(1,1) lhs=2 rhs=3"
    assert reference_error(bracoid) == (AssertionError, str(info.value))


def test_output_structures_are_verified(monkeypatch):
    # A transport bug that garbles one output vertex must fail the output check.
    def garbling_make_dsb(group, names, phi, ops):
        ops = np.array(ops)
        if "s6" in names:
            row = ops[list(names).index("s6"), 1]
            row[:] = row[::-1].copy()
        return make_dsb(group, names, phi, ops)

    monkeypatch.setattr(par, "make_dsb", garbling_make_dsb)
    bracoid = semiloopoid_of_dsb(cached_unital("cyclic:4").dsb)
    with pytest.raises(AssertionError) as info:
        par.parallelise(bracoid)
    assert str(info.value).startswith("parallelised output is not a zero-symmetric dynamical structure: FAIL")
    assert reference_error(bracoid) == (AssertionError, str(info.value))


def test_checks_run_once_per_family_and_group_law(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("verify_bracoid", "schurian_transversal", "make_group", "verify_dsb"):
        monkeypatch.setattr(par, name, counted(name, getattr(par, name)))
    # the derived action is computed once, on the bracoid: the verifier's
    # action checks and the transport read the same cached table
    action = cached_property(counted("derived_action", SkewBracoid.derived_action.func))
    action.__set_name__(SkewBracoid, "derived_action")
    monkeypatch.setattr(SkewBracoid, "derived_action", action)
    bracoid = semiloopoid_of_dsb(cached_unital("cyclic:6").dsb)
    _, structures = par.parallelise(bracoid)
    laws = {(dsb.group.table.tobytes(), dsb.group.identity) for dsb in structures}
    assert len(structures) == cached_unital("cyclic:6").components.count
    assert 1 < len(laws) < len(structures)
    assert calls == {"verify_bracoid": 1, "derived_action": 1, "schurian_transversal": 1,
                     "make_group": len(laws), "verify_dsb": len(laws)}
    assert braiding_of_qtsb(bracoid).right is bracoid.derived_action
    assert calls["derived_action"] == 1 and not hasattr(par, "braiding_of_qtsb")


def test_one_component_layout_per_call(monkeypatch):
    # schurian_transversal lays the components out once and _parallelise
    # reads the same report, with or without a base
    calls = []

    def counted(phi):
        calls.append(phi)
        return connected_components(phi)

    monkeypatch.setattr(par, "connected_components", counted)
    result = cached_unital("cyclic:4")
    family = semiloopoid_of_dsb(result.dsb)
    _, structures = par.parallelise(family)
    assert len(structures) == result.components.count > 1
    assert len(calls) == 1
    members = next(m for m in result.components.members if len(m) == 4)
    par.parallelise(restrict_bracoid(family, members), 0)
    assert len(calls) == 2


def test_base_labelling_needs_a_base():
    bracoid = semiloopoid_of_dsb(cached_unital("cyclic:3").dsb)
    with pytest.raises(InputError, match="base labelling needs a base"):
        par.parallelise(bracoid, base_labelling=[0, 1, 2])


def _two_label_groupoid(phi, ops):
    names = [chr(ord("a") + v) for v in range(len(phi))]
    table = [[0, 1], [1, 0]]
    return {"vertices": names, "labels": ["0", "1"], "phi": phi,
            "ops": {v: ops.get(v, table) for v in names}, "dot": {v: table for v in names},
            "units": {v: 0 for v in names}}


@pytest.mark.parametrize("data,stderr", [
    # a 3-cycle of arrows with unit loops: connected, but a has no arrow to c
    (_two_label_groupoid([[0, 1], [1, 2], [2, 0]], {}), "error: no arrow from a to c; need a groupoid\n"),
    # the arrow a -> b composes with nothing to give the unit loop of a
    (_two_label_groupoid([[0, 1], [1, 0]], {"a": [[0, 1], [1, 1]]}),
     "error: the arrow from a to b has no inverse\n"),
], ids=["no-arrow", "no-inverse"])
def test_transversal_needs_arrows_and_inverses(data, stderr, tmp_path, capsys):
    assert per_component(capsys, tmp_path, data)[:3] == (2, "", stderr)
    src = tmp_path / "in.json"
    assert run(capsys, "parallelise", "--input", str(src), "--base", "a") == (2, "", stderr)


def test_base_labelling_fixes_the_identity():
    # A base labelling that sends the unit loop to label 2 puts the identity
    # of the resulting group law there, from every base of a scrambled component.
    result = cached_unital("cyclic:4")
    members = next(m for m in result.components.members if len(m) == 4)
    bracoid = restrict_bracoid(semiloopoid_of_dsb(result.dsb), members)
    rng = np.random.default_rng(3)
    scrambled = relabel_bracoid(bracoid, np.stack([rng.permutation(4) for _ in range(4)]))
    for base in range(4):
        unit = int(scrambled.units[base])
        labelling = list(range(4))
        labelling[unit], labelling[2] = 2, unit
        parallel, dsb = par.parallelise(scrambled, base, labelling)
        assert parallel.maps[base].tolist() == labelling
        assert dsb.group.identity == 2
        assert verify_dsb(dsb).passed and is_zero_symmetric(dsb)
