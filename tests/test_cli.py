import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dynbrace.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_cyclic4(capsys):
    code, out, err = run(capsys, "invariants", "--group", "cyclic:4")
    assert code == 0
    assert "1    2" in out and "2    1" in out and "4    1" in out
    assert "sum s*N_s = 8" in out


def test_invariants_klein4_json(capsys):
    code, out, err = run(capsys, "invariants", "--group", "prod:cyclic:2,cyclic:2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["N"] == {"1": 4, "2": 6, "4": 50}
    assert data["in"] == {"1": 5, "2": 10, "4": 20}


def test_invariants_relation_failure_is_verification_failure(capsys, monkeypatch):
    from dynbrace.enumeration import InvariantTable

    monkeypatch.setattr(InvariantTable, "check_relations", lambda self: ["sum s*N_s = 0, expected 4"])
    code, out, err = run(capsys, "invariants", "--group", "cyclic:3")
    assert code == 1 and out == ""
    assert "verification failure" in err and "sum s*N_s = 0" in err


def test_unknown_group_is_input_error(capsys):
    code, _, err = run(capsys, "invariants", "--group", "nope:3")
    assert code == 2
    assert "error" in err


def test_cap_exceeded_is_resource_error(capsys):
    code, _, err = run(capsys, "invariants", "--group", "quaternion8", "--cap", "1000000")
    assert code == 3
    assert "cap" in err


ORDER_16 = [
    "cyclic:16", "dihedral:8", "prod:cyclic:2,cyclic:8", "prod:cyclic:4,cyclic:4",
    "prod:cyclic:2,cyclic:2,cyclic:4", "prod:cyclic:2,cyclic:2,cyclic:2,cyclic:2",
    "prod:cyclic:2,dihedral:4", "prod:cyclic:2,quaternion8",
]


def test_order_16_presets_exit_at_the_cap(capsys):
    # the cap is checked before the holomorph is built: C2^4 has 20,160
    # automorphisms, so its composition table alone would have 406M entries
    start = time.perf_counter()
    argvs = [("invariants", "--group", name) for name in ORDER_16]
    c2_4 = ORDER_16[5]
    argvs += [("enumerate", "--group", c2_4), ("verify", "--group", c2_4), ("export-dot", "--group", c2_4)]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("resource cap exceeded:"), argv
    assert time.perf_counter() - start < 30


def test_memory_error_is_resource_error(tmp_path, capsys, monkeypatch):
    import dynbrace.cli

    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(dynbrace.cli, "enumerate_unital", fail)
    code, out, err = run(capsys, "enumerate", "--group", "cyclic:3", "--json")
    assert (code, out, err) == (3, "", "resource cap exceeded: out of memory\n")

    # a streamed --out file that fails part way is removed, not left truncated
    def fail_after_the_first_key(fh, obj, newline="\n"):
        fh.write("{")
        raise MemoryError

    monkeypatch.undo()
    monkeypatch.setattr(dynbrace.cli, "_write_json", fail_after_the_first_key)
    path = tmp_path / "z3.json"
    code, out, err = run(capsys, "enumerate", "--group", "cyclic:3", "--json", "--out", str(path))
    assert (code, out, err) == (3, "", "resource cap exceeded: out of memory\n")
    assert not path.exists()


def test_out_of_memory_child_exits_3_without_a_traceback(tmp_path):
    # Only the child runs under a 400 MB address-space limit (about 105 MB is
    # the interpreter with numpy): the (2^21, 8, 8) int16 ops table of the
    # prod:cyclic:2,cyclic:4 family (256 MiB) cannot be allocated next to the
    # enumeration's other arrays.
    import resource

    limit = 400 * 1024 * 1024
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    path = tmp_path / "c2c4.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dynbrace.cli", "enumerate", "--group", "prod:cyclic:2,cyclic:4",
         "--json", "--out", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "resource cap exceeded: out of memory\n")
    assert not path.exists()


def _child(*argv, **kwargs):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "dynbrace.cli", *argv], env=env, stderr=subprocess.PIPE,
                            text=True, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_full_stdout_is_an_input_error():
    with open("/dev/full", "w") as full:
        proc = _child("invariants", "--group", "cyclic:3", stdout=full)
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (2, "error: cannot write <stdout>: No space left on device\n")


def test_a_closed_stdout_pipe_is_an_input_error():
    # the document is megabytes long, so the writer meets the closed pipe
    proc = _child("enumerate", "--group", "dihedral:3", "--json", stdout=subprocess.PIPE)
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (2, "error: cannot write <stdout>: Broken pipe\n")


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "cyclic:3")
    assert code == 0
    assert "4 vertices" in out and "homogeneous of weight 3" in out


def test_enumerate_full_seeded(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "cyclic:3", "--full", "--seed-examples")
    assert code == 0
    assert "r0" in out and "not homogeneous" in out
    assert "initial vertices into component of size 1: 1" in out
    assert "initial vertices into component of size 3: 3" in out


def test_enumerate_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "z4.json"
    code, _, _ = run(capsys, "enumerate", "--group", "cyclic:4", "--json", "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 0
    assert "FAIL" not in out


def test_enumerate_full_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "z3full.json"
    code, _, _ = run(capsys, "enumerate", "--group", "cyclic:3", "--full", "--json", "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 0


def test_verify_group_directly(capsys):
    code, out, _ = run(capsys, "verify", "--group", "cyclic:3", "--full")
    assert code == 0
    assert "ok ybe" in out


def test_verify_does_not_import_numpy_ma(tmp_path, capsys):
    # numpy.ma takes about 13 ms to import; a plain np.unique loads it, the
    # sort-based injectivity test of right non-degeneracy does not
    path = tmp_path / "cyclic4.json"
    run(capsys, "enumerate", "--group", "cyclic:4", "--json", "--out", str(path))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from dynbrace.cli import main\n"
        f"code = main(['verify', '--input', {str(path)!r}])\n"
        "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "ok right_nondegenerate" in proc.stdout
    assert proc.stderr == "0 False\n"


def test_census_memory_stays_near_one_label_array():
    # dihedral:4 has 8^7 unital keys: the label array is 8 MB.  The streamed
    # census adds about 10 MB to a bare import; whole-space tables (64 MB),
    # a bincount over the labels or whole-array run starts and change masks
    # (about 17 MB in all) would break the bound.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    wrapper = (
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )

    def child_maxrss_kb(*argv):
        proc = subprocess.run([sys.executable, "-c", wrapper, sys.executable, *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    bare = child_maxrss_kb("-c", "import dynbrace.cli")
    census = child_maxrss_kb("-m", "dynbrace.cli", "invariants", "--group", "dihedral:4")
    assert census - bare < 14 * 1024


def test_verify_tampered_structure(tmp_path, capsys):
    path = tmp_path / "z3.json"
    run(capsys, "enumerate", "--group", "cyclic:3", "--seed-examples", "--json", "--out", str(path))
    data = json.loads(path.read_text())
    # swap one row of one vertex table: keeps rows bijective, breaks the axioms
    table = data["ops"]["s1"]
    table[1], table[2] = table[2], table[1]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "FAIL" in err
    assert "dynamical_associativity" in err or "brace_compatibility" in err


def test_verify_latin_violation_witness(tmp_path, capsys):
    path = tmp_path / "z3.json"
    run(capsys, "enumerate", "--group", "cyclic:3", "--seed-examples", "--json", "--out", str(path))
    data = json.loads(path.read_text())
    data["ops"]["s1"][1][2] = data["ops"]["s1"][1][1]
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "left_quasigroup" in err and "vertex=s1" in err


def test_json_outputs_byte_identical(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    run(capsys, "enumerate", "--group", "cyclic:4", "--json", "--out", str(p1))
    run(capsys, "enumerate", "--group", "cyclic:4", "--json", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_json_round_trip_reemission(tmp_path, capsys):
    # parsing an emitted file and re-emitting is byte-identical
    from dynbrace.structures import dsb_from_json
    from tests._golden import dsb_to_json

    path = tmp_path / "z4.json"
    run(capsys, "enumerate", "--group", "cyclic:4", "--json", "--out", str(path))
    data = json.loads(path.read_text())
    core = {k: data[k] for k in ("group", "vertices", "phi", "ops")}
    text1 = json.dumps(core, indent=2, sort_keys=True)
    text2 = json.dumps(dsb_to_json(dsb_from_json(json.loads(text1))), indent=2, sort_keys=True)
    assert text1 == text2


def test_verify_json_emits_braiding_quadruples(tmp_path, capsys):
    path = tmp_path / "z3.json"
    run(capsys, "enumerate", "--group", "cyclic:3", "--seed-examples", "--json", "--out", str(path))
    code, out, _ = run(capsys, "verify", "--input", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["checks"]["braiding"]["ybe"]["passed"] is True
    quads = {tuple(map(tuple, q[:2])): tuple(map(tuple, q[2:])) for q in data["braiding"]}
    assert len(quads) == 4 * 9
    # the all-identity vertex braids by the flip
    assert quads[(("s0", 1), ("s0", 2))] == (("s0", 2), ("s0", 1))


def test_export_dot_deterministic(tmp_path, capsys):
    code, out1, _ = run(capsys, "export-dot", "--group", "cyclic:3")
    code2, out2, _ = run(capsys, "export-dot", "--group", "cyclic:3")
    assert code == code2 == 0
    assert out1 == out2
    assert out1.count("->") == 12


def test_export_dot_collapse(capsys):
    code, out, _ = run(capsys, "export-dot", "--group", "trivial", "--collapse-labels")
    assert code == 0
    assert "×1" in out


def test_parallelise_cli(tmp_path, capsys):
    src = tmp_path / "z4.json"
    dst = tmp_path / "par.json"
    run(capsys, "enumerate", "--group", "cyclic:4", "--json", "--out", str(src))
    code, _, _ = run(capsys, "parallelise", "--input", str(src), "--per-component", "--out", str(dst))
    assert code == 0
    data = json.loads(dst.read_text())
    assert len(data["components"]) == 4
    for sub in data["components"]:
        code, out, err = _verify_json(tmp_path, capsys, sub)
        assert code == 0


def _verify_json(tmp_path, capsys, data):
    path = tmp_path / "check.json"
    path.write_text(json.dumps(data))
    return run(capsys, "verify", "--input", str(path))


def test_parallelise_disconnected_needs_flag(tmp_path, capsys):
    src = tmp_path / "z4.json"
    run(capsys, "enumerate", "--group", "cyclic:4", "--json", "--out", str(src))
    code, _, err = run(capsys, "parallelise", "--input", str(src), "--base", "s0")
    assert code == 2
    assert "disconnected" in err


def test_heap_cli(tmp_path, capsys):
    src = tmp_path / "z4.json"
    run(capsys, "enumerate", "--group", "cyclic:4", "--seed-examples", "--json", "--out", str(src))
    code, out, _ = run(capsys, "heap", "--input", str(src), "--point", "s4")
    assert code == 0
    assert "isomorphic to cyclic:4" in out
    code, out, _ = run(capsys, "heap", "--input", str(src), "--point", "s4", "--json")
    data = json.loads(out)
    assert sorted(data["elements"]) == ["s4", "s5", "s6", "s7"]
    assert data["pointed"]["isomorphic_to"] == "cyclic:4"


@pytest.fixture(scope="module")
def seed_cyclic4():
    """The cyclic:4 ``--seed-examples`` structure document and its bracoid document."""
    from dynbrace.enumeration import enumerate_unital
    from dynbrace.families import seeded_names
    from dynbrace.groups import build_group
    from dynbrace.structures import semiloopoid_of_dsb
    from tests._golden import bracoid_to_json, dsb_to_json

    dsb = enumerate_unital(build_group("cyclic:4"), seeded_names("cyclic:4", False)).dsb
    return dsb_to_json(dsb), bracoid_to_json(semiloopoid_of_dsb(dsb), dsb.group)


NOT_A_DSB = (
    "error: not a dynamical skew brace: "
    "FAIL dynamical_associativity vertex=s1 labels=(1, 2, 1) lhs=2 rhs=1; "
    "FAIL brace_compatibility vertex=s1 labels=(1, 1, 1) lhs=0 rhs=1\n"
)
NOT_A_BRACOID = (
    "error: not a skew bracoid: "
    "FAIL per_vertex_groups vertex=s4 labels=(1, 0, 0) note=vertex operation not associative; "
    "FAIL bracoid_compatibility note=skipped: structure invalid; "
    "FAIL action_composition note=skipped: structure invalid; "
    "FAIL action_distributivity note=skipped: structure invalid\n"
)


@pytest.mark.parametrize("kind,stderr", [("dsb", NOT_A_DSB), ("bracoid", NOT_A_BRACOID)],
                         ids=["dsb", "bracoid"])
@pytest.mark.parametrize("command", [("parallelise", "--per-component"), ("heap", "--point", "s4")],
                         ids=["parallelise", "heap"])
def test_corrupted_seed_file_names_every_failure(tmp_path, capsys, seed_cyclic4, kind, stderr, command):
    # a structure file is checked when it is read; a bracoid file by the
    # transport, or by ``heap`` on the chosen component
    dsb, bracoid = copy.deepcopy(seed_cyclic4)
    if kind == "dsb":
        row = dsb["ops"]["s1"][1]
        row[1], row[2] = row[2], row[1]
        data = dsb
    else:
        table = bracoid["dot"]["s4"]
        table[1], table[2] = table[2], table[1]
        data = bracoid
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(data))
    assert run(capsys, command[0], "--input", str(src), *command[1:]) == (2, "", stderr)


def test_heap_rejects_wrong_degree(tmp_path, capsys):
    src = tmp_path / "z4.json"
    run(capsys, "enumerate", "--group", "cyclic:4", "--seed-examples", "--json", "--out", str(src))
    code, _, err = run(capsys, "heap", "--input", str(src), "--point", "s2")
    assert code == 2
    assert "degree" in err


def test_export_dot_from_quiver_json(tmp_path, capsys):
    quiver = {
        "vertices": ["v"],
        "labels": ["0", "1", "2"],
        "phi": [[0, 0, 0]],
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(quiver))
    code, out, _ = run(capsys, "export-dot", "--input", str(path), "--collapse-labels")
    assert code == 0
    assert '"v" -> "v" [label="×3"];' in out


def test_export_dot_seeded_names(capsys):
    code, out, _ = run(capsys, "export-dot", "--group", "cyclic:3", "--seed-examples")
    assert code == 0
    assert '"s1" -> "s3" [label="1"];' in out


def _export_dot_pair(tmp_path, capsys, document, labels, *flags):
    """DOT of a structure or bracoid file, and of the quiver file holding its
    vertices, ``phi`` and ``labels``."""
    structure, quiver = tmp_path / "structure.json", tmp_path / "quiver.json"
    structure.write_text(json.dumps(document))
    quiver.write_text(json.dumps({"vertices": document["vertices"], "labels": labels, "phi": document["phi"]}))
    results = [run(capsys, "export-dot", "--input", str(path), *flags) for path in (structure, quiver)]
    assert results[0][0] == results[1][0] == 0
    return results[0][1], results[1][1]


def test_export_dot_of_structure_file_is_labelled_by_group_names(tmp_path, capsys):
    from dynbrace.groups import build_group

    src = tmp_path / "k4.json"
    run(capsys, "enumerate", "--group", "klein4", "--json", "--out", str(src))
    document = json.loads(src.read_text())
    names = list(build_group("klein4").names)
    document["group"]["names"] = names
    structure_dot, quiver_dot = _export_dot_pair(tmp_path, capsys, document, names)
    assert structure_dot == quiver_dot
    assert '[label="(0,1)"];' in structure_dot


@pytest.mark.parametrize("flags", [(), ("--collapse-labels",)])
def test_export_dot_of_bracoid_file_keeps_its_labels(tmp_path, capsys, flags):
    from dynbrace.enumeration import enumerate_unital
    from dynbrace.groups import build_group
    from dynbrace.structures import semiloopoid_of_dsb
    from tests._golden import bracoid_to_json

    document = bracoid_to_json(semiloopoid_of_dsb(enumerate_unital(build_group("cyclic:4")).dsb))
    document["labels"] = labels = ["e", "x", "x2", "x3"]
    bracoid_dot, quiver_dot = _export_dot_pair(tmp_path, capsys, document, labels, *flags)
    assert bracoid_dot == quiver_dot
    assert ('[label="x2"];' in bracoid_dot) == (not flags)


def test_parallelise_single_component_with_base(tmp_path, capsys):
    from dynbrace.structures import semiloopoid_of_dsb
    from tests._golden import bracoid_to_json
    from dynbrace.enumeration import component_dsb, enumerate_unital
    from dynbrace.families import seeded_names
    from dynbrace.groups import build_group

    group = build_group("cyclic:4")
    result = enumerate_unital(group, seeded_names("cyclic:4", False))
    cid = next(
        i for i, m in enumerate(result.components.members)
        if {result.vertex_names[v] for v in m} == {"s4", "s5", "s6", "s7"}
    )
    bracoid = semiloopoid_of_dsb(component_dsb(result, cid))
    src = tmp_path / "k.json"
    src.write_text(json.dumps(bracoid_to_json(bracoid), indent=2, sort_keys=True))
    dst = tmp_path / "out.json"
    code, _, _ = run(capsys, "parallelise", "--input", str(src), "--base", "s5", "--out", str(dst))
    assert code == 0
    data = json.loads(dst.read_text())
    assert sorted(data["vertices"]) == ["s4", "s5", "s6", "s7"]
    code, _, _ = _verify_json(tmp_path, capsys, data)
    assert code == 0


def test_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--input", "/nonexistent/x.json")
    assert code == 2


def test_seed_examples_unknown_group(capsys):
    code, _, err = run(capsys, "enumerate", "--group", "cyclic:5", "--seed-examples")
    assert code == 2


def test_seed_examples_help_names_the_bundled_groups():
    # every other group exits 2, so each help lists the groups that have names
    from dynbrace.cli import build_parser
    from dynbrace.families import _SEEDED

    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    helps = {name: a.help for name, sub in commands.items()
             for a in sub._actions if "--seed-examples" in a.option_strings}
    assert set(helps) == {"enumerate", "export-dot"}
    for name, text in helps.items():
        assert all(group in text for group in _SEEDED), (name, text)


@pytest.mark.parametrize("argv,message", [
    pytest.param(("invariants", "--group", "cyclic:3", "--cap", "-1"), "positive integer", id="--cap--1"),
    pytest.param(("invariants", "--group", "cyclic:3", "--cap", "0"), "positive integer", id="--cap-0"),
    pytest.param(("invariants", "--group", "cyclic:3", "--cap", "x"), "positive integer", id="--cap-x"),
    # parallelise and heap read a file and enumerate nothing, so they take no cap
    pytest.param(("parallelise", "--input", "f.json", "--per-component", "--cap", "5"),
                 "unrecognized arguments: --cap 5", id="parallelise"),
    pytest.param(("heap", "--input", "f.json", "--cap", "5"), "unrecognized arguments: --cap 5", id="heap"),
    # flags that would otherwise be dropped without a word
    pytest.param(("parallelise", "--input", "f.json", "--base", "s4", "--per-component"),
                 "argument --per-component: not allowed with argument --base", id="base-and-per-component"),
    pytest.param(("verify", "--input", "f.json", "--group", "sym:3"),
                 "argument --group: not allowed with argument --input", id="verify-input-and-group"),
    pytest.param(("export-dot", "--group", "sym:3", "--input", "f.json"),
                 "argument --input: not allowed with argument --group", id="export-dot-input-and-group"),
    # the enumeration flags of --group, which a run from --input would ignore
    pytest.param(("verify", "--input", "f.json", "--full"),
                 "argument --full: not allowed with argument --input", id="verify-input-and-full"),
    pytest.param(("verify", "--input", "f.json", "--cap", "1"),
                 "argument --cap: not allowed with argument --input", id="verify-input-and-cap"),
    pytest.param(("export-dot", "--input", "f.json", "--full"),
                 "argument --full: not allowed with argument --input", id="export-dot-input-and-full"),
    pytest.param(("export-dot", "--input", "f.json", "--seed-examples"),
                 "argument --seed-examples: not allowed with argument --input",
                 id="export-dot-input-and-seed-examples"),
    pytest.param(("export-dot", "--input", "f.json", "--cap", "1"),
                 "argument --cap: not allowed with argument --input", id="export-dot-input-and-cap"),
])
def test_parser_refuses_bad_flags(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    pytest.param(("enumerate",), "the following arguments are required: --group", id="enumerate"),
    pytest.param(("invariants", "--json"), "the following arguments are required: --group", id="invariants"),
    pytest.param(("parallelise", "--per-component"), "the following arguments are required: --input",
                 id="parallelise-no-input"),
    pytest.param(("heap", "--point", "s0"), "the following arguments are required: --input", id="heap"),
    pytest.param(("verify", "--full"), "one of the arguments --group --input is required", id="verify"),
    pytest.param(("export-dot",), "one of the arguments --group --input is required", id="export-dot"),
    pytest.param(("parallelise", "--input", "f.json"),
                 "one of the arguments --base --per-component is required", id="parallelise-no-base"),
])
def test_parser_requires_a_source(capsys, argv, message):
    # a missing --group or --input used to reach Path(None) or build_group(None)
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["directory", "not-utf8"])
def test_unreadable_input_is_input_error(tmp_path, capsys, content):
    src = tmp_path / "in.json"
    if content is None:
        src.mkdir()
    else:
        src.write_bytes(content)
    code, out, err = run(capsys, "verify", "--input", str(src))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "export-dot"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command):
    # json.loads recurses once per level, far past the interpreter's limit here
    src = tmp_path / "deep.json"
    src.write_text("[" * 200_000 + "]" * 200_000)
    assert run(capsys, command, "--input", str(src)) == (
        2, "", f"error: invalid JSON in {src}: nested too deeply\n")


@pytest.mark.parametrize("spec,order", [
    ("cyclic:100000000", 100_000_000),
    ("dihedral:100000000", 200_000_000),
    ("prod:cyclic:16,cyclic:16,cyclic:16,cyclic:16", 256),
])
def test_oversized_preset_is_rejected_before_its_table(capsys, spec, order):
    # a table of 10^16 cells or more cannot be allocated, so the order is checked first;
    # a product names the first partial product past the cap
    assert run(capsys, "invariants", "--group", spec) == (
        2, "", f"error: group order {order} exceeds supported maximum 16\n")


@pytest.mark.parametrize("argv", [
    pytest.param(("verify", "--input", ""), id="verify"),
    pytest.param(("heap", "--input", ""), id="heap"),
    pytest.param(("parallelise", "--input", "", "--per-component"), id="parallelise"),
    pytest.param(("export-dot", "--input", ""), id="export-dot"),
    pytest.param(("enumerate", "--group", "cyclic:3", "--out", ""), id="enumerate-out"),
    pytest.param(("invariants", "--group", "cyclic:3", "--out", ""), id="invariants-out"),
    pytest.param(("verify", "--group", "cyclic:3", "--out", ""), id="verify-out"),
    pytest.param(("export-dot", "--group", "cyclic:3", "--out", ""), id="export-dot-out"),
])
def test_empty_path_is_usage_error(capsys, argv):
    # "" used to read the working directory, or, for --out, write to stdout
    option = argv[argv.index("") - 1]
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert f"argument {option}: expected a path, got an empty string" in captured.err
    assert "Traceback" not in captured.err


def test_unwritable_out_is_input_error(capsys):
    code, out, err = run(capsys, "invariants", "--group", "cyclic:3", "--out", "/nonexistent/x.json")
    assert code == 2
    assert out == ""
    assert "cannot write /nonexistent/x.json" in err and "Traceback" not in err


DELETE = object()

# (file kind, path into the JSON document, new value or DELETE); () is the whole document
MALFORMED = {
    "dsb-missing-ops-vertex": ("dsb", ("ops", "s1"), DELETE),
    "bracoid-missing-ops-vertex": ("bracoid", ("ops", "s1"), DELETE),
    "bracoid-missing-dot-vertex": ("bracoid", ("dot", "s2"), DELETE),
    "ragged-phi": ("dsb", ("phi", 1), [1, 3]),
    "scalar-phi-row": ("dsb", ("phi", 1), 1),
    "string-phi-cell": ("dsb", ("phi", 1, 0), "1"),
    "float-phi-cell": ("dsb", ("phi", 1, 0), 1.5),
    "bracoid-float-phi-cell": ("bracoid", ("phi", 1, 0), 1.5),
    "ragged-ops-table": ("dsb", ("ops", "s1", 1), [0, 1]),
    "scalar-ops-row": ("bracoid", ("ops", "s1", 1), 0),
    "string-dot-cell": ("bracoid", ("dot", "s1", 1, 0), "x"),
    "float-ops-cell": ("dsb", ("ops", "s1", 1, 0), 1.5),
    "float-unit": ("bracoid", ("units", "s0"), 1.5),
    # numpy would fold JSON true/false into an int table
    "bool-phi-cell": ("dsb", ("phi", 1, 0), True),
    "bracoid-bool-phi-cell": ("bracoid", ("phi", 2, 1), False),
    "bool-ops-cell": ("dsb", ("ops", "s1", 1, 0), True),
    "bracoid-bool-ops-cell": ("bracoid", ("ops", "s2", 0, 0), False),
    "bool-dot-cell": ("bracoid", ("dot", "s1", 0, 1), True),
    "bool-unit": ("bracoid", ("units", "s0"), False),
    "bool-group-cell": ("dsb", ("group", "table", 0, 1), True),
    "dsb-out-of-range-phi": ("dsb", ("phi", 0, 0), 99),
    "bracoid-out-of-range-phi": ("bracoid", ("phi", 0, 0), 99),
    "bracoid-out-of-range-dot": ("bracoid", ("dot", "s1", 0, 0), 99),
    "dsb-duplicate-vertex": ("dsb", ("vertices", 1), "s0"),
    "bracoid-duplicate-vertex": ("bracoid", ("vertices", 1), "s0"),
    "vertices-not-a-list": ("dsb", ("vertices",), 4),
    "top-level-number": ("dsb", (), 5),
    "top-level-null": ("bracoid", (), None),
    "null-vertex-name": ("dsb", ("vertices", 1), None),
    "bool-vertex-name": ("bracoid", ("vertices", 0), True),
    "float-label-name": ("bracoid", ("labels", 1), 1.5),
    "list-label-name": ("bracoid", ("labels", 0), ["0"]),
    "null-label-name": ("bracoid", ("labels", 2), None),
    "bool-label-name": ("bracoid", ("labels", 2), False),
    "group-not-an-object": ("dsb", ("group",), 5),
    "group-table-not-a-list": ("dsb", ("group", "table"), 5),
    "group-row-not-a-list": ("dsb", ("group", "table", 0), 5),
    "group-names-not-a-list": ("dsb", ("group", "names"), 5),
    "group-names-a-string": ("dsb", ("group", "names"), "xyz"),
    "group-name-not-a-string": ("dsb", ("group", "name"), [1]),
    # a valid cyclic:3 table whose identity is element 1
    "group-identity-not-first": ("dsb", ("group", "table"), [[2, 0, 1], [0, 1, 2], [1, 2, 0]]),
    "group-identity-not-first-unstated": ("dsb", ("group",), {"table": [[2, 0, 1], [0, 1, 2], [1, 2, 0]]}),
    # a stated order or identity must be the table's, and element names distinct
    "group-order-mismatch": ("dsb", ("group", "order"), 5),
    "group-identity-mismatch": ("dsb", ("group", "identity"), 1),
    "bool-group-order": ("dsb", ("group", "order"), True),
    "group-duplicate-names": ("dsb", ("group", "names"), ["0", "1", "0"]),
    "bracoid-initial-unit": ("bracoid", ("units", "s1"), -1),
    "bracoid-duplicate-label": ("bracoid", ("labels", 1), "0"),
}

MALFORMED_COMMANDS = {
    "verify": ("verify", "--input", "{src}"),
    "export-dot": ("export-dot", "--input", "{src}"),
    "parallelise": ("parallelise", "--input", "{src}", "--per-component", "--out", "{dst}"),
}


@pytest.fixture(scope="module")
def cyclic3_documents():
    from dynbrace.enumeration import enumerate_unital
    from dynbrace.groups import build_group
    from dynbrace.structures import semiloopoid_of_dsb
    from tests._golden import bracoid_to_json, dsb_to_json

    dsb = enumerate_unital(build_group("cyclic:3")).dsb
    return {"dsb": dsb_to_json(dsb), "bracoid": bracoid_to_json(semiloopoid_of_dsb(dsb))}


@pytest.mark.parametrize("command", sorted(MALFORMED_COMMANDS))
@pytest.mark.parametrize("mutation", sorted(MALFORMED))
def test_malformed_input_is_input_error(tmp_path, capsys, cyclic3_documents, mutation, command):
    kind, path, value = MALFORMED[mutation]
    data = copy.deepcopy(cyclic3_documents[kind])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if not path:
        data = value
    elif value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(data))
    argv = [a.format(src=src, dst=tmp_path / "out.json") for a in MALFORMED_COMMANDS[command]]
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    assert err.startswith("error:") and "Traceback" not in err
    assert out == "" and not (tmp_path / "out.json").exists()


def test_duplicate_label_names_are_input_errors(tmp_path, capsys, cyclic3_documents):
    bracoid = copy.deepcopy(cyclic3_documents["bracoid"])
    bracoid["labels"] = ["0", "0", "2"]
    quiver = {"vertices": bracoid["vertices"], "labels": ["x", "x", "z"], "phi": bracoid["phi"]}
    for data, argv, name in ((bracoid, ("verify",), "0"), (quiver, ("export-dot",), "x")):
        src = tmp_path / "dup.json"
        src.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv, "--input", str(src))
        assert (code, out, err) == (2, "", f"error: duplicate label name {name!r}\n")


def test_a_flat_phi_names_its_free_length(tmp_path, capsys, cyclic3_documents):
    data = copy.deepcopy(cyclic3_documents["bracoid"])
    data["phi"] = [v for row in data["phi"] for v in row]
    src = tmp_path / "flat.json"
    src.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--input", str(src))
    assert (code, out, err) == (2, "", "error: phi has shape (12,), expected (4, *)\n")


def test_readme_synopsis_lists_every_option():
    # every long option of every command is on that command's synopsis line
    # or in the README's "Common flags" sentence
    import re

    from dynbrace.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    synopsis = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
                for line in block.splitlines() if line.startswith("dynbrace ")}
    common = set(re.findall(r"--[a-z-]+", re.search(r"Common flags:(.*?)\.\s", readme, re.S).group(1)))
    assert {"--out", "--cap"} <= common
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert set(synopsis) == set(commands)
    for name, sub in commands.items():
        options = {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        assert options - synopsis[name] - common == set(), name
        assert synopsis[name] <= options, name


@pytest.mark.parametrize("path,value,stderr", [
    (("vertices", 0), "x" * 10**6, "error: 'ops' has no entry for vertex '" + "x" * 79 + "...\n"),
    (("group", "order"), "x" * 10**6, "error: group order is '" + "x" * 79 + "..., but its table has order 3\n"),
], ids=["long-vertex-name", "long-group-order"])
def test_error_messages_cut_long_values(tmp_path, capsys, cyclic3_documents, path, value, stderr):
    # a message quotes at most QUOTE_LIMIT characters of a value read from a file
    data = copy.deepcopy(cyclic3_documents["dsb"])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    src = tmp_path / "long.json"
    src.write_text(json.dumps(data))
    assert run(capsys, "verify", "--input", str(src)) == (2, "", stderr)


def test_readme_examples_print_what_they_show(capsys):
    # every `$ dynbrace ...` example of the README that shows output prints exactly that
    import shlex

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = 0
    for block in readme.split("```")[1::2]:
        for example in block.split("\n$ ")[1:]:
            command, *shown = example.split("\n")
            output = [line for line in shown if not line.lstrip().startswith("#")]
            if not any(output):
                continue
            argv = shlex.split(command, comments=True)
            assert argv[0] == "dynbrace", command
            code, out, err = run(capsys, *argv[1:])
            assert (code, out, err) == (0, "\n".join(output).strip("\n") + "\n", ""), command
            examples += 1
    assert examples
