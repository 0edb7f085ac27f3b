"""The benchmark's tracer finds the census kernel and the transport layers under the names it wraps.

``perfbench/tracer.py`` wraps ``KeySpace.translation_table`` by name and counts
translated keys from the arrays it returns, on every call; a traced census run without
``enumeration.translation_table`` or ``enumeration.component_labels`` spans is
marked incorrect, and so is a traced transport pass without calls to
``parallelise.parallelise``, ``parallelise.schurian_transversal``,
``groups.make_group`` or ``quivers.connected_components``.  Every traced run
must also record a call in each layer, and the ``holomorph`` layer's only
public function is ``holomorph.holomorph``: the census and the family that
the transport workload reads must each reach the tables through it.  A rewrite
that breaks either contract fails here, and so does one that doubles or drops
a verifier call of ``heap``.
"""
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_sees_the_census_kernel(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path),
         "--", "invariants", "--group", "klein4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    names = {span["name"] for span in record["spans"]}
    assert {"enumeration.translation_table", "enumeration.component_labels", "holomorph.holomorph"} <= names
    # The census streams the kernel: each pass calls it once per key block and
    # the tracer counts every call.  The 6^3 = 216 unital keys are one block,
    # and a unital census makes two passes (the gather-free first pass and the
    # fixpoint pass that confirms it), each translating 216 keys along 4 labels.
    assert record["counts"]["enumeration.keys_translated"] == 2 * 4 * 216


def test_tracer_sees_the_transport_layers(tmp_path):
    # ``perfbench/run.py`` marks a traced transport pass incorrect unless it
    # records calls to these functions; the per-component pass must keep
    # calling them by the names the tracer wraps.  The pass itself reads a
    # file, so the holomorph-layer calls come from the command that writes it.
    family = tmp_path / "family.json"
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path),
         "--", "enumerate", "--group", "cyclic:4", "--json", "--out", str(family)],
        cwd=ROOT, env=env, check=True, timeout=120,
    )
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    assert "holomorph.holomorph" in {span["name"] for span in record["spans"]}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path),
         "--", "parallelise", "--input", str(family), "--per-component",
         "--out", str(tmp_path / "parallelised.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    names = Counter(span["name"] for span in record["spans"])
    assert {"parallelise.parallelise", "parallelise.schurian_transversal", "groups.make_group",
            "quivers.connected_components", "cli.json_encode"} <= set(names)
    # Four components with two distinct group laws.  The input's group and its
    # structure check come first; then one bracoid check for the whole family,
    # and one group and one output check per law.  The output document is
    # smaller than one writer block, so it is encoded by one call.
    assert names["parallelise.parallelise"] == 1
    assert names["groups.make_group"] == 1 + 2
    assert names["cli.json_encode"] == 1
    assert record["counts"]["structures.verify.calls"] == 1 + 1 + 2


def test_tracer_counts_the_heap_checks(tmp_path):
    # ``heap`` on a structure file checks the file once and the chosen
    # component once: verify_dsb, then verify_bracoid
    family = tmp_path / "family.json"
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "dynbrace.cli", "enumerate", "--group", "cyclic:4", "--seed-examples",
         "--json", "--out", str(family)],
        cwd=ROOT, env=env, check=True, timeout=120,
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path),
         "--", "heap", "--input", str(family), "--point", "s4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    names = Counter(span["name"] for span in record["spans"])
    assert names["structures.verify_dsb"] == names["structures.verify_bracoid"] == 1
    assert {"structures.braiding_of_qtsb", "parallelise.ternary_of_braiding"} <= set(names)
    assert record["counts"]["structures.verify.calls"] == 2


def test_tracer_sees_the_json_writer(tmp_path):
    # JSON output is timed as ``cli.json_encode``: the streamed enumerate
    # writer still encodes through ``json.dumps`` on ``cli.json``, once per
    # key or block, and those calls produce nearly every byte of the file.
    spans_path = tmp_path / "spans.json"
    out = tmp_path / "d3.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path),
         "--", "enumerate", "--group", "dihedral:3", "--json", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    names = Counter(span["name"] for span in record["spans"])
    size = out.stat().st_size
    # ops (7,776 tables of 36 labels) alone is more than one block
    assert names["cli.json_encode"] > 2
    assert 0.99 * size < record["counts"]["cli.json_encode.bytes"] < size
