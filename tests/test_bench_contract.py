"""The benchmark's tracer finds the census kernel under the names it wraps.

``perfbench/tracer.py`` wraps ``KeySpace.translation_table`` by name and counts
translated keys from the arrays it returns; a traced census run without
``enumeration.translation_table`` or ``enumeration.component_labels`` spans is
marked incorrect.  A kernel rewrite that breaks that contract fails here.
"""
import json
import os
import subprocess
import sys
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
    assert {"enumeration.translation_table", "enumeration.component_labels"} <= names
    # 4 labels over the 6^3 = 216 unital keys
    assert record["counts"]["enumeration.keys_translated"] == 4 * 216
