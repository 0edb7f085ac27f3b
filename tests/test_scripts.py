"""The scripts under scripts/ run end to end and print the reference facts."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout.splitlines()


def test_reproduce_reference_tables():
    lines = run_script("reproduce_reference_tables.py")
    for expected in (
        "== cyclic:3: 4 vertices, 2 components ==",
        "  component 0 (degree 3): s0",
        "  component 1 (degree 1): s2 s1 s3",
        "  table at s1: [[0, 1, 2], [1, 0, 2], [2, 0, 1]]",
        "  braiding: 24 moved paths",
        "== degree-one component of cyclic:3: s2 s1 s3 ==",
        "  pointed at s1: isomorphic to cyclic:3, labelling {'s2': 2, 's1': 0, 's3': 1}",
        "== cyclic:4: 8 vertices, 4 components ==",
        "== degree-one component of cyclic:4: s6 s5 s4 s7 ==",
        "  <s6,s5,.> = s7 s6 s5 s4",
        "  pointed at s6: isomorphic to cyclic:4, labelling {'s6': 0, 's5': 1, 's4': 2, 's7': 3}",
        "  pointed at s7: isomorphic to cyclic:4, labelling {'s6': 3, 's5': 2, 's4': 1, 's7': 0}",
    ):
        assert expected in lines


def test_invariants_sweep():
    lines = run_script("invariants_sweep.py", "--groups", "cyclic:3", "cyclic:4", "klein4")
    census = {line.split()[0]: line.split()[4:-2] for line in lines[1:]}
    assert census == {
        "cyclic:3": ["N_1=1", "N_3=1"],
        "cyclic:4": ["N_1=2", "N_2=1", "N_4=1"],
        "klein4": ["N_1=4", "N_2=6", "N_4=50"],
    }
    assert lines[0].split() == ["group", "|A|", "|Aut|", "space", "N_s", "time", "peak"]
    for line in lines[1:]:
        time_s, peak_mb = line.split()[-2:]
        assert time_s.endswith("s") and peak_mb.endswith("MB")
        assert 0 < float(peak_mb[:-2]) < 1  # the largest space here has 216 keys
