"""Workload definitions and output checks for the dynbrace benchmark.

Every command is a real ``dynbrace`` CLI invocation.  Paths in an argv are
written relative to the run's work directory as ``{work}/name``.  Each command
names an extractor: a function from the command's stdout and argv (for its
``--out`` file) to the exact mathematical facts the output asserts.  The check compares those
facts with ``references.json``, recorded from the CLI at the commit that
defined the benchmark.  Comparing extracted values rather than output bytes
lets the report format change without a false failure, while any change in a
census table, a vertex count, a digest of ``phi``/``ops`` or an axiom verdict
fails the command.
"""
from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    key: str  # key into references.json
    argv: tuple[str, ...]
    extract: str  # name of the extractor function below


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    work_units: int  # stated work units per pass
    unit: str
    inputs: tuple[Command, ...] = ()  # input files generated during setup


# The smoke chain is the set-up of a workload without input files, and part of
# every traced set-up.  It touches every module on tiny groups, so a broken CLI
# fails before timing starts and a traced run records calls in every layer on
# every workload.
SMOKE = (
    Command("smoke.enumerate_full",
            ("enumerate", "--group", "cyclic:3", "--full", "--seed-examples"), "enumerate_text"),
    Command("smoke.enumerate_json",
            ("enumerate", "--group", "cyclic:4", "--seed-examples", "--json",
             "--out", "{work}/smoke.json"), "enumerate_json"),
    Command("smoke.verify", ("verify", "--input", "{work}/smoke.json"), "verify_text"),
    Command("smoke.parallelise",
            ("parallelise", "--input", "{work}/smoke.json", "--per-component",
             "--out", "{work}/smoke_par.json"), "parallelise_json"),
    Command("smoke.heap", ("heap", "--input", "{work}/smoke.json", "--point", "s4"), "heap_text"),
)

D3_FULL = Command("input.d3_full",
                  ("enumerate", "--group", "dihedral:3", "--full", "--json", "--out", "{work}/d3_full.json"),
                  "enumerate_json")
D3_UNITAL = Command("input.d3_unital",
                    ("enumerate", "--group", "dihedral:3", "--json", "--out", "{work}/d3_unital.json"),
                    "enumerate_json")

# Vertices of degree-one components of size 6 in the dihedral:3 unital family.
# The seed picks the heap's point among them; every choice does the same work.
HEAP_POINTS = ("s1", "s2", "s3", "s4", "s5", "s7", "s8", "s9")

# BENCHMARK.json gates census and transport; materialise and verify are run
# by hand, for changes aimed at them (see DESIGN.md).
WORKLOADS = {
    "census": Workload(
        "census",
        (
            Command("census.dihedral4", ("invariants", "--group", "dihedral:4"), "invariants_text"),
            Command("census.c2xc4",
                    ("invariants", "--group", "prod:cyclic:2,cyclic:4", "--json"), "invariants_json"),
        ),
        work_units=2 * 8**7,
        unit="keys",
    ),
    "materialise": Workload(
        "materialise",
        (
            Command("materialise.cyclic7_full",
                    ("enumerate", "--group", "cyclic:7", "--full"), "enumerate_text"),
            Command("materialise.d3_full_json",
                    ("enumerate", "--group", "dihedral:3", "--full", "--json",
                     "--out", "{work}/materialised.json"), "enumerate_json"),
        ),
        work_units=6**7 + 6**6,
        unit="vertices",
    ),
    "verify": Workload(
        "verify",
        (
            Command("verify.d3_full_file", ("verify", "--input", "{work}/d3_full.json"), "verify_text"),
            Command("verify.cyclic8", ("verify", "--group", "cyclic:8"), "verify_text"),
        ),
        work_units=6**6 * 6**3 + 4**7 * 8**3,
        unit="vertex*label^3",
        inputs=(D3_FULL,),
    ),
    "transport": Workload(
        "transport",
        (
            Command("transport.parallelise",
                    ("parallelise", "--input", "{work}/d3_unital.json", "--per-component",
                     "--out", "{work}/parallelised.json"), "parallelise_json"),
            Command("transport.heap",
                    ("heap", "--input", "{work}/d3_unital.json", "--point", "{point}"), "heap_text"),
        ),
        work_units=1338 + 1,
        unit="components",
        inputs=(D3_UNITAL,),
    ),
}


def argv_of(command: Command, work: Path, point: str) -> list[str]:
    return [a.replace("{work}", str(work)).replace("{point}", point) for a in command.argv]


def out_path(argv: list[str]) -> Path | None:
    return Path(argv[argv.index("--out") + 1]) if "--out" in argv else None


# -- extractors ---------------------------------------------------------------


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def invariants_text(stdout: str, argv: list[str]) -> dict:
    rows = re.findall(r"^(\d+)\s+(\d+)\s+(\d+)\s", stdout, re.M)
    total = re.search(r"^sum s\*N_s = (\d+)", stdout, re.M)
    return {
        "N": {s: int(n) for s, n, _ in rows},
        "in": {s: int(i) for s, _, i in rows},
        "vertex_count": int(total.group(1)) if total else None,
    }


def invariants_json(stdout: str, argv: list[str]) -> dict:
    data = json.loads(stdout)
    return {"N": data["N"], "in": data["in"], "vertex_count": data["vertex_count"],
            "aut_order": data["aut_order"]}


def enumerate_text(stdout: str, argv: list[str]) -> dict:
    head = re.search(r"family: (\d+) vertices, (\d+) components", stdout)
    components = Counter(
        f"{size} {degree}"
        for size, degree in re.findall(r"^  component \d+: size (\d+) (degree \d+|not complete)", stdout, re.M)
    )
    initial = Counter()
    for size, count in re.findall(r"^  initial vertices into component of size (\d+): (\d+)", stdout, re.M):
        initial[size] += int(count)
    return {
        "vertices": int(head.group(1)) if head else None,
        "components": int(head.group(2)) if head else None,
        "homogeneous": re.search(r"^(homogeneous of weight \d+|not homogeneous)$", stdout, re.M).group(1),
        "component_kinds": dict(sorted(components.items())),
        "initial_by_size": dict(sorted(initial.items())),
    }


def enumerate_json(stdout: str, argv: list[str]) -> dict:
    data = json.loads(out_path(argv).read_text())
    vertices = data["vertices"]
    return {
        "vertices": len(vertices),
        "components": len(data["components"]["members"]),
        "unital": sum(data["unital"]),
        "initial_counts": data.get("initial_counts"),
        "digest": _digest([vertices, data["phi"], [data["ops"][v] for v in vertices]]),
    }


def verify_text(stdout: str, argv: list[str]) -> dict:
    return {"verdicts": re.findall(r"^(\w+): (\w+) (\w+)", stdout, re.M)}


def parallelise_json(stdout: str, argv: list[str]) -> dict:
    comps = json.loads(out_path(argv).read_text())["components"]
    return {
        "components": len(comps),
        "vertices": sum(len(c["vertices"]) for c in comps),
        "digest": _digest([[c["group"]["table"], c["vertices"], c["phi"],
                            [c["ops"][v] for v in c["vertices"]]] for c in comps]),
    }


def heap_text(stdout: str, argv: list[str]) -> dict:
    size = re.search(r"^ternary table over (\d+) elements", stdout, re.M)
    pointed = re.search(r"^pointed at (\S+): identity (\S+), isomorphic to (.+)$", stdout, re.M)
    ternary = re.findall(r"^<(\S+)> = (.+)$", stdout, re.M)
    table = re.findall(r"^  (\S+) \* \. = (.+)$", stdout, re.M)
    return {
        "elements": int(size.group(1)) if size else None,
        "ternary_digest": _digest(ternary),
        "pointed": list(pointed.groups()) if pointed else None,
        "group_digest": _digest(table),
    }


EXTRACTORS = {f.__name__: f for f in (
    invariants_text, invariants_json, enumerate_text, enumerate_json,
    verify_text, parallelise_json, heap_text,
)}


def reference_key(command: Command, point: str) -> str:
    return f"{command.key}@{point}" if "{point}" in " ".join(command.argv) else command.key


def extract(command: Command, stdout: str, argv: list[str]):
    return json.loads(json.dumps(EXTRACTORS[command.extract](stdout, argv)))
