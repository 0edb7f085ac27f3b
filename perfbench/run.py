"""dynbrace benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload census --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload census --seed 1 --seconds 45 --trace 1
    python3 perfbench/run.py --record      # re-record references.json
    python3 perfbench/run.py --workload verify --seed 1 --seconds 1 --trace 0 --tamper

One benchmark process starts one child at a time: every command is a fresh
``python -m dynbrace.cli`` (or, when traced, ``perfbench/tracer.py``) process,
timed by wall clock and measured with ``wait4``.  Nothing runs in parallel, so
commands never compete with each other for the machine's cores.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass per round and prints the per-layer metrics.  The last line
of standard output is the result object; the line before it records the
environment and sample counts.  ``--tamper`` perturbs every reference value,
which must make every command's check fail.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import HEAP_POINTS, SMOKE, WORKLOADS, argv_of, extract, reference_key

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_PASSES = 2  # a median of one pass would be a single sample
COMMAND_TIMEOUT_S = 150

LAYERS = ("groups", "holomorph", "enumeration", "quivers", "structures",
          "parallelise", "families", "cli")

# Function spans reported by name, each with the workload on which it should
# move.  A traced pass of that workload that records no call to one of them
# fails: a missed wrapper would otherwise report zero silently.
FUNCTIONS = {
    "enumeration.translation_table": "census",
    "enumeration.component_labels": "census",
    "enumeration.materialise": "materialise",
    "enumeration.initial_counts": "materialise",
    "quivers.quiver_of_dynamical_set": "materialise",
    "quivers.connected_components": "transport",
    "structures.verify_dsb": "verify",
    "structures.verify_computation_rules": "verify",
    "structures.verify_bracoid": "verify",
    "structures.verify_braiding": "verify",
    "structures.braiding_of_qtsb": "verify",
    "structures.dsb_to_json": "materialise",
    "structures.from_json": "verify",
    "parallelise.parallelise": "transport",
    "parallelise.schurian_transversal": "transport",
    "parallelise.ternary_of_braiding": "transport",
    "groups.make_group": "transport",
    "cli.json_encode": "materialise",
    "cli.json_decode": "verify",
}
# Span names folded into one reported function.
ALIASES = {
    "enumeration.enumerate_unital": "enumeration.materialise",
    "enumeration.enumerate_full": "enumeration.materialise",
    "structures.dsb_from_json": "structures.from_json",
    "structures.bracoid_from_json": "structures.from_json",
}
RSS_LAYERS = ("enumeration", "structures")


class CheckFailed(Exception):
    pass


class Runner:
    """Runs commands one at a time, checks their outputs and counts failures."""

    def __init__(self, references: dict, point: str, record: dict | None = None):
        self.references = references
        self.point = point
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, commands, traced: bool = False) -> list[dict]:
        """Run ``commands`` in order; return one result per command, unchecked."""
        results = []
        for i, command in enumerate(commands):
            argv = argv_of(command, WORK, self.point)
            stdout_path = WORK / f"stdout.{i}.{command.key}.txt"
            spans_path = WORK / f"spans.{i}.{command.key}.json"
            if traced:
                prog = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *argv]
            else:
                prog = [sys.executable, "-m", "dynbrace.cli", *argv]
            with open(stdout_path, "w", encoding="utf-8") as out, \
                    open(WORK / "stderr.txt", "a", encoding="utf-8") as err:
                env = dict(self.env)
                start = time.perf_counter()
                env["DYNBRACE_BENCH_SPAWN"] = repr(start)
                proc = subprocess.Popen(prog, stdout=out, stderr=err, env=env, cwd=ROOT)
                timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            results.append({
                "command": command, "argv": argv, "code": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_mb": usage.ru_maxrss / 1024,
                "stdout": stdout_path, "spans": spans_path if traced else None,
            })
        return results

    def check(self, results: list[dict]) -> None:
        for res in results:
            self.attempted += 1
            try:
                self._check_one(res)
            except (CheckFailed, ValueError, TypeError, KeyError, IndexError, AttributeError, OSError) as exc:
                self.failed += 1
                print(f"check failed: {' '.join(res['argv'])}: {exc}", file=sys.stderr)

    def _check_one(self, res: dict) -> None:
        if res["code"] != 0:
            raise CheckFailed(f"exit code {res['code']}")
        command = res["command"]
        got = extract(command, res["stdout"].read_text(encoding="utf-8"), res["argv"])
        key = reference_key(command, self.point)
        if self.record is not None:
            self.record[key] = got
            return
        want = self.references.get(key)
        if got != want:
            raise CheckFailed(f"output facts differ from reference {key}: got {_short(got)}, want {_short(want)}")


def _short(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) < 300 else text[:300] + "..."


def _tampered(value):
    """The reference with its first leaf changed: every check against it must fail."""
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: _tampered(value[key])}
    if isinstance(value, list):
        return [_tampered(value[0]), *value[1:]]
    if isinstance(value, bool) or value is None:
        return "tampered"
    if isinstance(value, int):
        return value + 1
    return str(value) + "~"


def _setup(runner: Runner, workload) -> float:
    """Fresh work directory and the workload's input files; the smoke chain when there are none."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    start = time.perf_counter()
    results = runner.run(workload.inputs or SMOKE)
    elapsed = time.perf_counter() - start
    runner.check(results)
    return elapsed


def _pass(runner: Runner, workload, rng: random.Random, traced: bool = False):
    commands = list(workload.commands)
    rng.shuffle(commands)
    start = time.perf_counter()
    results = runner.run(commands, traced=traced)
    wall = time.perf_counter() - start
    runner.check(results)
    return wall, results


def environment() -> dict:
    import numpy

    import dynbrace.holomorph

    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "default_cap": dynbrace.holomorph.DEFAULT_CAP,
    }


def end_to_end(runner: Runner, workload, rng: random.Random, seconds: float):
    setups = [_setup(runner, workload) for _ in range(SETUP_REPEATS)]
    walls, rss, cpu = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, results = _pass(runner, workload, rng)
        walls.append(wall)
        rss.append(max(r["maxrss_mb"] for r in results))
        cpu.append(sum(r["cpu_s"] for r in results))
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "work_per_s": (workload.work_units / wall_s, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "passed_frac": ((runner.attempted - runner.failed) / runner.attempted, "1"),
    }
    info = {"passes": len(walls), "setups": len(setups), "wall_s_samples": walls,
            "setup_s_samples": setups, "cpu_s_median": statistics.median(cpu),
            "work_units_per_pass": workload.work_units, "unit": workload.unit}
    return metrics, info, True


# -- traced run ---------------------------------------------------------------


def _load_traces(results: list[dict]) -> list[dict]:
    traces = []
    for res in results:
        trace = json.loads(res["spans"].read_text(encoding="utf-8"))
        trace["wall_s"] = res["wall_s"]
        traces.append(trace)
    return traces


def _aggregate(traces: list[dict]) -> dict:
    """Additive sums over traced commands: self time and calls per layer and function."""
    sums: dict[str, float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span, covered in zip(spans, child_time):
            self_s = span["end"] - span["start"] - covered
            name = ALIASES.get(span["name"], span["name"])
            add(f"{span['layer']}.self_s", self_s)
            add(f"{span['layer']}.calls", 1)
            add(f"{name}.self_s", self_s)
            add(f"{name}.calls", 1)
            parent = spans[span["parent"]] if span["parent"] is not None else None
            if span["layer"] in RSS_LAYERS and (parent is None or parent["layer"] != span["layer"]):
                add(f"{span['layer']}.rss_growth_mb", (span["rss_end_kb"] - span["rss_start_kb"]) / 1024)
            if parent is None:
                add("trace.root_s", span["end"] - span["start"])
        for key, value in trace["counts"].items():
            add(key, value)
        add("trace.startup_s", trace["startup_s"])
        add("trace.wall_s", trace["wall_s"])
    return sums


def per_layer(runner: Runner, workload, rng: random.Random, seconds: float):
    _setup(runner, workload)
    # The smoke chain, traced, records calls in every layer on every workload.
    # The input files are generated untraced, so no layer counts their cost.
    smoke_results = runner.run(SMOKE, traced=True)
    runner.check(smoke_results)
    setup_traces = _load_traces(smoke_results)
    plain, traced, pass_traces = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(_pass(runner, workload, rng)[0])
        wall, results = _pass(runner, workload, rng, traced=True)
        traced.append(wall)
        pass_traces.append(_load_traces(results))

    rounds = len(pass_traces)
    per_pass = [_aggregate(t) for t in pass_traces]
    setup = _aggregate(setup_traces)
    keys = set(setup).union(*per_pass)
    # the traced smoke chain plus the mean traced pass
    total = {k: setup.get(k, 0) + sum(p.get(k, 0) for p in per_pass) / rounds for k in keys}

    missing = [name for name, home in FUNCTIONS.items()
               if home == workload.name and not all(p.get(f"{name}.calls") for p in per_pass)]
    missing += [layer for layer in LAYERS if not total.get(f"{layer}.calls")]
    for name in missing:
        print(f"trace: no call recorded for {name} on {workload.name}", file=sys.stderr)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (total.get(f"{layer}.self_s", 0.0), "s")
        metrics[f"{layer}.calls"] = (_whole(total.get(f"{layer}.calls", 0)), "count")
    for name in FUNCTIONS:
        metrics[f"{name}.self_s"] = (total.get(f"{name}.self_s", 0.0), "s")
    for name in ("quivers.connected_components", "parallelise.parallelise", "groups.make_group",
                 "cli.json_encode", "cli.json_decode"):
        metrics[f"{name}.calls"] = (_whole(total.get(f"{name}.calls", 0)), "count")
    for key in ("enumeration.keys_translated", "structures.tuples", "structures.verify.calls",
                "cli.json_encode.bytes", "cli.json_decode.bytes"):
        metrics[key] = (_whole(total.get(key, 0)), "count")
    metrics["enumeration.translations_per_key"] = (
        total.get("enumeration.keys_translated", 0) / max(total.get("enumeration.keys_in_space", 0), 1), "count")
    for layer in RSS_LAYERS:
        metrics[f"{layer}.rss_growth_mb"] = (total.get(f"{layer}.rss_growth_mb", 0.0), "MB")
    startups = [t["startup_s"] for t in setup_traces + [t for p in pass_traces for t in p]]
    metrics["cli.startup_s"] = (statistics.median(startups), "s")
    metrics["trace.overhead_frac"] = ((sum(traced) - sum(plain)) / sum(plain), "1")
    metrics["trace.coverage_frac"] = (
        (total["trace.startup_s"] + total["trace.root_s"]) / total["trace.wall_s"], "1")

    info = {"rounds": rounds, "untraced_pass_s": plain, "traced_pass_s": traced,
            "layer_share_of_traced_pass": _shares(per_pass)}
    (WORK / f"trace-{workload.name}.json").write_text(
        json.dumps({"setup": setup_traces, "passes": pass_traces}), encoding="utf-8")
    return metrics, info, not missing


def _whole(value: float):
    return int(value) if float(value).is_integer() else value


def _shares(per_pass: list[dict]) -> dict:
    wall = sum(p["trace.wall_s"] for p in per_pass)
    shares = {layer: sum(p.get(f"{layer}.self_s", 0) for p in per_pass) / wall for layer in LAYERS}
    shares["startup"] = sum(p["trace.startup_s"] for p in per_pass) / wall
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


# -- entry points -------------------------------------------------------------


def record_references() -> int:
    """Run every command once and store the facts its output asserts."""
    record: dict = {}
    for workload in WORKLOADS.values():
        points = HEAP_POINTS if workload.name == "transport" else HEAP_POINTS[:1]
        for point in points:
            runner = Runner({}, point, record)
            _setup(runner, workload)
            _pass(runner, workload, random.Random(0))
            if runner.failed:
                return 1
    REFERENCES.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} references in {REFERENCES}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true", help="perturb every reference value")
    parser.add_argument("--record", action="store_true", help="re-record references.json")
    args = parser.parse_args(argv)

    if not (SRC / "dynbrace" / "cli.py").is_file():
        print(f"error: no dynbrace sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")

    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    if args.tamper:
        references = {k: _tampered(v) for k, v in references.items()}
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    runner = Runner(references, rng.choice(HEAP_POINTS))
    measure = per_layer if args.trace else end_to_end
    metrics, info, complete = measure(runner, workload, rng, args.seconds)
    correct = complete and runner.failed == 0
    print(json.dumps({"workload": workload.name, "seed": args.seed, "heap_point": runner.point,
                      "environment": environment(), **info}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
