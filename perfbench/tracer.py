"""Run one dynbrace CLI command in-process with every module's public functions traced.

Usage: python3 perfbench/tracer.py SPANS_OUT -- CLI_ARGS...

The parent passes its spawn time (``time.perf_counter``, a system-wide
monotonic clock on Linux) in ``DYNBRACE_BENCH_SPAWN``, so ``startup_s`` covers
interpreter start plus ``import dynbrace.cli``.  Spans are kept in memory and
written to SPANS_OUT as JSON when the command returns.
"""
import time

_T_START = time.perf_counter()

import dynbrace.cli  # noqa: E402  (timed as startup; nothing else is imported first)

_T_IMPORTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

LAYERS = ("groups", "holomorph", "enumeration", "quivers", "structures",
          "parallelise", "families", "cli")
VERIFIERS = ("verify_dsb", "verify_computation_rules", "verify_bracoid", "verify_braiding")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans ``[name, layer, start, end, parent, rss_start_kb, rss_end_kb]`` and exact counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def wrap(self, layer: str, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else None, _maxrss_kb(), 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[6] = _maxrss_kb()
                self.stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer and patch every namespace that holds it.

        ``cli`` imports most functions by name, so patching only the defining
        module would miss those calls.
        """
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "dynbrace" or name.startswith("dynbrace.")}
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"dynbrace.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = self.wrap(layer, f"{layer}.{attr}", obj, self._counter(attr))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not attr.startswith("__"):
                    setattr(mod, attr, wrapped[id(obj)])

        enumeration = modules["dynbrace.enumeration"]
        space = enumeration.KeySpace
        space.translation_table = self.wrap(
            "enumeration", "enumeration.translation_table", space.translation_table, self._count_translation)

        cli = modules["dynbrace.cli"]
        shim = types.SimpleNamespace(**{k: v for k, v in vars(json).items() if not k.startswith("__")})
        shim.dumps = self.wrap("cli", "cli.json_encode", json.dumps,
                               lambda args, result: self.add("cli.json_encode.bytes", len(result)))
        shim.loads = self.wrap("cli", "cli.json_decode", json.loads,
                               lambda args, result: self.add("cli.json_decode.bytes", len(args[0])))
        cli.json = shim

    def _counter(self, attr: str):
        if attr in VERIFIERS:
            def count(args, result):
                self.add("structures.verify.calls", 1)
                self.add("structures.tuples", args[0].vertex_count * args[0].label_count ** 3)
            return count
        return None

    def _count_translation(self, args, result) -> None:
        self.add("enumeration.keys_translated", sum(t.size for t in result))
        self.add("enumeration.keys_in_space", args[0].size)


def main() -> int:
    spans_out = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = Tracer()
    tracer.install()
    spawn = float(os.environ.get("DYNBRACE_BENCH_SPAWN", _T_START))
    try:
        code = dynbrace.cli.main(argv)
    finally:
        sys.stdout.flush()
        record = {
            "argv": argv,
            "startup_s": _T_IMPORTED - spawn,
            "spans": [dict(zip(("name", "layer", "start", "end", "parent", "rss_start_kb", "rss_end_kb"), s))
                      for s in tracer.spans],
            "counts": tracer.counts,
        }
        with open(spans_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record))  # json.dump would use the slow pure-Python encoder
    return code


if __name__ == "__main__":
    raise SystemExit(main())
