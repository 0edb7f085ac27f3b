"""Command-line surface: enumerate, invariants, verify, parallelise, heap, export-dot.

Exit codes: 0 success, 1 verification or assertion failure (witness on stderr),
2 input error, 3 resource-cap error.  Identical inputs produce byte-identical
outputs: JSON is emitted with sorted keys and fixed formatting, tables carry no
timestamps or addresses.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .enumeration import (
    EnumerationConfig,
    EnumerationResult,
    enumerate_full,
    enumerate_unital,
    initial_counts,
    invariants,
)
from .errors import InputError, ResourceCapError
from .families import seeded_names
from .groups import (
    automorphism_group,
    build_group,
    preset_isomorphism_report,
)
from .parallelise import (
    group_from_pointed_heap,
    parallelise,
    ternary_of_braiding,
)
from .quivers import (
    connected_components,
    export_dot,
    is_homogeneous,
    quiver_from_json,
)
from .structures import (
    braiding_of_qtsb,
    braiding_quadruples,
    bracoid_from_json,
    dsb_from_json,
    dsb_to_json,
    restrict_bracoid,
    semiloopoid_of_dsb,
    verify_bracoid,
    verify_braiding,
    verify_computation_rules,
    verify_dsb,
)


# repr of a list of ints, or of a list of int lists
_INT_LIST_TEXT = re.compile(r"[-0-9\[\], ]*")
_COMPACT = json.JSONEncoder()
_STEP = "  "


class _IndentedEncoder(json.JSONEncoder):
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)``, at C speed.

    The stdlib encodes every indented document in pure Python, one generator
    step per token.  Here dicts and mixed lists are laid out in Python, while
    a list of numbers, bools and nulls is one compact C encoding, and a list
    of non-empty int lists (the int tables) is one ``repr``; their ``", "``
    separators then become indented line breaks.  Keys must be strings.
    Passing it as ``cls`` keeps one ``json.dumps`` call per document, the
    call perfbench's tracer times as JSON output.
    """

    def encode(self, o) -> str:
        return _layout(o, "\n")


def _layout(o, newline: str) -> str:
    """The indented text of ``o``, whose first line starts after ``newline``."""
    inner = newline + _STEP
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _layout(v, inner) for k, v in sorted(o.items())
        ) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        text = _table_text(o, newline)
        if text is None:
            text = "[" + inner + ("," + inner).join(_layout(v, inner) for v in o) + newline + "]"
        return text
    if type(o) is int:
        return repr(o)
    return _COMPACT.encode(o)


def _table_text(o, newline: str) -> str | None:
    """Indented text of a non-empty list of numbers, bools and nulls, or of a
    list of non-empty int lists; None for any other list."""
    inner = newline + _STEP
    first = o[0]
    if type(first) is list and first and type(first[0]) is int:
        text = repr(o)
        # every row is a list holding one "[" of its own, so no row nests further
        if not (_INT_LIST_TEXT.fullmatch(text) and "[]" not in text
                and text.count("[") == len(o) + 1 and all(type(row) is list for row in o)):
            return None
        deeper = inner + _STEP
        rows = text[2:-2].replace("], [", inner + "]," + inner + "[" + deeper).replace(", ", "," + deeper)
        return "[" + inner + "[" + deeper + rows + inner + "]" + newline + "]"
    if isinstance(first, (str, dict, list, tuple)):
        return None
    text = _COMPACT.encode(o)
    if '"' in text or "{" in text or text.find("[", 1) >= 0:
        return None
    return "[" + inner + text[1:-1].replace(", ", "," + inner) + newline + "]"


def _dumps(obj) -> str:
    return json.dumps(obj, cls=_IndentedEncoder) + "\n"


def _emit(text: str, out: str | None) -> None:
    _write(out, lambda fh: fh.write(text))


def _write(out: str | None, write) -> None:
    """Call ``write`` on the ``--out`` file, or on stdout when there is none."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                write(fh)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        write(sys.stdout)


def _write_components(fh, structures) -> None:
    """``_dumps({"components": [...]})`` of the structures, one component at a time."""
    fh.write('{\n  "components": [\n')
    for k, dsb in enumerate(structures):
        if k:
            fh.write(",\n")
        fh.write("    " + json.dumps(dsb_to_json(dsb), cls=_IndentedEncoder).replace("\n", "\n    "))
    fh.write("\n  ]\n}\n")


def _load_json(path: str):
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return data


def _config(args) -> EnumerationConfig:
    return EnumerationConfig(cap=args.cap)


def _named(args, group_name: str, full: bool):
    if getattr(args, "seed_examples", False):
        names = seeded_names(group_name, full)
        if not names:
            raise InputError(f"no bundled example family for group {group_name!r}")
        return names
    return None


def _enumeration_json(result: EnumerationResult) -> dict:
    data = dsb_to_json(result.dsb)
    data["aut"] = [list(a.images) for a in automorphism_group(result.group)]
    data["assignments"] = [list(v.assignment) for v in result.vertices]
    data["unital"] = [bool(u) for u in result.unital_flags]
    data["components"] = {
        "members": [list(m) for m in result.components.members],
        "degrees": [d for d in result.components.degrees],
    }
    return data


def _cmd_enumerate(args) -> int:
    group = build_group(args.group)
    config = _config(args)
    named = _named(args, group.name, args.full)
    result = (enumerate_full if args.full else enumerate_unital)(group, config, named)
    in_result = initial_counts(group, config) if args.full else None

    if args.json:
        data = _enumeration_json(result)
        if in_result is not None:
            data["initial_counts"] = {str(s): c for s, c in in_result.by_size.items()}
        _emit(_dumps(data), args.out)
        return 0

    lines = [
        f"group {group.name} (order {group.order}), |Aut| = {len(automorphism_group(group))}",
        f"{'full' if args.full else 'unital'} family: {result.vertex_count} vertices, "
        f"{result.components.count} components",
    ]
    homog = is_homogeneous(result.quiver, result.components)
    if homog.is_homogeneous:
        lines.append(f"homogeneous of weight {homog.weight}")
    else:
        lines.append("not homogeneous")
    for cid, members in enumerate(result.components.members):
        degree = result.components.degrees[cid]
        shown = " ".join(result.vertex_names[v] for v in members[:12])
        if len(members) > 12:
            shown += " ..."
        deg_text = f"degree {degree}" if degree is not None else "not complete"
        lines.append(f"  component {cid}: size {len(members)} {deg_text}: {shown}")
    if in_result is not None:
        for root, s, cnt in in_result.per_component:
            lines.append(f"  initial vertices into component of size {s}: {cnt}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_invariants(args) -> int:
    group = build_group(args.group)
    config = _config(args)
    table = invariants(group, config)

    if args.json:
        data = {
            "group": table.group_name,
            "order": table.order,
            "aut_order": table.aut_order,
            "vertex_count": table.vertex_count,
            "N": {str(s): c for s, c in table.counts.items()},
            "in": {str(s): c for s, c in table.initial_counts.items()},
        }
        if table.partitions is not None:
            data["partitions"] = [
                {"size": s, "representative": list(rep), "partition": list(profile)}
                for s, rep, profile in table.partitions
            ]
        else:
            data["partitions_omitted"] = table.partitions_omitted
        _emit(_dumps(data), args.out)
        return 0

    lines = [
        f"group {table.group_name} (order {table.order}), |Aut| = {table.aut_order}, "
        f"unital family {table.vertex_count}",
        "s    N_s        in_s       representative        partition",
    ]
    rep_by_size: dict[int, tuple] = {}
    if table.partitions is not None:
        for s, rep, profile in table.partitions:
            if s not in rep_by_size:
                rep_by_size[s] = (rep, profile)
    for s in table.sizes:
        if s in rep_by_size:
            rep, profile = rep_by_size[s]
            rep_text = ",".join(str(v) for v in rep)
            part_text = "+".join(str(v) for v in profile)
        else:
            rep_text = "-"
            part_text = "-"
        lines.append(
            f"{s:<4} {table.count(s):<10} {table.initial_counts.get(s, 0):<10} "
            f"{rep_text:<21} {part_text}"
        )
    total = sum(s * c for s, c in table.counts.items())
    lines.append(f"sum s*N_s = {total} = |Aut|^(order-1) ok")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _report_lines(kind: str, report) -> list[str]:
    return [f"{kind}: {line}" for line in report.lines()]


def _cmd_verify(args) -> int:
    reports = []
    bracoid = None
    braiding = None
    if args.input:
        data = _load_json(args.input)
        if "dot" in data:
            bracoid = bracoid_from_json(data)
            reports.append(("bracoid", verify_bracoid(bracoid)))
            if reports[-1][1].passed:
                braiding = braiding_of_qtsb(bracoid, check=False)
                reports.append(("braiding", verify_braiding(bracoid, braiding)))
        elif "ops" in data:
            dsb = dsb_from_json(data)
            reports.append(("structure", verify_dsb(dsb)))
            if reports[-1][1].passed:
                reports.append(("computation_rules", verify_computation_rules(dsb)))
                bracoid = semiloopoid_of_dsb(dsb, check=False)
                reports.append(("bracoid", verify_bracoid(bracoid)))
                if reports[-1][1].passed:
                    braiding = braiding_of_qtsb(bracoid, check=False)
                    reports.append(("braiding", verify_braiding(bracoid, braiding)))
        else:
            raise InputError("input JSON is neither a dynamical structure nor a bracoid")
    elif args.group:
        group = build_group(args.group)
        config = _config(args)
        result = (enumerate_full if args.full else enumerate_unital)(group, config, None)
        dsb = result.dsb
        reports.append(("structure", verify_dsb(dsb)))
        reports.append(("computation_rules", verify_computation_rules(dsb)))
        bracoid = semiloopoid_of_dsb(dsb, check=False)
        reports.append(("bracoid", verify_bracoid(bracoid)))
        braiding = braiding_of_qtsb(bracoid, check=False)
        reports.append(("braiding", verify_braiding(bracoid, braiding)))
    else:
        raise InputError("verify needs --input or --group")

    failed = False
    for kind, report in reports:
        for check in report.failures():
            failed = True
            print(f"{kind}: {check.line()}", file=sys.stderr)

    if args.json:
        payload = {
            "passed": not failed,
            "checks": {
                kind: {
                    c.name: {"passed": c.passed, "required": c.required}
                    for c in report.checks
                }
                for kind, report in reports
            },
        }
        if braiding is not None and not failed:
            payload["braiding"] = braiding_quadruples(bracoid, braiding)
        _emit(_dumps(payload), args.out)
        return 1 if failed else 0

    out_lines = []
    for kind, report in reports:
        out_lines.extend(_report_lines(kind, report))
    _emit("\n".join(out_lines) + "\n", args.out)
    return 1 if failed else 0


def _cmd_parallelise(args) -> int:
    data = _load_json(args.input)
    if "dot" in data:
        bracoid = bracoid_from_json(data)
    elif "ops" in data:
        bracoid = semiloopoid_of_dsb(dsb_from_json(data))
    else:
        raise InputError("input JSON is neither a dynamical structure nor a bracoid")

    if args.per_component:
        _, structures = parallelise(bracoid)
        _write(args.out, lambda fh: _write_components(fh, structures))
        return 0

    if args.base is None:
        raise InputError("parallelise needs --base (or --per-component)")
    _, dsb = parallelise(bracoid, args.base)
    _emit(_dumps(dsb_to_json(dsb)), args.out)
    return 0


def _cmd_heap(args) -> int:
    data = _load_json(args.input)
    if "dot" in data:
        bracoid = bracoid_from_json(data)
    elif "ops" in data:
        bracoid = semiloopoid_of_dsb(dsb_from_json(data))
    else:
        raise InputError("input JSON is neither a dynamical structure nor a bracoid")
    report = connected_components(bracoid.quiver())
    if report.count > 1:
        if args.point is None:
            raise InputError(
                "input is disconnected; pass --point to choose the component to use"
            )
        vertex = bracoid.vertex_index(args.point)
        bracoid = restrict_bracoid(bracoid, report.members[report.component_of[vertex]])
    braiding = braiding_of_qtsb(bracoid)
    heap = ternary_of_braiding(bracoid, braiding)

    pointed = None
    if args.point is not None:
        group = group_from_pointed_heap(heap, args.point)
        pointed = {
            "base": args.point,
            "identity": group.identity,
            "table": [list(row) for row in group.table],
            "isomorphic_to": preset_isomorphism_report(group),
        }

    if args.json:
        payload = {
            "elements": list(heap.names),
            "table": [[list(map(int, row)) for row in plane] for plane in heap.table],
        }
        if pointed is not None:
            payload["pointed"] = pointed
        _emit(_dumps(payload), args.out)
        return 0

    m = heap.size
    lines = [f"ternary table over {m} elements: " + " ".join(heap.names)]
    for a in range(m):
        for b in range(m):
            row = " ".join(heap.names[int(heap.table[a, b, c])] for c in range(m))
            lines.append(f"<{heap.names[a]},{heap.names[b]},.> = {row}")
    if pointed is not None:
        iso = pointed["isomorphic_to"] or "no listed preset"
        lines.append(
            f"pointed at {args.point}: identity {heap.names[pointed['identity']]}, "
            f"isomorphic to {iso}"
        )
        for a, row in enumerate(pointed["table"]):
            shown = " ".join(heap.names[v] for v in row)
            lines.append(f"  {heap.names[a]} * . = {shown}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_export_dot(args) -> int:
    if args.input:
        data = _load_json(args.input)
        if "labels" in data and "ops" not in data:
            quiver = quiver_from_json(data)
        elif "dot" in data:
            quiver = bracoid_from_json(data).quiver()
        elif "ops" in data:
            quiver = dsb_from_json(data).quiver()
        else:
            raise InputError("input JSON does not describe a quiver")
    elif args.group:
        group = build_group(args.group)
        config = _config(args)
        named = _named(args, group.name, args.full)
        result = (enumerate_full if args.full else enumerate_unital)(group, config, named)
        quiver = result.quiver
    else:
        raise InputError("export-dot needs --input or --group")
    _emit(export_dot(quiver, collapse_labels=args.collapse_labels), args.out)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynbrace",
        description="enumerate, verify and transform braided structures over finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group_opt=True, input_opt=False):
        if group_opt:
            p.add_argument("--group", help="group preset, e.g. cyclic:4 or prod:cyclic:2,cyclic:2")
        if input_opt:
            p.add_argument("--input", help="input JSON path")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--cap", type=_positive_int, default=EnumerationConfig().cap,
                       help="enumeration size cap")

    p = sub.add_parser("enumerate", help="materialise a maximal family as a quiver")
    common(p)
    p.add_argument("--full", action="store_true", help="include initial vertices")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed-examples", action="store_true",
                   help="use the bundled vertex names (s0.., r0..) where available")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("invariants", help="component-size census of the unital family")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("verify", help="run the axiom suite on a file or an enumeration")
    common(p, input_opt=True)
    p.add_argument("--full", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="emit check results (and the braiding pair-map) as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("parallelise", help="relabel a connected bracoid into a dynamical structure")
    common(p, group_opt=False, input_opt=True)
    p.add_argument("--base", help="base vertex name")
    p.add_argument("--per-component", action="store_true",
                   help="apply per connected component (base chosen canonically)")
    p.set_defaults(func=_cmd_parallelise)

    p = sub.add_parser("heap", help="ternary table of a degree-one braided component")
    common(p, group_opt=False, input_opt=True)
    p.add_argument("--point", help="distinguished vertex: also print the induced group")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_heap)

    p = sub.add_parser("export-dot", help="deterministic DOT export of a quiver")
    common(p, input_opt=True)
    p.add_argument("--full", action="store_true")
    p.add_argument("--collapse-labels", action="store_true",
                   help="collapse parallel arrows into counted edges")
    p.add_argument("--seed-examples", action="store_true")
    p.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
