"""Command-line surface: enumerate, invariants, verify, parallelise, heap, export-dot.

Exit codes: 0 success, 1 verification or assertion failure (witness on stderr),
2 input error, 3 resource-cap error (running out of memory included).
Identical inputs produce byte-identical outputs: JSON is emitted with sorted
keys and fixed formatting, tables carry no timestamps or addresses.

A JSON document has the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``
of its plain-list form, but its tables are laid out straight from the numpy
arrays by one primitive (:func:`_array_items`): numbers come from a bounded
table of decimal strings and each level is grouped by C-level joins.  A
document larger than one block is written key by key and its long tables
block by block, so neither the whole text nor a list copy of a table is ever
built.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .enumeration import (
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
    group_to_json,
    preset_isomorphism_report,
)
from .holomorph import DEFAULT_CAP
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
    restrict_bracoid,
    semiloopoid_of_dsb,
    verify_bracoid,
    verify_braiding,
    verify_computation_rules,
    verify_dsb,
)


_COMPACT = json.JSONEncoder()
_STEP = "  "
# Sequences of more cells than this are written in blocks of about this many.
_BLOCK_CELLS = 1 << 14
# Decimal strings are cached for 0 .. _LUT_CAP - 1 at most; larger and
# negative numbers are converted one by one.
_LUT_CAP = 1 << 16
_decimal_lut = np.empty(0, dtype=object)
_LITERALS = np.array(["false", "true"], dtype=object)


class _IndentedEncoder(json.JSONEncoder):
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)``, at C speed.

    The stdlib encodes every indented document in pure Python, one generator
    step per token.  Here dicts and mixed lists are laid out in Python, a list
    of numbers, bools and nulls is one compact C encoding, and int and bool
    arrays (plus the table types below) are laid out from the arrays by
    :func:`_array_items`.  Keys must be strings.  ``newline`` starts the line
    the value begins on, so a piece of a larger document can be encoded on
    its own.  Passing the class as ``cls`` keeps one ``json.dumps`` call per
    document or block, the call perfbench's tracer times as JSON output.
    """

    def __init__(self, *, newline: str = "\n", **kw):
        super().__init__(**kw)
        self.newline = newline

    def encode(self, o) -> str:
        return _layout(o, self.newline)


def _layout(o, newline: str) -> str:
    """The indented text of ``o``, whose first line starts after ``newline``."""
    inner = newline + _STEP
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, dict):
        return _dict_text(((k, _layout(v, inner)) for k, v in sorted(o.items())), newline)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        text = _scalars_text(o, newline)
        if text is None:
            text = "[" + inner + ("," + inner).join(_layout(v, inner) for v in o) + newline + "]"
        return text
    if isinstance(o, np.ndarray):
        return _list_text(*_array_items(_decimals(o), o.shape, newline), newline)
    if isinstance(o, (_Keyed, _Ragged, _Braiding, _Components)):
        return o.text(newline)
    if type(o) is int:
        return repr(o)
    return _COMPACT.encode(o)


def _scalars_text(o, newline: str) -> str | None:
    """Indented text of a non-empty list of strings, or of numbers, bools and
    nulls; None for any other list."""
    inner = newline + _STEP
    first = o[0]
    if isinstance(first, str):
        if set(map(type, o)) != {str}:
            return None
        return "[" + inner + ("," + inner).join(map(encode_basestring_ascii, o)) + newline + "]"
    if isinstance(first, (dict, list, tuple)):
        return None
    try:
        text = _COMPACT.encode(o)
    except TypeError:  # an item the compact encoder does not know, such as an array
        return None
    if '"' in text or "{" in text or text.find("[", 1) >= 0:
        return None
    return "[" + inner + text[1:-1].replace(", ", "," + inner) + newline + "]"


def _dict_text(items, newline: str) -> str:
    """A JSON object from its ``(key, value text)`` pairs, in order."""
    inner = newline + _STEP
    body = ("," + inner).join(encode_basestring_ascii(k) + ": " + v for k, v in items)
    return "{" + inner + body + newline + "}" if body else "{}"


def _list_text(head: str, bodies, tail: str, newline: str) -> str:
    """A JSON list whose item i is ``head + bodies[i] + tail``."""
    inner = newline + _STEP
    body = (tail + "," + inner + head).join(bodies)
    return "[" + inner + head + body + tail + newline + "]" if body else "[]"


def _keyed_text(keys, head: str, bodies, tail: str, newline: str) -> str:
    """A JSON object whose value at ``keys[i]`` (encoded) is ``head + bodies[i] + tail``."""
    inner = newline + _STEP
    body = (tail + "," + inner).join(map((": " + head).join, zip(keys, bodies)))
    return "{" + inner + body + tail + newline + "}" if body else "{}"


def _decimals(a: np.ndarray) -> np.ndarray:
    """The JSON text of every entry of the int or bool array ``a``: a flat
    object array of strings, in C order."""
    global _decimal_lut
    flat = a.ravel()
    if flat.dtype == np.bool_:
        return _LITERALS[flat.view(np.uint8)]
    if not flat.size:
        return np.empty(0, dtype=object)
    lo, hi = int(flat.min()), int(flat.max())
    if _decimal_lut.size <= hi and _decimal_lut.size < _LUT_CAP:
        size = min(_LUT_CAP, 1 << hi.bit_length())
        _decimal_lut = np.arange(size).astype(str).astype(object)
    lut = _decimal_lut
    if lo >= 0 and hi < lut.size:
        return lut[flat]
    far = (flat < 0) | (flat >= lut.size)
    texts = lut[np.where(far, 0, flat)] if lut.size else np.empty(flat.size, dtype=object)
    texts[far] = flat[far].astype(str)
    return texts


def _array_items(texts: np.ndarray, shape: tuple, newline: str):
    """An array of ``shape`` with entry texts ``texts`` (flat, C order) as the
    items of a list that opens after ``newline``.

    Returns ``(head, bodies, tail)``: item i is ``head + bodies[i] + tail``,
    and only the bodies differ.  Each level is grouped by C-level joins,
    innermost first; the separator of a level closes the levels inside it and
    opens them again, so no item is ever wrapped on its own.
    """
    if 0 in shape[1:]:
        return "", itertools.repeat(_empty_text(shape[1:], newline + _STEP), shape[0]), ""
    bodies = iter(texts.tolist())
    head = tail = ""
    for d in range(len(shape) - 1, 0, -1):
        inner = newline + _STEP * (d + 1)
        bodies = map((tail + "," + inner + head).join, zip(*[bodies] * shape[d]))
        head = "[" + inner + head
        tail = tail + inner[:-len(_STEP)] + "]"
    return head, bodies, tail


def _empty_text(shape: tuple, newline: str) -> str:
    """The text of an array of ``shape`` with a zero-length axis."""
    if not shape[0]:
        return "[]"
    inner = newline + _STEP
    return "[" + inner + ("," + inner).join([_empty_text(shape[1:], inner)] * shape[0]) + newline + "]"


class _Keyed:
    """The JSON object ``{names[i]: table[i]}`` of a name-keyed int table,
    laid out from the array in sorted name order; ``order`` selects rows."""

    def __init__(self, names, table: np.ndarray, order: np.ndarray | None = None):
        self.names = np.asarray(names, dtype=object)
        self.table = table
        self.order = np.argsort(self.names, kind="stable") if order is None else order
        self.size = self.order.size * math.prod(table.shape[1:])

    def __len__(self) -> int:
        return self.order.size

    def __getitem__(self, rows: slice) -> "_Keyed":
        return _Keyed(self.names, self.table, self.order[rows])

    def text(self, newline: str) -> str:
        rows = self.table[self.order]
        keys = map(encode_basestring_ascii, self.names[self.order].tolist())
        return _keyed_text(keys, *_array_items(_decimals(rows), rows.shape, newline), newline)


class _Ragged:
    """The JSON list of the non-empty int rows ``flat[starts[i]:starts[i + 1]]``."""

    def __init__(self, flat: np.ndarray, starts: np.ndarray):
        self.flat, self.starts = flat, starts
        self.size = int(starts[-1] - starts[0])

    def __len__(self) -> int:
        return self.starts.size - 1

    def __getitem__(self, rows: slice) -> "_Ragged":
        lo, hi, _ = rows.indices(len(self))
        return _Ragged(self.flat, self.starts[lo:hi + 1])

    def text(self, newline: str) -> str:
        lo = self.starts[0]
        texts = _decimals(self.flat[lo:self.starts[-1]]).tolist()
        bounds = (self.starts - lo).tolist()
        inner = newline + _STEP
        bodies = map(("," + inner + _STEP).join, map(texts.__getitem__, map(slice, bounds[:-1], bounds[1:])))
        return _list_text("[" + inner + _STEP, bodies, inner + "]", newline)


class _Braiding:
    """``verify``'s braiding, the quadruples of :func:`braiding_quadruples`
    with each arrow laid out as ``[vertex name, label]``; built per block of
    source vertices ``lo .. hi - 1``."""

    def __init__(self, bracoid, braiding, lo: int = 0, hi: int | None = None, names=None):
        self.bracoid, self.braiding = bracoid, braiding
        self.lo, self.hi = lo, bracoid.vertex_count if hi is None else hi
        if names is None:
            names = np.array(list(map(encode_basestring_ascii, bracoid.vertex_names)), dtype=object)
        self.names = names
        self.size = (self.hi - self.lo) * bracoid.label_count ** 2 * 8

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, rows: slice) -> "_Braiding":
        lo, hi, _ = rows.indices(len(self))
        return _Braiding(self.bracoid, self.braiding, self.lo + lo, self.lo + hi, self.names)

    def text(self, newline: str) -> str:
        codes = braiding_quadruples(self.bracoid, self.braiding, self.lo, self.hi)
        texts = np.empty(codes.size, dtype=object)
        texts[0::2] = self.names[codes[..., 0].ravel()]
        texts[1::2] = _decimals(codes[..., 1])
        return _list_text(*_array_items(texts, codes.shape, newline), newline)


class _Components:
    """``parallelise --per-component``'s list of structure documents (the
    text of :func:`_dsb_json` of each).  Components that share a group law
    are laid out together, one array pass per law, and sliced per component."""

    def __init__(self, structures):
        self.structures = structures
        self.size = sum(dsb.phi.size + dsb.ops.size for dsb in structures)

    def __len__(self) -> int:
        return len(self.structures)

    def __getitem__(self, rows: slice) -> "_Components":
        return _Components(self.structures[rows])

    def text(self, newline: str) -> str:
        at = newline + _STEP * 2  # where a component's keys start
        texts = [""] * len(self.structures)
        laws: dict[int, list[int]] = {}
        for i, dsb in enumerate(self.structures):
            laws.setdefault(id(dsb.group), []).append(i)
        for law in laws.values():
            group = _layout(_group_json(self.structures[law[0]].group), at)
            phi = np.concatenate([self.structures[i].phi for i in law])
            ops = np.concatenate([self.structures[i].ops for i in law])
            phi_head, phi_bodies, phi_tail = _array_items(_decimals(phi), phi.shape, at)
            ops_head, ops_bodies, ops_tail = _array_items(_decimals(ops), ops.shape, at)
            phi_bodies, ops_bodies = list(phi_bodies), list(ops_bodies)
            start = 0
            for i in law:
                names = self.structures[i].vertex_names
                stop = start + len(names)
                order = sorted(range(len(names)), key=names.__getitem__)
                fields = {
                    "group": group,
                    "ops": _keyed_text(map(encode_basestring_ascii, [names[v] for v in order]), ops_head,
                                       [ops_bodies[start + v] for v in order], ops_tail, at),
                    "phi": _list_text(phi_head, phi_bodies[start:stop], phi_tail, at),
                    "vertices": _layout(names, at),
                }
                texts[i] = _dict_text(sorted(fields.items()), newline + _STEP)
                start = stop
        return _list_text("", texts, "", newline)


def _cells(value) -> int:
    """How many entries ``value`` holds, counting each item of a plain list once."""
    if isinstance(value, dict):
        return sum(map(_cells, value.values()))
    if isinstance(value, (list, tuple)):
        return len(value)
    return getattr(value, "size", 1)


def _write_json(fh, obj, newline: str = "\n") -> None:
    """Write the text of ``obj`` laid out after ``newline`` to ``fh``.

    The bytes are those of ``json.dumps(obj, indent=2, sort_keys=True)`` for
    the lists the arrays and tables stand for.  A dict holding more than
    :data:`_BLOCK_CELLS` cells is written key by key, a longer list, array or
    table in blocks of rows of about that many cells, anything else whole; each
    piece is one ``json.dumps`` call, so the whole document never exists at
    once.  A block is a non-empty value of the same kind, so its text less
    its brackets is a run of the whole's items.
    """
    cells = _cells(obj)
    if cells <= _BLOCK_CELLS:
        fh.write(json.dumps(obj, cls=_IndentedEncoder, newline=newline))
        return
    inner = newline + _STEP
    if isinstance(obj, dict):
        for i, (key, value) in enumerate(sorted(obj.items())):
            fh.write(("," if i else "{") + inner + encode_basestring_ascii(key) + ": ")
            _write_json(fh, value, inner)
        fh.write(newline + "}")
        return
    rows = max(1, _BLOCK_CELLS * len(obj) // cells)
    for lo in range(0, len(obj), rows):
        text = json.dumps(obj[lo:lo + rows], cls=_IndentedEncoder, newline=newline)
        fh.write(text[:-len(newline) - 1] if lo == 0 else "," + inner + text[len(inner) + 1:-len(newline) - 1])
    fh.write(newline + text[-1])


def _emit(text: str, out: str | None) -> None:
    _write(out, lambda fh: fh.write(text))


def _emit_json(obj, out: str | None) -> None:
    def write(fh):
        _write_json(fh, obj)
        fh.write("\n")

    _write(out, write)


def _write(out: str | None, write) -> None:
    """Call ``write`` on the ``--out`` file, or on stdout when there is none.

    Writers stream, so a failure can come after the first bytes; the file is
    then removed rather than left truncated.
    """
    if not out:
        write(sys.stdout)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            try:
                write(fh)
            except BaseException:
                fh.close()
                Path(out).unlink(missing_ok=True)
                raise
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror or exc}") from None


def _group_json(group) -> dict:
    return dict(group_to_json(group), table=np.asarray(group.table))


def _dsb_json(dsb) -> dict:
    """:func:`dsb_to_json` with its tables as arrays."""
    return {
        "group": _group_json(dsb.group),
        "vertices": dsb.vertex_names,
        "phi": dsb.phi,
        "ops": _Keyed(dsb.vertex_names, dsb.ops),
    }


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


def _named(args, group_name: str, full: bool):
    if getattr(args, "seed_examples", False):
        names = seeded_names(group_name, full)
        if not names:
            raise InputError(f"no bundled example family for group {group_name!r}")
        return names
    return None


def _enumeration_json(result: EnumerationResult) -> dict:
    data = _dsb_json(result.dsb)
    data["aut"] = np.array([a.images for a in automorphism_group(result.group)])
    data["assignments"] = result.assignments
    data["unital"] = result.unital_flags
    data["components"] = {
        "members": _Ragged(result.components.order, result.components.starts),
        "degrees": list(result.components.degrees),
    }
    return data


def _cmd_enumerate(args) -> int:
    group = build_group(args.group)
    named = _named(args, group.name, args.full)
    result = (enumerate_full if args.full else enumerate_unital)(group, named, cap=args.cap)
    in_result = initial_counts(group, cap=args.cap) if args.full else None

    if args.json:
        data = _enumeration_json(result)
        if in_result is not None:
            data["initial_counts"] = {str(s): c for s, c in in_result.by_size.items()}
        _emit_json(data, args.out)
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
    table = invariants(group, cap=args.cap)

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
                {"size": s, "representative": np.array(rep, dtype=np.int64),
                 "partition": np.array(profile, dtype=np.int64)}
                for s, rep, profile in table.partitions
            ]
        else:
            data["partitions_omitted"] = table.partitions_omitted
        _emit_json(data, args.out)
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
    dsb = bracoid = braiding = None
    if args.input:
        data = _load_json(args.input)
        if "dot" in data:
            bracoid = bracoid_from_json(data)
        elif "ops" in data:
            dsb = dsb_from_json(data)
        else:
            raise InputError("input JSON is neither a dynamical structure nor a bracoid")
    elif args.group:
        group = build_group(args.group)
        dsb = (enumerate_full if args.full else enumerate_unital)(group, cap=args.cap).dsb
    else:
        raise InputError("verify needs --input or --group")

    # each stage runs only when the one before it passed
    reports = []
    if dsb is not None:
        reports.append(("structure", verify_dsb(dsb)))
        if reports[-1][1].passed:
            reports.append(("computation_rules", verify_computation_rules(dsb)))
            bracoid = semiloopoid_of_dsb(dsb, check=False)
    if bracoid is not None:
        reports.append(("bracoid", verify_bracoid(bracoid)))
        if reports[-1][1].passed:
            braiding = braiding_of_qtsb(bracoid, check=False)
            reports.append(("braiding", verify_braiding(bracoid, braiding)))

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
            payload["braiding"] = _Braiding(bracoid, braiding)
        _emit_json(payload, args.out)
        return 1 if failed else 0

    out_lines = []
    for kind, report in reports:
        out_lines.extend(_report_lines(kind, report))
    _emit("\n".join(out_lines) + "\n", args.out)
    return 1 if failed else 0


def _load_bracoid(path: str):
    """The bracoid of a bracoid file, or the semiloopoid of a structure file."""
    data = _load_json(path)
    if "dot" in data:
        return bracoid_from_json(data)
    if "ops" in data:
        return semiloopoid_of_dsb(dsb_from_json(data))
    raise InputError("input JSON is neither a dynamical structure nor a bracoid")


def _cmd_parallelise(args) -> int:
    bracoid = _load_bracoid(args.input)
    if args.per_component:
        _, structures = parallelise(bracoid)
        _emit_json({"components": _Components(structures)}, args.out)
        return 0

    if args.base is None:
        raise InputError("parallelise needs --base (or --per-component)")
    _, dsb = parallelise(bracoid, args.base)
    _emit_json(_dsb_json(dsb), args.out)
    return 0


def _cmd_heap(args) -> int:
    bracoid = _load_bracoid(args.input)
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
            "table": np.asarray(group.table),
            "isomorphic_to": preset_isomorphism_report(group),
        }

    if args.json:
        payload = {
            "elements": list(heap.names),
            "table": heap.table,
        }
        if pointed is not None:
            payload["pointed"] = pointed
        _emit_json(payload, args.out)
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
        named = _named(args, group.name, args.full)
        result = (enumerate_full if args.full else enumerate_unital)(group, named, cap=args.cap)
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
        p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
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
    except MemoryError:
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
