"""Command-line surface: enumerate, invariants, verify, parallelise, heap, export-dot.

Exit codes: 0 success, 1 verification or assertion failure (witness on stderr),
2 input error, 3 resource-cap error (running out of memory included).
Identical inputs produce byte-identical outputs: JSON is emitted with sorted
keys and fixed formatting, tables carry no timestamps or addresses.

A JSON document has the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``
of its plain-list form, but its tables are laid out straight from the numpy
arrays: numbers come from a bounded table of decimal strings
(:func:`_decimals`), and an array's levels are grouped by C-level joins
(:func:`_array_items`).  A table that is more than one array (the name-keyed
``ops``, the ragged component members, the braiding, the per-component
documents) is one :class:`_Rows`, whose layout gives the text of any range
of its items.  A document larger than one block is written key by key and
its long tables block by block, so neither the whole text nor a list copy of
a table is ever built.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
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
from .errors import InputError, ResourceCapError, quote
from .families import seeded_names
from .groups import (
    automorphism_group,
    build_group,
    group_to_json,
    preset_isomorphism_report,
)
from .holomorph import DEFAULT_CAP, holomorph
from .parallelise import (
    group_from_pointed_heap,
    parallelise,
    ternary_of_braiding,
)
from .quivers import (
    connected_components,
    export_dot,
    homogeneous_weight,
    quiver_from_json,
)
from .structures import (
    SkewBracoid,
    braiding_of_qtsb,
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
    arrays are laid out by :func:`_array_items` and a :class:`_Rows` table by
    its own layout.  Keys must be strings.  ``newline`` starts the line
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
    if isinstance(o, _Rows):
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


class _Rows:
    """A JSON list or object of ``count`` rows, laid out from arrays by
    ``layout(lo, hi, newline)``: the text of rows lo .. hi - 1 alone.  A row
    is one item, or for the braiding the items of one source vertex.
    ``cells`` counts the whole table's entries, by which the writer sizes
    its blocks; a slice is a window of rows on the same layout and has no
    cell count (its ``size`` is None)."""

    def __init__(self, count: int, cells: int | None, layout, start: int = 0):
        self.count, self.size, self.layout, self.start = count, cells, layout, start

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, rows: slice) -> "_Rows":
        lo, hi, _ = rows.indices(self.count)
        return _Rows(hi - lo, None, self.layout, self.start + lo)

    def text(self, newline: str) -> str:
        return self.layout(self.start, self.start + self.count, newline)


def _keyed(names, table: np.ndarray) -> _Rows:
    """The JSON object ``{names[i]: table[i]}`` of a name-keyed int table,
    laid out from the array in sorted name order."""
    names = np.asarray(names, dtype=object)
    order = np.argsort(names, kind="stable")

    def layout(lo: int, hi: int, newline: str) -> str:
        rows = table[order[lo:hi]]
        keys = map(encode_basestring_ascii, names[order[lo:hi]].tolist())
        return _keyed_text(keys, *_array_items(_decimals(rows), rows.shape, newline), newline)

    return _Rows(order.size, table.size, layout)


def _ragged(flat: np.ndarray, starts: np.ndarray) -> _Rows:
    """The JSON list of the non-empty int rows ``flat[starts[i]:starts[i + 1]]``."""

    def layout(lo: int, hi: int, newline: str) -> str:
        texts = _decimals(flat[starts[lo]:starts[hi]]).tolist()
        bounds = (starts[lo:hi + 1] - starts[lo]).tolist()
        inner = newline + _STEP
        bodies = map(("," + inner + _STEP).join, map(texts.__getitem__, map(slice, bounds[:-1], bounds[1:])))
        return _list_text("[" + inner + _STEP, bodies, inner + "]", newline)

    return _Rows(starts.size - 1, int(starts[-1] - starts[0]), layout)


def _braiding(bracoid, braiding) -> _Rows:
    """``verify``'s braiding: one quadruple [x, y, x->y, x<-y] per composable
    pair, each arrow laid out as ``[vertex name, label]``, ordered by source
    vertex and the labels of x and y; a block is a range of source vertices."""
    phi = bracoid.phi
    n = phi.shape[1]
    names = np.array(list(map(encode_basestring_ascii, bracoid.vertex_names)), dtype=object)

    def layout(lo: int, hi: int, newline: str) -> str:
        m = hi - lo
        right, left = braiding.right[lo:hi], braiding.left[lo:hi]
        codes = np.empty((m, n, n, 4, 2), dtype=np.intp)  # [.., arrow, (vertex, label)]
        codes[..., 0, 0] = codes[..., 2, 0] = np.arange(lo, hi)[:, None, None]
        codes[..., 0, 1] = np.arange(n)[:, None]
        codes[..., 1, 0] = phi[lo:hi, :, None]
        codes[..., 1, 1] = np.arange(n)
        codes[..., 2, 1] = right
        codes[..., 3, 0] = np.take_along_axis(phi[lo:hi], right.reshape(m, n * n), axis=1).reshape(m, n, n)
        codes[..., 3, 1] = left
        codes = codes.reshape(m * n * n, 4, 2)
        texts = np.empty(codes.size, dtype=object)
        texts[0::2] = names[codes[..., 0].ravel()]
        texts[1::2] = _decimals(codes[..., 1])
        return _list_text(*_array_items(texts, codes.shape, newline), newline)

    return _Rows(phi.shape[0], phi.shape[0] * n * n * 8, layout)


def _components(structures) -> _Rows:
    """``parallelise --per-component``'s list of structure documents (the
    text of :func:`_dsb_json` of each).  Components that share a group law
    are laid out together, one array pass per law, and sliced per component."""

    def layout(lo: int, hi: int, newline: str) -> str:
        block = structures[lo:hi]
        at = newline + _STEP * 2  # where a component's keys start
        texts = [""] * len(block)
        laws: dict[int, list[int]] = {}
        for i, dsb in enumerate(block):
            laws.setdefault(id(dsb.group), []).append(i)
        for law in laws.values():
            group = _layout(group_to_json(block[law[0]].group), at)
            phi = np.concatenate([block[i].phi for i in law])
            ops = np.concatenate([block[i].ops for i in law])
            phi_head, phi_bodies, phi_tail = _array_items(_decimals(phi), phi.shape, at)
            ops_head, ops_bodies, ops_tail = _array_items(_decimals(ops), ops.shape, at)
            phi_bodies, ops_bodies = list(phi_bodies), list(ops_bodies)
            start = 0
            for i in law:
                names = block[i].vertex_names
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

    return _Rows(len(structures), sum(dsb.phi.size + dsb.ops.size for dsb in structures), layout)


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
    if out is None:
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


def _dsb_json(dsb) -> dict:
    """The structure document read by :func:`dsb_from_json`, its tables as arrays."""
    return {
        "group": group_to_json(dsb.group),
        "vertices": dsb.vertex_names,
        "phi": dsb.phi,
        "ops": _keyed(dsb.vertex_names, dsb.ops),
    }


def _load_json(path: str):
    collecting = gc.isenabled()
    gc.disable()  # the decode only allocates, so a collection on the way frees nothing
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise InputError(f"invalid JSON in {path}: nested too deeply") from None
    finally:
        if collecting:
            gc.enable()
    if not isinstance(data, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return data


def _load_structure(data: dict, what: str = "input JSON is neither a dynamical structure nor a bracoid"):
    """The bracoid of a document with a ``dot`` table, else the dynamical
    structure of one with ``ops``; any other document is an input error ``what``."""
    if "dot" in data:
        return bracoid_from_json(data)
    if "ops" in data:
        return dsb_from_json(data)
    raise InputError(what)


def _family(args) -> EnumerationResult:
    """The ``--full`` or unital family of ``--group``, with the bundled names
    when ``--seed-examples`` asks for them."""
    group = build_group(args.group)
    named = None
    if getattr(args, "seed_examples", False):
        named = seeded_names(group.name, args.full)
        if not named:
            raise InputError(f"no bundled example family for group {quote(group.name)}")
    return (enumerate_full if args.full else enumerate_unital)(group, named, cap=args.cap or DEFAULT_CAP)


def _enumeration_json(result: EnumerationResult) -> dict:
    data = _dsb_json(result.dsb)
    data["aut"] = holomorph(result.group).act
    data["assignments"] = result.assignments
    data["unital"] = result.unital_flags
    data["components"] = {
        "members": _ragged(result.components.order, result.components.starts),
        "degrees": list(result.components.degrees),
    }
    return data


def _cmd_enumerate(args) -> int:
    result = _family(args)
    group = result.group
    in_result = initial_counts(result) if args.full else None

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
    weight = homogeneous_weight(result.components)
    if weight is not None:
        lines.append(f"homogeneous of weight {weight}")
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
    table = invariants(group, cap=args.cap or DEFAULT_CAP)

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
    if args.input is not None:
        structure = _load_structure(_load_json(args.input))
        if isinstance(structure, SkewBracoid):
            bracoid = structure
        else:
            dsb = structure
    else:
        dsb = _family(args).dsb

    # each stage runs only when the one before it passed
    reports = []
    if dsb is not None:
        reports.append(("structure", verify_dsb(dsb)))
        if reports[-1][1].passed:
            reports.append(("computation_rules", verify_computation_rules(dsb)))
            bracoid = semiloopoid_of_dsb(dsb)
    if bracoid is not None:
        reports.append(("bracoid", verify_bracoid(bracoid)))
        if reports[-1][1].passed:
            braiding = braiding_of_qtsb(bracoid)
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
            payload["braiding"] = _braiding(bracoid, braiding)
        _emit_json(payload, args.out)
        return 1 if failed else 0

    out_lines = []
    for kind, report in reports:
        out_lines.extend(_report_lines(kind, report))
    _emit("\n".join(out_lines) + "\n", args.out)
    return 1 if failed else 0


def _load_bracoid(path: str):
    """The bracoid of a bracoid file, or the semiloopoid of a verified structure file."""
    structure = _load_structure(_load_json(path))
    if isinstance(structure, SkewBracoid):
        return structure
    verify_dsb(structure).require("not a dynamical skew brace")
    return semiloopoid_of_dsb(structure)


def _cmd_parallelise(args) -> int:
    bracoid = _load_bracoid(args.input)
    if args.per_component:
        _, structures = parallelise(bracoid)
        _emit_json({"components": _components(structures)}, args.out)
        return 0

    _, (dsb,) = parallelise(bracoid, args.base)
    _emit_json(_dsb_json(dsb), args.out)
    return 0


def _cmd_heap(args) -> int:
    bracoid = _load_bracoid(args.input)
    report = connected_components(bracoid.phi)
    if report.count > 1:
        if args.point is None:
            raise InputError(
                "input is disconnected; pass --point to choose the component to use"
            )
        vertex = bracoid.vertex_index(args.point)
        bracoid = restrict_bracoid(bracoid, report.members[report.component_of[vertex]])
    verify_bracoid(bracoid).require("not a skew bracoid")
    braiding = braiding_of_qtsb(bracoid)
    heap = ternary_of_braiding(bracoid, braiding)

    pointed = None
    if args.point is not None:
        group = group_from_pointed_heap(heap, args.point)
        pointed = {
            "base": args.point,
            "identity": group.identity,
            "table": group.table,
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
    if args.input is not None:
        data = _load_json(args.input)
        if "labels" in data and "ops" not in data:
            quiver = quiver_from_json(data)
        else:
            quiver = _load_structure(data, "input JSON does not describe a quiver")
    else:
        quiver = _family(args)
    _emit(export_dot(quiver, collapse_labels=args.collapse_labels), args.out)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {quote(text)}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynbrace",
        description="enumerate, verify and transform braided structures over finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group_opt=True, input_opt=False):
        # one source is required: the option itself, or one of the exclusive pair
        either = group_opt and input_opt
        source = p.add_mutually_exclusive_group(required=True) if either else p
        if group_opt:
            source.add_argument("--group", required=not either,
                                help="group preset, e.g. cyclic:4 or prod:cyclic:2,cyclic:2")
        if input_opt:
            source.add_argument("--input", type=_path, required=not either, help="input JSON path")
        p.add_argument("--out", type=_path, help="output path (default stdout)")
        if group_opt:  # only the commands that enumerate read a cap
            p.add_argument("--cap", type=_positive_int, help="enumeration size cap (default 10^8)")
        if either:  # main refuses the --group flags on an --input run, which would ignore them
            p.set_defaults(usage_error=p.error)

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
    base = p.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", help="base vertex name")
    base.add_argument("--per-component", action="store_true",
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
    if getattr(args, "input", None) is not None:
        for flag in ("--full", "--seed-examples", "--cap"):
            if getattr(args, flag[2:].replace("-", "_"), None):
                args.usage_error(f"argument {flag}: not allowed with argument --input")
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
