"""Fuzzing the JSON boundary: malformed input exits 2, and no input gives a traceback.

Each example mutates one valid cyclic:3 file once and runs ``verify``,
``export-dot`` and ``parallelise --per-component`` on it.  The files are the
one written by ``enumerate --group cyclic:3 --json`` and the bracoid of the same
family.  A mutation of what the loaders read is malformed input, and so is a
vertex or label name that is not a string; a mutation of free text (group
names, label names that stay strings), of a key no loader reads, or the
removal of one bracoid unit leaves the input well-formed.
"""
import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from dynbrace.cli import main

COMMANDS = {
    "verify": ("verify", "--input", "{src}"),
    "export-dot": ("export-dot", "--input", "{src}"),
    "parallelise": ("parallelise", "--input", "{src}", "--per-component", "--out", "{dst}"),
}
READ_KEYS = ("vertices", "phi", "ops", "dot")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _paths(node, path=()):
    """Every (path, node) of a JSON tree, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _retyped(value):
    retypes = [str(value) + "?", (value + 0.5) if isinstance(value, int) else 1.5, [value], None]
    return retypes + [True] if isinstance(value, str) else retypes


@st.composite
def mutants(draw, doc):
    """(mutated document, kind of mutation, the path it changed)."""
    doc = copy.deepcopy(doc)
    nodes = list(_paths(doc))
    kind = draw(st.sampled_from(["drop", "retype", "reshape", "duplicate", "top-list"]))
    if kind == "drop":
        path = draw(st.sampled_from([p for p, node in nodes if isinstance(node, dict) and node]))
        key = draw(st.sampled_from(sorted(_at(doc, path))))
        del _at(doc, path)[key]
        return doc, kind, path + (key,)
    if kind == "retype":
        path = draw(st.sampled_from([p for p, node in nodes if not isinstance(node, (dict, list))]))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(_retyped(_at(doc, path))))
        return doc, kind, path
    if kind == "reshape":
        row = draw(st.integers(0, len(doc["phi"]) - 1))
        if draw(st.booleans()):
            doc["phi"][row].append(0)
        else:
            doc["phi"][row].pop()
        return doc, kind, ("phi", row)
    if kind == "duplicate":
        i, j = draw(st.lists(st.integers(0, len(doc["vertices"]) - 1), min_size=2, max_size=2, unique=True))
        doc["vertices"][i] = doc["vertices"][j]
        return doc, kind, ("vertices", i)
    return list(doc.values()), kind, ()


def _verdict(document, command, kind, path, value) -> str:
    """"malformed", "unread" (output unchanged), "non-unital" or "well-formed";
    ``value`` is what a retype left at ``path``."""
    if document == "bracoid" and command == "export-dot" and path == ("ops",):
        return "well-formed"  # labels and no ops: read as a plain quiver
    if not path or path[0] in READ_KEYS:
        return "malformed"
    if path[0] == "group":
        return "malformed" if len(path) == 1 or path[1] == "table" else "well-formed"
    if path[0] == "units":
        return "non-unital" if kind == "drop" and len(path) == 2 else "malformed"
    if path[0] == "labels":
        return "malformed" if kind == "retype" and not isinstance(value, str) else "well-formed"
    return "unread"


def _outputs(tmp, doc):
    src, dst = tmp / "in.json", tmp / "out.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    results = {}
    for name, template in COMMANDS.items():
        dst.unlink(missing_ok=True)
        code, out, err = _run([a.format(src=src, dst=dst) for a in template])
        results[name] = (code, out, err, dst.read_text(encoding="utf-8") if dst.exists() else None)
    return results


@pytest.fixture(scope="module")
def workdirs(tmp_path_factory):
    from dynbrace.structures import bracoid_to_json, dsb_from_json, semiloopoid_of_dsb

    code, out, _ = _run(["enumerate", "--group", "cyclic:3", "--json"])
    assert code == 0
    dsb = json.loads(out)
    docs = {"dsb": dsb, "bracoid": bracoid_to_json(semiloopoid_of_dsb(dsb_from_json(dsb)))}
    dirs = {}
    for document, doc in docs.items():
        tmp = tmp_path_factory.mktemp(document)
        dirs[document] = tmp, doc, _outputs(tmp, doc)
    return dirs


@pytest.mark.parametrize("document", ["dsb", "bracoid"])
def test_fuzz_base_document_passes(workdirs, document):
    _, _, base = workdirs[document]
    assert all(code == 0 for code, *_ in base.values())


@pytest.mark.parametrize("document", ["dsb", "bracoid"])
@settings(max_examples=100)
@given(data=st.data())
def test_mutated_json(workdirs, document, data):
    tmp, doc, base = workdirs[document]
    mutant, kind, path = data.draw(mutants(doc))
    value = _at(mutant, path) if kind == "retype" else None
    for name, (code, out, err, written) in _outputs(tmp, mutant).items():
        verdict = _verdict(document, name, kind, path, value)
        assert "Traceback" not in err, (name, path, err)
        if verdict == "malformed":
            assert code == 2 and err.startswith("error:"), (name, path, code, err)
            assert out == "" and written is None, (name, path)
        elif verdict == "non-unital" and name == "parallelise" and code == 2:
            # a vertex without a unit is initial, which parallelise refuses
            assert "is initial" in err, (name, path, err)
        else:
            assert code in (0, 1), (name, path, code, err)
        if verdict == "unread":
            assert (code, out, err, written) == base[name], (name, path)
