"""Labelled quivers as one int32 transition array, connectivity, completeness, DOT export.

Every quiver this package produces has one outgoing arrow per (vertex, label)
pair, i.e. it is the quiver of a transition map; quivers with vertex-dependent
out-degree are out of scope.  The map is held once, as the read-only int32
array ``phi`` of shape (vertices, labels): ``phi[v, a]`` is the target of the
arrow with source v and label a.  A plain quiver, a dynamical structure, a
bracoid and an enumerated family each are a :class:`QuiverBase`, which names
the vertices and the labels of its ``phi``, and :func:`validate_phi` is the
one check every constructor and JSON reader passes ``phi`` through (shape,
integer cells, range, unique vertex names).  Components read ``phi`` alone.

Connected components come from one numpy routine: :func:`labels` propagates
minimal vertex indices along arrows in both directions, and
:func:`component_report` numbers the components by their smallest vertex and
checks completeness: a component of s vertices is complete of degree d = n/s
exactly when every member's sorted ``phi`` row changes value every d entries,
the test :func:`uneven_rows` makes for any rows and steps.
The :class:`ComponentReport` is the one layout of components every caller
reads: numpy arrays of the vertices in component order, the component starts,
and each vertex's component and rank, with no per-vertex Python object.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, quote

VERTEX_DTYPE = np.int32
#: Rows of ``phi`` per block of the completeness test of :func:`component_report`.
ROW_BLOCK = 1 << 14


def int_array(data, what: str, shape: tuple[int | None, ...], low: int, high: int, dtype) -> np.ndarray:
    """``data`` as a read-only ``dtype`` array of ``shape`` (None matches any
    length) with integer entries in [low, high); anything else, a bool cell
    included, is an input error."""
    arr = data if isinstance(data, np.ndarray) else _int_nest(data, len(shape), dtype)
    exact = arr is not None
    if not exact:
        try:
            arr = np.asarray(data)
        except ValueError:
            raise InputError(f"{what} is not a rectangular array") from None
    if arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        expected = str(tuple(shape)).replace("None", "*")
        raise InputError(f"{what} has shape {arr.shape}, expected {expected}")
    if arr.size:
        if arr.dtype.kind not in "iu" or not exact and _holds_bool(data, arr.ndim):
            raise InputError(f"{what} entries must be integers")
        if arr.min() < low or arr.max() >= high:
            bad = tuple(int(i) for i in np.argwhere((arr < low) | (arr >= high))[0])
            cell = "".join(f"[{i}]" for i in bad)
            raise InputError(f"{what}{cell} = {arr[bad]} is not in [{low}, {high})")
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _int_nest(data, depth: int, dtype) -> np.ndarray | None:
    """The non-empty rectangular nest of lists ``data``, ``depth`` deep with
    exact int cells that fit ``dtype``, as a ``dtype`` array; None for any
    other input.

    Each level is one pass at C speed, about as fast as ``np.asarray``, which
    would also fold JSON ``true``/``false`` cells into an int array and build
    an int64 temporary.
    """
    shape, cells = [], [data]
    for _ in range(depth):
        lengths = set(map(len, cells)) if set(map(type, cells)) == {list} else ()
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        cells = list(chain.from_iterable(cells))
    if set(map(type, cells)) != {int}:
        return None
    try:
        return np.fromiter(cells, dtype, len(cells)).reshape(shape)
    except OverflowError:
        return None


def _holds_bool(data, depth: int) -> bool:
    """Whether the nested sequences ``data`` hold a bool cell."""
    cells = data
    for _ in range(depth - 1):
        cells = chain.from_iterable(cells)
    return bool in set(map(type, cells))


def name_tuple(names, what: str) -> tuple[str, ...]:
    """A list of string names as a tuple, or an input error."""
    if not isinstance(names, (list, tuple)):
        raise InputError(f"{what} must be a list of names")
    if not all(map(isinstance, names, repeat(str))):
        k, v = next((k, v) for k, v in enumerate(names) if not isinstance(v, str))
        raise InputError(f"{what}[{k}] = {quote(v)} is not a string")
    return tuple(names)


def distinct_names(names: tuple[str, ...], kind: str) -> tuple[str, ...]:
    """``names``, or an input error naming the first name listed twice."""
    if len(set(names)) != len(names):
        dup = next(v for v, count in Counter(names).items() if count > 1)
        raise InputError(f"duplicate {kind} name {quote(dup)}")
    return names


def validate_phi(vertices, phi, label_count: int | None = None) -> tuple[tuple[str, ...], np.ndarray]:
    """Unique vertex names and the read-only int32 ``(L, n)`` transition array.

    Rejects, as input errors, an empty or duplicated vertex list, a ragged or
    non-integer ``phi``, a row count other than L, a column count other than
    ``label_count`` (when given) and a target outside the vertex set.
    """
    names = name_tuple(vertices, "vertices")
    if not names:
        raise InputError("a quiver needs at least one vertex")
    distinct_names(names, "vertex")
    phi = int_array(phi, "phi", (len(names), label_count), 0, len(names), VERTEX_DTYPE)
    if phi.shape[1] == 0:
        raise InputError("a quiver needs at least one label")
    return names, phi


def restrict_phi(phi: np.ndarray, members: Sequence[int]) -> np.ndarray:
    """The rows of ``members`` with targets re-indexed to positions in ``members``.

    An arrow leaving the member set maps to -1, which :func:`validate_phi`
    rejects.
    """
    members = np.asarray(members, dtype=np.intp)
    remap = np.full(phi.shape[0], -1, dtype=VERTEX_DTYPE)
    remap[members] = np.arange(members.size, dtype=VERTEX_DTYPE)
    return remap[phi[members]]


class QuiverBase:
    """Vertex names, label names and the transition array ``phi``: the labelled
    quiver that plain quivers, dynamical structures, bracoids and enumerated
    families each are.

    The name-to-index lookup is built once, on first use.
    """

    vertex_names: tuple[str, ...]
    label_names: tuple[str, ...]
    phi: np.ndarray

    @property
    def vertex_count(self) -> int:
        return self.phi.shape[0]

    @property
    def label_count(self) -> int:
        return self.phi.shape[1]

    @cached_property
    def _index_of_name(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertex_names)}

    def vertex_index(self, name: str) -> int:
        try:
            return self._index_of_name[name]
        except KeyError:
            raise InputError(f"unknown vertex {quote(name)}") from None


@dataclass(frozen=True, eq=False)
class LabelledQuiver(QuiverBase):
    """Vertices, labels, and the transition map phi as a vertex-by-label array.

    The arrow with source ``v`` and label ``a`` has target ``phi[v, a]``.
    """

    vertex_names: tuple[str, ...]
    label_names: tuple[str, ...]
    phi: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabelledQuiver)
            and (self.vertex_names, self.label_names) == (other.vertex_names, other.label_names)
            and np.array_equal(self.phi, other.phi)
        )


@dataclass(frozen=True, eq=False)
class ComponentReport:
    """Undirected-connectivity partition with per-component completeness data.

    ``order`` lists the vertices component by component, each component in
    increasing order, and component c is ``order[starts[c]:starts[c + 1]]``;
    ``component_of[v]`` is v's component and ``rank[v]`` its position there.
    The four are read-only intp arrays; ``degrees`` holds, per component, its
    degree if it is complete and None otherwise.
    """

    component_of: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    rank: np.ndarray
    degrees: tuple[int | None, ...]

    @property
    def count(self) -> int:
        return self.starts.size - 1

    def sizes(self) -> tuple[int, ...]:
        return tuple(np.diff(self.starts).tolist())

    @cached_property
    def members(self) -> list[np.ndarray]:
        """Each component's vertices, as views of ``order``."""
        return np.split(self.order, self.starts[1:-1])


def quiver_of_dynamical_set(
    vertices: Sequence[str],
    labels: Sequence[str],
    phi,
) -> LabelledQuiver:
    """Wrap a total transition map as a labelled quiver, validated."""
    labels = distinct_names(name_tuple(labels, "labels"), "label")
    names, phi = validate_phi(vertices, phi, len(labels))
    return LabelledQuiver(vertex_names=names, label_names=labels, phi=phi)


def labels(phi: np.ndarray) -> np.ndarray:
    """Per-vertex component label: the smallest vertex of its undirected component.

    Each round pulls the minimum over a vertex's targets, pushes each label
    to the vertex's targets, then shortcuts ``lab = lab[lab]``; it stops when
    a round changes nothing, which needs every arrow to join equal labels.
    """
    lab = np.arange(phi.shape[0], dtype=VERTEX_DTYPE)
    while True:
        new = np.minimum(lab, lab[phi].min(axis=1))
        np.minimum.at(new, phi, new[:, None])
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def uneven_rows(rows: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Per row of the ``(m, n)`` array ``rows``, whether its sorted entries fail
    to change value exactly every ``step`` entries, that is to take n/step
    values step times each; a step of 0 marks its row uneven."""
    n = rows.shape[1]
    ordered = np.sort(rows, axis=1)
    changes = ordered[:, 1:] != ordered[:, :-1]
    # divides[d, j]: whether d divides j + 1 (row 0, for rows with no step, is row 1)
    divides = np.arange(1, n) % np.maximum(np.arange(n + 1), 1)[:, None] == 0
    changes ^= divides[step]
    return (step == 0) | changes.any(axis=1)


def component_report(phi: np.ndarray, labels: np.ndarray) -> ComponentReport:
    """Components of ``phi`` numbered by smallest vertex, with completeness checked.

    ``labels[v]`` must be the smallest vertex of v's component, as
    :func:`labels` returns.  A component of s vertices has degree d when each
    member sends exactly d arrows to every member, so d = n/s, which holds
    exactly when none of its rows is uneven with step d; otherwise its degree
    is None.
    """
    nv, n = phi.shape
    _, component_of, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(component_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    rank = np.empty(nv, dtype=np.intp)
    rank[order] = np.arange(nv) - starts[component_of[order]]

    step = np.where(n % sizes == 0, n // sizes, 0)
    complete = np.ones(sizes.size, dtype=bool)
    for lo in range(0, nv, ROW_BLOCK):
        comps = component_of[lo:lo + ROW_BLOCK]
        complete[comps[uneven_rows(phi[lo:lo + ROW_BLOCK], step[comps])]] = False

    for arr in (component_of, order, starts, rank):
        arr.setflags(write=False)
    return ComponentReport(
        component_of=component_of,
        order=order,
        starts=starts,
        rank=rank,
        degrees=tuple(d if ok else None for d, ok in zip(step.tolist(), complete.tolist())),
    )


def connected_components(phi: np.ndarray) -> ComponentReport:
    """Undirected connectivity of ``phi``; components numbered by smallest member vertex."""
    return component_report(phi, labels(phi))


def homogeneous_weight(report: ComponentReport) -> int | None:
    """The weight n when every component is complete with degree * size == n, else None."""
    weights = {None if d is None else d * size for d, size in zip(report.degrees, report.sizes())}
    return weights.pop() if len(weights) == 1 else None


def export_dot(quiver: QuiverBase, collapse_labels: bool = False) -> str:
    """Deterministic DOT text; byte-identical across runs for identical input.

    Collapsed, each ordered (source, target) pair with arrows gets one edge
    labelled with its number of parallel arrows.
    """
    names = quiver.vertex_names
    lines = ["digraph quiver {"]
    lines.extend(f'  "{v}";' for v in names)
    if collapse_labels:
        nv = quiver.vertex_count
        sources = np.repeat(np.arange(nv, dtype=np.int64), quiver.label_count)
        pairs, counts = np.unique(sources * nv + quiver.phi.ravel(), return_counts=True)
        for p, k in zip(pairs.tolist(), counts.tolist()):
            lines.append(f'  "{names[p // nv]}" -> "{names[p % nv]}" [label="×{k}"];')
    else:
        for v, row in enumerate(quiver.phi.tolist()):
            for a, w in enumerate(row):
                lines.append(f'  "{names[v]}" -> "{names[w]}" [label="{quiver.label_names[a]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def quiver_from_json(data: Mapping) -> LabelledQuiver:
    for key in ("vertices", "labels", "phi"):
        if key not in data:
            raise InputError(f"quiver JSON needs a {key!r} key")
    return quiver_of_dynamical_set(data["vertices"], data["labels"], data["phi"])
