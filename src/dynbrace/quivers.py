"""Labelled quivers as one int32 transition array, connectivity, completeness, DOT export.

Every quiver this package produces has one outgoing arrow per (vertex, label)
pair, i.e. it is the quiver of a transition map; quivers with vertex-dependent
out-degree are out of scope.  The map is held once, as the read-only int32
array ``phi`` of shape (vertices, labels): ``phi[v, a]`` is the target of the
arrow with source v and label a.  The same array is the ``phi`` of the
dynamical structures and bracoids built on the quiver, and
:func:`validate_phi` is the one check every constructor and JSON reader
passes it through (shape, integer cells, range, unique vertex names).

Connected components come from one numpy routine: :func:`labels` propagates
minimal vertex indices along arrows in both directions, and
:func:`component_report` numbers the components by their smallest vertex and
checks completeness: a component of s vertices is complete of degree d = n/s
exactly when every member's sorted ``phi`` row changes value every d entries.
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

from .errors import InputError

VERTEX_DTYPE = np.int32


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
        raise InputError(f"{what} has shape {arr.shape}, expected {shape}")
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
        raise InputError(f"{what}[{k}] = {v!r} is not a string")
    return tuple(names)


def validate_phi(vertices, phi, label_count: int | None = None) -> tuple[tuple[str, ...], np.ndarray]:
    """Unique vertex names and the read-only int32 ``(L, n)`` transition array.

    Rejects, as input errors, an empty or duplicated vertex list, a ragged or
    non-integer ``phi``, a row count other than L, a column count other than
    ``label_count`` (when given) and a target outside the vertex set.
    """
    names = name_tuple(vertices, "vertices")
    if not names:
        raise InputError("a quiver needs at least one vertex")
    if len(set(names)) != len(names):
        dup = next(v for v, count in Counter(names).items() if count > 1)
        raise InputError(f"duplicate vertex name {dup!r}")
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
    """Vertex names and the transition array ``phi``, the part of a quiver that
    labelled quivers, dynamical structures and bracoids share.

    The name-to-index lookup is built once, on first use.
    """

    vertex_names: tuple[str, ...]
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
            raise InputError(f"unknown vertex {name!r}") from None


@dataclass(frozen=True, eq=False)
class LabelledQuiver(QuiverBase):
    """Vertices, labels, and the transition map phi as a vertex-by-label array.

    The arrow with source ``v`` and label ``a`` has target ``phi[v, a]``.
    """

    vertices: tuple[str, ...]
    labels: tuple[str, ...]
    phi: np.ndarray

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return self.vertices

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabelledQuiver)
            and (self.vertices, self.labels) == (other.vertices, other.labels)
            and np.array_equal(self.phi, other.phi)
        )

    @property
    def arrow_count(self) -> int:
        return self.phi.size

    def arrow_counts(self) -> dict[tuple[int, int], int]:
        """Number of parallel arrows per ordered (source, target) pair."""
        nv = self.vertex_count
        sources = np.repeat(np.arange(nv, dtype=np.int64), self.label_count)
        pairs, counts = np.unique(sources * nv + self.phi.ravel(), return_counts=True)
        return {(p // nv, p % nv): c for p, c in zip(pairs.tolist(), counts.tolist())}


@dataclass(frozen=True, eq=False)
class ComponentReport:
    """Undirected-connectivity partition with per-component completeness data.

    ``order`` lists the vertices component by component, each component in
    increasing order, and component c is ``order[starts[c]:starts[c + 1]]``;
    ``component_of[v]`` is v's component and ``rank[v]`` its position there.
    The four are read-only intp arrays; ``degrees`` and ``witnesses`` hold one
    entry per component.
    """

    component_of: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    rank: np.ndarray
    degrees: tuple[int | None, ...]
    witnesses: tuple[tuple[int, int] | None, ...]

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
    labels = name_tuple(labels, "labels")
    names, phi = validate_phi(vertices, phi, len(labels))
    return LabelledQuiver(vertices=names, labels=labels, phi=phi)


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


def component_report(phi: np.ndarray, labels: np.ndarray) -> ComponentReport:
    """Components of ``phi`` numbered by smallest vertex, with completeness checked.

    ``labels[v]`` must be the smallest vertex of v's component, as
    :func:`labels` returns.  A component of s vertices has degree d when each
    member sends exactly d arrows to every member, so d = n/s; otherwise its
    degree is None and its witness is the first (source, target) pair, in
    member order, whose arrow count differs from the first member's count of
    arrows to its label-0 target.
    """
    nv, n = phi.shape
    roots, component_of, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(component_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    rank = np.empty(nv, dtype=np.intp)
    rank[order] = np.arange(nv) - starts[component_of[order]]

    size_of = sizes[component_of]
    step = np.where(n % size_of == 0, n // size_of, 0)
    sorted_rows = np.sort(phi, axis=1)
    changes = sorted_rows[:, 1:] != sorted_rows[:, :-1]
    # divides[d, j]: whether d divides j + 1 (row 0, for rows with no step, is row 1)
    divides = np.arange(1, n) % np.maximum(np.arange(n + 1), 1)[:, None] == 0
    changes ^= divides[step]
    bad_row = (step == 0) | changes.any(axis=1)

    bad_vertices = np.flatnonzero(bad_row)
    failing, first = np.unique(component_of[bad_vertices], return_index=True)
    source = bad_vertices[first]
    lead = roots[failing]
    reference = (phi[lead] == phi[lead, :1]).sum(axis=1)
    # the first deviating member has rank <= n: each earlier rank takes >= 1 arrow
    per_rank = (rank[phi[source]][:, :, None] == np.arange(n + 1)).sum(axis=1)
    target = order[starts[failing] + np.argmax(per_rank != reference[:, None], axis=1)]
    witnesses: list[tuple[int, int] | None] = [None] * roots.size
    for c, v, w in zip(failing.tolist(), source.tolist(), target.tolist()):
        witnesses[c] = (v, w)

    for arr in (component_of, order, starts, rank):
        arr.setflags(write=False)
    return ComponentReport(
        component_of=component_of,
        order=order,
        starts=starts,
        rank=rank,
        degrees=tuple(None if w else n // s for s, w in zip(sizes.tolist(), witnesses)),
        witnesses=tuple(witnesses),
    )


def connected_components(quiver: LabelledQuiver) -> ComponentReport:
    """Undirected connectivity; components numbered by smallest member vertex."""
    return component_report(quiver.phi, labels(quiver.phi))


@dataclass(frozen=True)
class HomogeneityResult:
    weight: int | None
    failing_component: int | None

    @property
    def is_homogeneous(self) -> bool:
        return self.weight is not None


def is_homogeneous(quiver: LabelledQuiver, report: ComponentReport | None = None) -> HomogeneityResult:
    """Weight n if every component is complete with degree*size == n, else the failure."""
    if report is None:
        report = connected_components(quiver)
    weight = None
    for cid, (d, size) in enumerate(zip(report.degrees, report.sizes())):
        if d is None:
            return HomogeneityResult(None, cid)
        w = d * size
        if weight is None:
            weight = w
        elif w != weight:
            return HomogeneityResult(None, cid)
    return HomogeneityResult(weight, None)


def export_dot(quiver: LabelledQuiver, collapse_labels: bool = False, name: str = "quiver") -> str:
    """Deterministic DOT text; byte-identical across runs for identical input."""
    lines = [f"digraph {name} {{"]
    for v in quiver.vertices:
        lines.append(f'  "{v}";')
    if collapse_labels:
        counts = quiver.arrow_counts()
        for (v, w), k in sorted(counts.items()):
            lines.append(
                f'  "{quiver.vertices[v]}" -> "{quiver.vertices[w]}" [label="×{k}"];'
            )
    else:
        for v, row in enumerate(quiver.phi.tolist()):
            for a, w in enumerate(row):
                lines.append(
                    f'  "{quiver.vertices[v]}" -> "{quiver.vertices[w]}" '
                    f'[label="{quiver.labels[a]}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def quiver_to_json(quiver: LabelledQuiver) -> dict:
    return {
        "vertices": list(quiver.vertices),
        "labels": list(quiver.labels),
        "phi": quiver.phi.tolist(),
    }


def quiver_from_json(data: Mapping) -> LabelledQuiver:
    for key in ("vertices", "labels", "phi"):
        if key not in data:
            raise InputError(f"quiver JSON needs a {key!r} key")
    return quiver_of_dynamical_set(data["vertices"], data["labels"], data["phi"])
