"""Dynamical skew braces, bracoid structure on their quivers, and braidings.

The verification suite is exhaustive and vectorised: every axiom is checked on
all (composable) tuples, one block of vertices at a time, and the first
counterexample per failed axiom is reported with a full witness (vertex,
labels, both sides), so the suite doubles as a table-checking tool.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, quote
from .groups import LABEL_DTYPE, FiniteGroup, _frozen, _inverse_rows, group_from_json
from .holomorph import holomorph
from .quivers import (
    VERTEX_DTYPE,
    QuiverBase,
    distinct_names,
    int_array,
    name_tuple,
    restrict_phi,
    validate_phi,
)


# ---------------------------------------------------------------------------
# check reports


@dataclass(frozen=True)
class Check:
    """Outcome of one axiom check; informational checks never fail a report."""

    name: str
    passed: bool
    required: bool = True
    witness: Mapping | None = None

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        parts = [f"{status} {self.name}"]
        if self.witness:
            for key, value in self.witness.items():
                parts.append(f"{key}={value}")
        return " ".join(parts)


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if c.required and not c.passed)

    def require(self, what: str, error: type[Exception] = InputError) -> None:
        """Raise ``error`` naming every failed required check, unless the report passed."""
        if not self.passed:
            raise error(f"{what}: " + "; ".join(c.line() for c in self.failures()))

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _witness(names: Sequence[str], idx, lhs=None, rhs=None, **extra) -> dict:
    w: dict = {"vertex": names[int(idx[0])], "labels": tuple(int(v) for v in idx[1:])}
    if lhs is not None:
        w["lhs"] = int(lhs)
    if rhs is not None:
        w["rhs"] = int(rhs)
    w.update(extra)
    return w


# ---------------------------------------------------------------------------
# the axiom driver
#
# An axiom is a function of a vertex block [s, t) that returns ``(ok, lhs,
# rhs)``: ``ok[lam - s, a, b, c]`` says whether the identity holds on the
# tuple, and ``lhs``/``rhs`` are its two sides (or None when the witness
# does not print them).  Neighbour data is gathered through the whole tables
# by :func:`_take`, so a block only ever allocates block-sized arrays.

# Cells per block: an axiom of rank r (vertex x label^(r-1) tuples) gets
# blocks of BLOCK_CELLS // n**(r-1) vertices, at least one, so the temporaries
# of a check are O(BLOCK_CELLS) whatever the number of vertices.
BLOCK_CELLS = 1 << 17


def _take(table: np.ndarray, *index) -> np.ndarray:
    """``table[index]`` by one flat ``take`` on int32 linear indices
    ``(i*n1 + j)*n2 + k``; the index arrays broadcast.  Tables have fewer
    than 2**31 cells."""
    flat = np.asarray(index[0], dtype=np.int32)
    for size, ix in zip(table.shape[1:], index[1:]):
        flat = flat * size + ix
    return table.ravel().take(flat)


def _block(s: int, t: int, ndim: int) -> np.ndarray:
    """Vertices s..t-1 as an int32 column along axis 0 of an ndim-dim block."""
    return np.arange(s, t, dtype=np.int32).reshape((t - s,) + (1,) * (ndim - 1))


def _axes(n: int, ndim: int) -> list[np.ndarray]:
    """The labels 0..n-1 along each of axes 1..ndim-1 of an ndim-dim block."""
    r = np.arange(n, dtype=np.int32)
    return [r.reshape((1,) * k + (n,) + (1,) * (ndim - 1 - k)) for k in range(1, ndim)]


def _blocks(L: int, n: int, rank: int = 4):
    """The vertex blocks (s, t) of a rank-``rank`` axiom, in order; n may be
    0 (an empty heap)."""
    step = max(1, BLOCK_CELLS // max(n, 1) ** (rank - 1))
    return ((s, min(s + step, L)) for s in range(0, L, step))


def _blockwise(table_of_block, L: int, n: int, dtype=LABEL_DTYPE) -> np.ndarray:
    """The (L, n, n) table whose rows s..t-1 are ``table_of_block(s, t)``."""
    out = np.empty((L, n, n), dtype=dtype)
    for s, t in _blocks(L, n, 3):
        out[s:t] = table_of_block(s, t)
    return out


def _check(name: str, names: Sequence[str], n: int, *axioms, required: bool = True, rank: int = 4) -> Check:
    """One ``Check`` of axioms run in order, each block by block.

    Each axiom is a block function or a ``(function, witness)`` pair, where
    ``witness(index, lhs, rhs)`` builds the witness; the default names the
    vertex, the labels and both sides.  ``rank`` is the largest number of
    axes of an axiom's block, which sizes the blocks.  The first failing
    block ends the check, and its first False cell (row-major) is the first
    failing tuple in global (lam, a, b, c) order, whatever the block size.
    """
    for axiom in axioms:
        fn, witness = axiom if isinstance(axiom, tuple) else (axiom, None)
        for s, t in _blocks(len(names), n, rank):
            ok, lhs, rhs = fn(s, t)
            if not ok.all():
                idx = np.unravel_index(np.argmin(ok), ok.shape)
                at = (s + int(idx[0]),) + tuple(int(i) for i in idx[1:])
                sides = [None if x is None else np.broadcast_to(x, ok.shape)[idx] for x in (lhs, rhs)]
                wit = witness(at, *sides) if witness else _witness(names, at, *sides)
                return Check(name, False, required, wit)
    return Check(name, True, required)


def _noted(names: Sequence[str], note: str):
    """The default witness with a ``note``."""
    return lambda idx, lhs, rhs: _witness(names, idx, lhs, rhs, note=note)


# ---------------------------------------------------------------------------
# dynamical skew braces


@dataclass(frozen=True, eq=False)
class DynamicalSkewBrace(QuiverBase):
    """(group, vertex set, transition map, per-vertex left-quasigroup tables).

    ``ops[lam, a, b]`` is the product of a and b at vertex lam; ``phi[lam, a]``
    is the target vertex of the arrow with source lam and label a.
    """

    group: FiniteGroup
    vertex_names: tuple[str, ...]
    phi: np.ndarray
    ops: np.ndarray

    @property
    def label_names(self) -> tuple[str, ...]:
        return self.group.names

    def op_table(self, vertex: int | str) -> np.ndarray:
        lam = vertex if isinstance(vertex, int) else self.vertex_index(vertex)
        return self.ops[lam]


def dsb_ops(group: FiniteGroup, digits: np.ndarray) -> np.ndarray:
    """The per-vertex products ``ops[k, a, b] = a * f_a(b)`` of the regular
    subsets whose automorphism indices are the rows of the ``(L, n)``
    ``digits``, f_a the automorphism assigned at a.  Filled per block of
    rows, so the ``(L, n, n)`` result is the only table of that size."""
    act = holomorph(group).act
    rows = np.arange(group.order, dtype=np.intp)[:, None]
    return _blockwise(lambda s, t: group.table[rows, act[digits[s:t]]], *digits.shape)


def make_dsb(group, vertex_names, phi, ops) -> DynamicalSkewBrace:
    n = group.order
    names, phi = validate_phi(vertex_names, phi, n)
    ops = int_array(ops, "ops", (len(names), n, n), 0, n, LABEL_DTYPE)
    return DynamicalSkewBrace(group, names, phi, ops)


def is_zero_symmetric(dsb: DynamicalSkewBrace) -> bool:
    e = dsb.group.identity
    n = dsb.label_count
    return bool((dsb.ops[:, e, :] == np.arange(n, dtype=dsb.ops.dtype)).all())


def verify_dsb(dsb: DynamicalSkewBrace) -> Report:
    """Exhaustive axiom check: left quasigroup rows, dynamical associativity,
    brace compatibility; zero-symmetry is reported as a fact, not a failure."""
    O, phi = dsb.ops, dsb.phi
    n = dsb.label_count
    M, I = dsb.group.table, dsb.group.inverses
    e = dsb.group.identity
    names = dsb.vertex_names
    a, b, c = _axes(n, 4)
    aran = np.arange(n, dtype=O.dtype)

    def rows(s, t):
        return (np.sort(O[s:t], axis=2) == aran).all(axis=2), None, None

    def repeated_value(idx, lhs, rhs):
        lam, x = idx
        row = O[lam, x].tolist()
        second = next(k for k, v in enumerate(row) if v in row[:k])
        return _witness(names, (lam, x, row.index(row[second]), second), row[second], row[second])

    def dynamical_associativity(s, t):
        # a *_lam (b *_phi(lam,a) c) = (a *_lam b) *_lam c
        lam = _block(s, t, 4)
        lhs = _take(O, lam, a, O[phi[s:t]])
        rhs = _take(O, lam, O[s:t, :, :, None], c)
        return lhs == rhs, lhs, rhs

    def brace_compatibility(s, t):
        # a *_lam (b c) = (a *_lam b) a^-1 (a *_lam c)
        lam = _block(s, t, 4)
        lhs = _take(O, lam, a, M[b, c])
        rhs = _take(M, _take(M, O[s:t, :, :, None], I[a]), O[s:t, :, None, :])
        return lhs == rhs, lhs, rhs

    def zero_symmetric(s, t):
        return O[s:t, e, :] == aran, O[s:t, e, :], aran

    return Report((
        _check("left_quasigroup", names, n, (rows, repeated_value)),
        _check("dynamical_associativity", names, n, dynamical_associativity),
        _check("brace_compatibility", names, n, brace_compatibility),
        _check(
            "zero_symmetric", names, n,
            (zero_symmetric, lambda idx, lhs, rhs: _witness(names, (idx[0], e, idx[1]), lhs, rhs)),
            required=False,
        ),
    ))


def verify_computation_rules(dsb: DynamicalSkewBrace) -> Report:
    """The two derived product rules that follow from brace compatibility."""
    O = dsb.ops
    n = dsb.label_count
    M, I = dsb.group.table, dsb.group.inverses
    names = dsb.vertex_names
    a, b, c = _axes(n, 4)

    def left_inverse(s, t):
        # a *_lam (b^-1 c) = a (a *_lam b)^-1 (a *_lam c)
        lam = _block(s, t, 4)
        lhs = _take(O, lam, a, M[I[b], c])
        rhs = _take(M, _take(M, a, I[O[s:t, :, :, None]]), O[s:t, :, None, :])
        return lhs == rhs, lhs, rhs

    def right_inverse(s, t):
        # a *_lam (b c^-1) = (a *_lam b)(a *_lam c)^-1 a
        lam = _block(s, t, 4)
        lhs = _take(O, lam, a, M[b, I[c]])
        rhs = _take(M, _take(M, O[s:t, :, :, None], I[O[s:t, :, None, :]]), a)
        return lhs == rhs, lhs, rhs

    return Report((
        _check("product_rule_left_inverse", names, n, left_inverse),
        _check("product_rule_right_inverse", names, n, right_inverse),
    ))


# ---------------------------------------------------------------------------
# skew bracoids (groupoid / left unital associative semiloopoid presentation)


@dataclass(frozen=True, eq=False)
class SkewBracoid(QuiverBase):
    """Partial multiplication on arrows plus a group on every out-star.

    ``bullet[lam, a, b]`` is the label (at lam) of the composite of the arrow
    [lam|a] with the arrow [phi(lam,a)|b]; ``dot[lam]`` is the group table on
    the out-star of lam; ``units[lam]`` is the unit-loop label on unital
    vertices and -1 on initial ones.  Everything else is derived from these
    tables, once, on first use.
    """

    vertex_names: tuple[str, ...]
    label_names: tuple[str, ...]
    phi: np.ndarray
    bullet: np.ndarray
    dot: np.ndarray
    units: np.ndarray

    @cached_property
    def unital(self) -> np.ndarray:
        """Whether each vertex has a unit loop."""
        return _frozen(self.units >= 0)

    @cached_property
    def dot_identity(self) -> tuple[np.ndarray, np.ndarray]:
        """Per vertex: whether its out-star table has a two-sided identity, and
        that identity's label (0 where it has none)."""
        D = self.dot
        aran = np.arange(D.shape[1], dtype=D.dtype)
        both = (D == aran[None, None, :]).all(axis=2) & (D == aran[None, :, None]).all(axis=1)
        return _frozen(both.any(axis=1)), _frozen(np.argmax(both, axis=1).astype(LABEL_DTYPE))

    @cached_property
    def dot_inverse(self) -> np.ndarray:
        """``dot_inverse[lam, a]``, the inverse of a in the out-star group of lam."""
        identity = self.dot_identity[1][:, None, None]
        return _frozen(np.argmax(self.dot == identity, axis=2).astype(LABEL_DTYPE))

    @cached_property
    def derived_action(self) -> np.ndarray:
        """``derived_action[lam, a, b] = a^-1 dot (a bullet b)``, the derived
        left action; it is the first component of the braiding."""
        B, D, dotinv = self.bullet, self.dot, self.dot_inverse
        L, n = dotinv.shape
        action = _blockwise(lambda s, t: _take(D, _block(s, t, 3), dotinv[s:t, :, None], B[s:t]), L, n)
        return _frozen(action)


def make_bracoid(vertex_names, label_names, phi, bullet, dot, units) -> SkewBracoid:
    labels = distinct_names(name_tuple(label_names, "labels"), "label")
    return _bracoid(*validate_phi(vertex_names, phi, len(labels)), labels, bullet, dot, units)


def _bracoid(names, phi, labels, bullet, dot, units) -> SkewBracoid:
    """The bracoid over the validated ``names`` and ``phi``, its tables checked."""
    L, n = phi.shape
    if len(labels) != n:
        raise InputError(f"phi has shape {phi.shape}, expected {(L, len(labels))}")
    bullet = int_array(bullet, "bullet", (L, n, n), 0, n, LABEL_DTYPE)
    dot = int_array(dot, "dot", (L, n, n), 0, n, LABEL_DTYPE)
    units = int_array(units, "units", (L,), -1, n, LABEL_DTYPE)
    return SkewBracoid(names, labels, phi, bullet, dot, units)


def semiloopoid_of_dsb(dsb: DynamicalSkewBrace) -> SkewBracoid:
    """The arrow-composition structure of a dynamical skew brace.

    The bullet tables coincide with the per-vertex operations; the out-star
    group at every vertex is a copy of the underlying group; a vertex is
    unital exactly when the identity label acts trivially there (its identity
    loop is then the unit).  Nothing is verified here: a caller holding
    outside data runs ``verify_dsb(dsb).require(...)`` first.  The arrays of
    ``dsb`` were validated when it was built, so they are not checked again.
    """
    L, n = dsb.phi.shape
    e = dsb.group.identity
    unital = (dsb.ops[:, e, :] == np.arange(n)).all(axis=1) & (dsb.phi[:, e] == np.arange(L))
    units = np.where(unital, e, -1).astype(LABEL_DTYPE)
    # a contiguous copy, which _take reads through ravel() without copying
    dot = np.broadcast_to(dsb.group.table, (L, n, n)).copy()
    return SkewBracoid(dsb.vertex_names, dsb.group.names, dsb.phi, dsb.ops, _frozen(dot), _frozen(units))


def semiloopoid_inverse(bracoid: SkewBracoid, vertex: int, label: int) -> tuple[int, int]:
    """Inverse arrow of [vertex|label] on the groupoid part, as (vertex, label)."""
    lam, a = vertex, label
    mu = int(bracoid.phi[lam, a])
    if not (bracoid.unital[lam] and bracoid.unital[mu]):
        raise InputError("inverses only exist between unital vertices")
    row = bracoid.bullet[lam, a]
    c = int(np.argwhere(row == bracoid.units[lam])[0][0])
    return mu, c


def relabel_bracoid(bracoid: SkewBracoid, perms: Sequence[Sequence[int]]) -> SkewBracoid:
    """Apply a per-vertex permutation of out-star labels (old -> new).

    The result has the same arrows under new labels, named ``"0"``, ``"1"``,
    ...: its ``phi``, ``bullet``, ``dot`` and ``units`` are the old tables
    transported along the permutations.  This is the relabelling
    :func:`~dynbrace.parallelise.parallelise` makes its out-star labellings
    with, and the label-erasure device of the round-trip tests.
    """
    L, n = bracoid.phi.shape
    P = int_array(perms, "permutations", (L, n), 0, n, LABEL_DTYPE)
    if not (np.sort(P, axis=1) == np.arange(n, dtype=P.dtype)).all():
        raise InputError("each vertex relabelling must be a permutation")
    Q = _inverse_rows(P)

    lam2 = np.arange(L, dtype=np.intp)[:, None]
    phi = bracoid.phi[lam2, Q]
    lam3 = lam2[:, :, None]
    old_a = Q[:, :, None]
    old_b = Q[phi[:, :, None], np.arange(n, dtype=np.intp)[None, None, :]]
    bullet = P[lam3, bracoid.bullet[lam3, old_a, old_b]]
    dot = P[lam3, bracoid.dot[lam3, old_a, Q[:, None, :]]]
    units = np.where(bracoid.unital, P[lam2[:, 0], np.where(bracoid.unital, bracoid.units, 0)], -1)
    return make_bracoid(bracoid.vertex_names, tuple(map(str, range(n))), phi, bullet, dot, units)


def restrict_bracoid(bracoid: SkewBracoid, members: Sequence[int]) -> SkewBracoid:
    """The sub-bracoid on ``members``, a union of components, re-indexed in that order."""
    sel = np.array(members, dtype=np.intp)
    names = [bracoid.vertex_names[v] for v in members]
    tables = (bracoid.bullet[sel], bracoid.dot[sel], bracoid.units[sel])
    return make_bracoid(names, bracoid.label_names, restrict_phi(bracoid.phi, sel), *tables)


def verify_bracoid(bracoid: SkewBracoid) -> Report:
    """Axioms of the arrow structure, the out-star groups, the compatibility,
    and the two equivalent reformulations through the derived left action."""
    phi, B, D = bracoid.phi, bracoid.bullet, bracoid.dot
    units, unital = bracoid.units, bracoid.unital
    n = bracoid.label_count
    names = bracoid.vertex_names
    a, b, c = _axes(n, 4)
    aran = np.arange(n, dtype=B.dtype)
    u_here = np.where(unital, units, 0)

    def targets(s, t):
        # the composite of [lam|a] and [phi(lam,a)|b] must also end at phi(phi(lam,a),b)
        return _take(phi, _block(s, t, 3), B[s:t]) == phi[phi[s:t]], None, None

    def rows(s, t):
        return (np.sort(B[s:t], axis=2) == aran).all(axis=2), None, None

    def associativity(s, t):
        lam = _block(s, t, 4)
        lhs = _take(B, lam, a, B[phi[s:t]])
        rhs = _take(B, lam, B[s:t, :, :, None], c)
        return lhs == rhs, lhs, rhs

    # units on unital vertices: loops, left units, and right units
    # (x bullet unit(target) = x whenever the target is unital)
    def loops(s, t):
        lam = _block(s, t, 1)
        return ~unital[s:t] | (_take(phi, lam, u_here[s:t]) == lam), None, None

    def left_units(s, t):
        lhs = _take(B, _block(s, t, 2), u_here[s:t, None], aran)
        return ~unital[s:t, None] | (lhs == aran), None, None

    def right_units(s, t):
        tgt = phi[s:t]
        lhs = _take(B, _block(s, t, 2), aran, u_here[tgt])
        return ~unital[tgt] | (lhs == aran), None, None

    def inverses(s, t):
        # between unital vertices, the left inverse of [lam|a] is also a right inverse
        tgt = phi[s:t]
        cinv = np.argmax(B[s:t] == u_here[s:t, None, None], axis=2)
        back = _take(B, tgt, cinv, aran)
        return ~(unital[s:t, None] & unital[tgt]) | (back == u_here[tgt]), None, None

    def on_unit(note):
        return lambda idx, lhs, rhs: _witness(names, (idx[0], units[idx[0]]) + idx[1:], note=note)

    def at_vertex(note):
        return lambda idx, lhs, rhs: {"vertex": names[idx[0]], "note": note}

    def latin(s, t):
        rows_ok = (np.sort(D[s:t], axis=2) == aran).all(axis=(1, 2))
        return rows_ok & (np.sort(D[s:t], axis=1) == aran[:, None]).all(axis=(1, 2)), None, None

    def dot_associativity(s, t):
        lam = _block(s, t, 4)
        ok = _take(D, lam, D[s:t, :, :, None], c) == _take(D, lam, a, D[s:t, None, :, :])
        return ok, None, None

    def has_identity(s, t):
        return bracoid.dot_identity[0][s:t], None, None

    def identity_is_unit(s, t):
        e_arr = bracoid.dot_identity[1][s:t]
        return ~unital[s:t] | (e_arr == units[s:t]), e_arr, units[s:t]

    def unit_mismatch(idx, lhs, rhs):
        note = "vertex group unit differs from the unit loop"
        return {"vertex": names[idx[0]], "lhs": lhs, "rhs": rhs, "note": note}

    checks = [
        _check(
            "groupoid_or_semiloopoid", names, n,
            (targets, _noted(names, "composite arrow has the wrong target")),
            (rows, _noted(names, "left multiplication not bijective")),
            (associativity, _noted(names, "bullet not associative")),
            (loops, on_unit("unit label is not a loop")),
            (left_units, on_unit("unit is not a left unit")),
            (right_units, _noted(names, "unit is not a right unit")),
            (inverses, _noted(names, "no two-sided inverse")),
        ),
        Check("groupoid", bool(unital.all()), required=False),
        _check(
            "per_vertex_groups", names, n,
            (latin, at_vertex("vertex operation is not a Latin square")),
            (dot_associativity, _noted(names, "vertex operation not associative")),
            (has_identity, at_vertex("vertex operation has no unit")),
            (identity_is_unit, unit_mismatch),
        ),
    ]
    if not (checks[0].passed and checks[2].passed):
        # remaining identities presuppose the structure above
        for name in ("bracoid_compatibility", "action_composition", "action_distributivity"):
            checks.append(Check(name, False, witness={"note": "skipped: structure invalid"}))
        return Report(tuple(checks))

    dotinv, R = bracoid.dot_inverse, bracoid.derived_action

    def compatibility(s, t):
        # x bullet (y dot z) = (x bullet y) dot x^-1 dot (x bullet z)
        lam = _block(s, t, 4)
        lhs = _take(B, lam, a, D[phi[s:t]])
        xy_xinv = _take(D, _block(s, t, 3), B[s:t], dotinv[s:t, :, None])
        rhs = _take(D, lam, xy_xinv[..., None], B[s:t, :, None, :])
        return lhs == rhs, lhs, rhs

    def composition(s, t):
        # (x bullet y) -> z = x -> (y -> z)
        lam = _block(s, t, 4)
        lhs = _take(R, lam, B[s:t, :, :, None], c)
        rhs = _take(R, lam, a, R[phi[s:t]])
        return lhs == rhs, lhs, rhs

    def distributivity(s, t):
        # x -> (y dot z) = (x -> y) dot (x -> z)
        lam = _block(s, t, 4)
        lhs = _take(R, lam, a, D[phi[s:t]])
        rhs = _take(D, lam, R[s:t, :, :, None], R[s:t, :, None, :])
        return lhs == rhs, lhs, rhs

    checks += [
        _check("bracoid_compatibility", names, n, compatibility),
        _check("action_composition", names, n, composition),
        _check("action_distributivity", names, n, distributivity),
    ]
    return Report(tuple(checks))


# ---------------------------------------------------------------------------
# braidings


@dataclass(frozen=True, eq=False)
class QuiverBraiding:
    """Explicit pair-map sigma: composable (x, y) -> (x -> y, x <- y).

    ``right[lam, a, b]`` is the label at lam of the first output component;
    ``left[lam, a, b]`` is the label, at the vertex the first component points
    to, of the second output component.
    """

    right: np.ndarray
    left: np.ndarray

    def apply(self, bracoid: SkewBracoid, vertex: int, a: int, b: int) -> tuple[int, int, int, int]:
        """sigma on the path [vertex|a|b]; returns (vertex, r, mid_vertex, l)."""
        r = int(self.right[vertex, a, b])
        l = int(self.left[vertex, a, b])
        return vertex, r, int(bracoid.phi[vertex, r]), l


def braiding_of_qtsb(bracoid: SkewBracoid) -> QuiverBraiding:
    """The braiding with first component x^-1 dot (x bullet y), the
    bracoid's derived action, and second component the bullet left-division
    of (x bullet y) by the first.

    Nothing is verified here: a caller holding outside data runs
    ``verify_bracoid(bracoid).require(...)`` first.
    """
    B = bracoid.bullet
    L, n = bracoid.phi.shape
    right = bracoid.derived_action

    def left(s, t):
        # the c with right[lam, a, b] bullet c = a bullet b, by left division
        return _take(_inverse_rows(B[s:t]), _block(0, t - s, 3), right[s:t], B[s:t])

    return QuiverBraiding(right, _frozen(_blockwise(left, L, n)))


def verify_braiding(bracoid: SkewBracoid, braiding: QuiverBraiding) -> Report:
    """Exhaustive check of the braid relation, the braided-structure axioms,
    non-degeneracies and involutivity.

    The unit axioms are checked on arrows between unital vertices only; right
    non-degeneracy is required only when the whole structure is a groupoid,
    and is otherwise reported as a fact.  Involutivity is always informational.
    """
    phi, B = bracoid.phi, bracoid.bullet
    SR, SL = braiding.right, braiding.left
    units, unital = bracoid.units, bracoid.unital
    L, n = phi.shape
    names = bracoid.vertex_names
    a, b, c = _axes(n, 4)
    a3, b3 = _axes(n, 3)
    aran = np.arange(n, dtype=SR.dtype)
    u_here = np.where(unital, units, 0)

    def sigma_quiver_morphism(s, t):
        # sigma keeps the outer source and target of a path
        W = _take(phi, _block(s, t, 3), SR[s:t])
        return _take(phi, W, SL[s:t]) == phi[phi[s:t]], None, None

    def ybe(s, t):
        # the braid relation on label triples (lam, a, b, c)
        lam = _block(s, t, 4)

        def s12(x, y, z):
            return _take(SR, lam, x, y), _take(SL, lam, x, y), z

        def s23(x, y, z):
            mu = _take(phi, lam, x)
            return x, _take(SR, mu, y, z), _take(SL, mu, y, z)

        lhs = s12(*s23(*s12(a, b, c)))
        rhs = s23(*s12(*s23(a, b, c)))
        return (lhs[0] == rhs[0]) & (lhs[1] == rhs[1]) & (lhs[2] == rhs[2]), None, None

    # unit axioms on arrows between unital vertices
    def bg1(s, t):
        lam, tgt = _block(s, t, 2), phi[s:t]
        u_tgt = u_here[tgt]
        ok = (_take(SR, lam, aran, u_tgt) == u_here[s:t, None]) & (_take(SL, lam, aran, u_tgt) == aran)
        return ~(unital[s:t, None] & unital[tgt]) | ok, None, None

    def bg2(s, t):
        lam, tgt = _block(s, t, 2), phi[s:t]
        u = u_here[s:t, None]
        ok = (_take(SR, lam, u, aran) == aran) & (_take(SL, lam, u, aran) == u_here[tgt])
        return ~(unital[s:t, None] & unital[tgt]) | ok, None, None

    # hexagons, componentwise
    def bg3(s, t):
        lam = _block(s, t, 4)
        Byz = B[phi[s:t]]
        SRab, SLab = SR[s:t, :, :, None], SL[s:t, :, :, None]
        Wab = _take(phi, lam, SRab)
        inner = _take(SR, Wab, SLab, c)
        right = _take(SR, lam, a, Byz)
        ok = right == _take(B, lam, SRab, inner)
        ok &= _take(SL, lam, a, Byz) == _take(SL, Wab, SLab, c)
        ok &= _take(phi, lam, right) == _take(phi, Wab, inner)
        return ok, None, None

    def bg4(s, t):
        lam = _block(s, t, 4)
        Bab = B[s:t, :, :, None]
        SRmu = SR[phi[s:t]]
        right = _take(SR, lam, Bab, c)
        right_mu = _take(SR, lam, a, SRmu)
        v1 = _take(phi, lam, right_mu)
        ok = right == right_mu
        ok &= _take(SL, lam, Bab, c) == _take(B, v1, _take(SL, lam, a, SRmu), SL[phi[s:t]])
        ok &= _take(phi, lam, right) == v1
        return ok, None, None

    def bg5(s, t):
        return _take(B, _block(s, t, 3), SR[s:t], SL[s:t]) == B[s:t], None, None

    def left_nondegenerate(s, t):
        return (np.sort(SR[s:t], axis=2) == aran).all(axis=2), None, None

    def involutive(s, t):
        lam = _block(s, t, 3)
        r2 = _take(SR, lam, SR[s:t], SL[s:t])
        l2 = _take(SL, lam, SR[s:t], SL[s:t])
        return (r2 == a3) & (l2 == b3), None, None

    checks = [
        _check(name, names, n, axiom)
        for name, axiom in (
            ("sigma_quiver_morphism", sigma_quiver_morphism), ("ybe", ybe), ("bg1", bg1),
            ("bg2", bg2), ("bg3", bg3), ("bg4", bg4), ("bg5", bg5),
            ("left_nondegenerate", left_nondegenerate),
        )
    ]

    # right non-degeneracy: (y, x) -> (y, x <- y) is injective on composable
    # pairs (one in-place sort of the pair keys), and in-degrees agree along arrows
    def pair_keys(s, t):
        W = _take(phi, _block(s, t, 3), SR[s:t])
        return (phi[s:t, :, None] * np.int64(n) + b3) * (L * n) + W * n + SL[s:t]

    key = _blockwise(pair_keys, L, n, np.int64).ravel()
    key.sort()
    injective = not (key[1:] == key[:-1]).any()
    indeg = np.bincount(phi.ravel(), minlength=L)
    counts_ok = (indeg[:, None] == indeg[phi]) | (indeg[:, None] == 0)
    checks.append(
        Check("right_nondegenerate", bool(injective and counts_ok.all()), required=bool(unital.all()))
    )
    checks.append(_check("involutive", names, n, involutive, required=False))
    return Report(tuple(checks))


# ---------------------------------------------------------------------------
# JSON formats


def _per_vertex(data: Mapping, key: str, names: Sequence[str]) -> list:
    """The entries of the name-keyed table ``data[key]``, in vertex order."""
    table = data[key]
    if not isinstance(table, Mapping):
        table = {}
    missing = [v for v in names if v not in table]
    if missing:
        raise InputError(f"{key!r} has no entry for vertex {quote(missing[0])}")
    return [table[v] for v in names]


def dsb_from_json(data: Mapping) -> DynamicalSkewBrace:
    for key in ("group", "vertices", "phi", "ops"):
        if key not in data:
            raise InputError(f"dynamical structure JSON needs a {key!r} key")
    group = group_from_json(data["group"])
    if group.identity != 0:
        raise InputError("dynamical structure JSON expects the identity at index 0")
    names = name_tuple(data["vertices"], "vertices")
    return make_dsb(group, names, data["phi"], _per_vertex(data, "ops", names))


def bracoid_from_json(data: Mapping) -> SkewBracoid:
    for key in ("vertices", "phi", "ops", "dot", "units"):
        if key not in data:
            raise InputError(f"bracoid JSON needs a {key!r} key")
    names, phi = validate_phi(data["vertices"], data["phi"])
    labels = data.get("labels", [str(i) for i in range(phi.shape[1])])
    unit_of = data["units"]
    if not isinstance(unit_of, Mapping):
        raise InputError("'units' must map vertex names to labels")
    unknown = set(unit_of) - set(names)
    if unknown:
        raise InputError(f"units refer to unknown vertex {quote(min(unknown))}")
    units = [unit_of.get(v, -1) for v in names]
    bullet = _per_vertex(data, "ops", names)
    dot = _per_vertex(data, "dot", names)
    bracoid = _bracoid(names, phi, distinct_names(name_tuple(labels, "labels"), "label"), bullet, dot, units)
    # the vertices listed in 'units' are the unital ones, so none may list -1
    if np.count_nonzero(bracoid.unital) != len(unit_of):
        raise InputError("every unital vertex needs a unit label")
    return bracoid
