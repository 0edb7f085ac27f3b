"""Dynamical skew braces, bracoid structure on their quivers, and braidings.

The verification suite is exhaustive and vectorised: every axiom is checked on
all (composable) tuples, one block of vertices at a time, and the first
counterexample per failed axiom is reported with a full witness (vertex,
labels, both sides), so the suite doubles as a table-checking tool.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError
from .groups import FiniteGroup, group_from_json, group_to_json
from .holomorph import RegularSubset, holomorph, translate
from .quivers import (
    VERTEX_DTYPE,
    LabelledQuiver,
    QuiverBase,
    int_array,
    name_tuple,
    restrict_phi,
    validate_phi,
)

LABEL_DTYPE = np.int16


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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

# Tuples (vertex x label^3) per block: a block holds BLOCK_CELLS // n**3
# vertices, at least one, so the temporaries of a check are O(BLOCK_CELLS)
# whatever the number of vertices.
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


def _blocks(L: int, n: int):
    """The vertex blocks (s, t), in order."""
    step = max(1, BLOCK_CELLS // n**3)
    return ((s, min(s + step, L)) for s in range(0, L, step))


def _blockwise(table_of_block, L: int, n: int, dtype=LABEL_DTYPE) -> np.ndarray:
    """The (L, n, n) table whose rows s..t-1 are ``table_of_block(s, t)``."""
    out = np.empty((L, n, n), dtype=dtype)
    for s, t in _blocks(L, n):
        out[s:t] = table_of_block(s, t)
    return out


def _check(name: str, names: Sequence[str], n: int, *axioms, required: bool = True) -> Check:
    """One ``Check`` of axioms run in order, each block by block.

    Each axiom is a block function or a ``(function, witness)`` pair, where
    ``witness(index, lhs, rhs)`` builds the witness; the default names the
    vertex, the labels and both sides.  The first failing block ends the
    check, and its first False cell (row-major) is the first failing tuple
    in global (lam, a, b, c) order, whatever the block size.
    """
    for axiom in axioms:
        fn, witness = axiom if isinstance(axiom, tuple) else (axiom, None)
        for s, t in _blocks(len(names), n):
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

    def quiver(self) -> LabelledQuiver:
        return LabelledQuiver(self.vertex_names, self.group.names, self.phi)

    def op_table(self, vertex: int | str) -> np.ndarray:
        lam = vertex if isinstance(vertex, int) else self.vertex_index(vertex)
        return self.ops[lam]


def make_dsb(group, vertex_names, phi, ops) -> DynamicalSkewBrace:
    n = group.order
    names, phi = validate_phi(vertex_names, phi, n)
    ops = int_array(ops, "ops", (len(names), n, n), 0, n, LABEL_DTYPE)
    return DynamicalSkewBrace(group, names, phi, ops)


def dsb_from_subgroup_family(
    group: FiniteGroup,
    family: Iterable[RegularSubset] | Mapping[str, RegularSubset],
) -> DynamicalSkewBrace:
    """Build the dynamical structure carried by a translation-closed family.

    Vertices come out in canonical order (lexicographic on assignments);
    a mapping input contributes display names, otherwise names are s0, s1, ...
    A family that is not closed under translation is rejected with a witness.
    """
    if isinstance(family, Mapping):
        name_of = {s.assignment: str(name) for name, s in family.items()}
        subsets = sorted(set(s.assignment for s in family.values()))
    else:
        name_of = {}
        subsets = sorted(set(s.assignment for s in family))
    if not subsets:
        raise InputError("empty family")
    hol = holomorph(group)
    n = group.order
    index = {assignment: k for k, assignment in enumerate(subsets)}
    names = [name_of.get(assignment, f"s{k}") for k, assignment in enumerate(subsets)]
    phi = np.zeros((len(subsets), n), dtype=VERTEX_DTYPE)
    for k, assignment in enumerate(subsets):
        s = RegularSubset(assignment)
        for a in range(n):
            t = translate(s, a, group)
            if t.assignment not in index:
                label = names[k]
                raise InputError(
                    f"family is not closed under translation: translate({label}, {a}) "
                    f"has assignment {t.describe()}"
                )
            phi[k, a] = index[t.assignment]
    act = np.array([aut.images for aut in hol.auts], dtype=LABEL_DTYPE)
    mul = np.array(group.table, dtype=LABEL_DTYPE)
    digits = np.array(subsets, dtype=LABEL_DTYPE)
    # ops[k, a, b] = a * f_a(b) with f_a the automorphism assigned at a
    fa = act[digits]                     # (L, n, n): fa[k, a, b] = f_a(b)
    ops = mul[np.arange(n, dtype=np.intp)[None, :, None], fa]
    return make_dsb(group, names, phi, ops)


def is_zero_symmetric(dsb: DynamicalSkewBrace) -> bool:
    e = dsb.group.identity
    n = dsb.label_count
    return bool((dsb.ops[:, e, :] == np.arange(n, dtype=dsb.ops.dtype)).all())


def verify_dsb(dsb: DynamicalSkewBrace) -> Report:
    """Exhaustive axiom check: left quasigroup rows, dynamical associativity,
    brace compatibility; zero-symmetry is reported as a fact, not a failure."""
    O, phi = dsb.ops, dsb.phi
    n = dsb.label_count
    M = np.array(dsb.group.table, dtype=LABEL_DTYPE)
    I = np.array(dsb.group.inverses, dtype=LABEL_DTYPE)
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
    M = np.array(dsb.group.table, dtype=LABEL_DTYPE)
    I = np.array(dsb.group.inverses, dtype=LABEL_DTYPE)
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
    vertices and -1 on initial ones.
    """

    vertex_names: tuple[str, ...]
    label_names: tuple[str, ...]
    phi: np.ndarray
    bullet: np.ndarray
    dot: np.ndarray
    units: np.ndarray
    unital: np.ndarray

    @property
    def is_groupoid(self) -> bool:
        return bool(self.unital.all())

    def quiver(self) -> LabelledQuiver:
        return LabelledQuiver(self.vertex_names, self.label_names, self.phi)


def make_bracoid(vertex_names, label_names, phi, bullet, dot, units, unital) -> SkewBracoid:
    labels = name_tuple(label_names, "labels")
    names, phi = validate_phi(vertex_names, phi, len(labels))
    L, n = phi.shape
    bullet = int_array(bullet, "bullet", (L, n, n), 0, n, LABEL_DTYPE)
    dot = int_array(dot, "dot", (L, n, n), 0, n, LABEL_DTYPE)
    units = int_array(units, "units", (L,), -1, n, LABEL_DTYPE)
    unital = _frozen(np.ascontiguousarray(unital, dtype=bool))
    if unital.shape != (L,):
        raise InputError(f"unital shape {unital.shape}, expected {(L,)}")
    if (units[unital] < 0).any():
        raise InputError("every unital vertex needs a unit label")
    return SkewBracoid(names, labels, phi, bullet, dot, units, unital)


def semiloopoid_of_dsb(dsb: DynamicalSkewBrace, check: bool = True) -> SkewBracoid:
    """The arrow-composition structure of a dynamical skew brace.

    The bullet tables coincide with the per-vertex operations; the out-star
    group at every vertex is a copy of the underlying group; a vertex is
    unital exactly when the identity label acts trivially there (its identity
    loop is then the unit).
    """
    if check:
        report = verify_dsb(dsb)
        if not report.passed:
            raise InputError(
                "not a dynamical skew brace: " + "; ".join(c.line() for c in report.failures())
            )
    L, n = dsb.phi.shape
    e = dsb.group.identity
    aran = np.arange(n, dtype=dsb.ops.dtype)
    unital = (dsb.ops[:, e, :] == aran).all(axis=1) & (dsb.phi[:, e] == np.arange(L))
    units = np.where(unital, e, -1)
    dot = np.broadcast_to(np.array(dsb.group.table, dtype=LABEL_DTYPE), (L, n, n)).copy()
    return make_bracoid(
        dsb.vertex_names, dsb.group.names, dsb.phi, dsb.ops, dot, units, unital
    )


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

    This is the label-erasure device used by round-trip tests: the result has
    the same arrows but anonymous labels.
    """
    L, n = bracoid.phi.shape
    P = np.ascontiguousarray(perms, dtype=LABEL_DTYPE)
    if P.shape != (L, n):
        raise InputError(f"need {L}x{n} permutations, got {P.shape}")
    if not (np.sort(P, axis=1) == np.arange(n, dtype=P.dtype)).all():
        raise InputError("each vertex relabelling must be a permutation")
    Q = np.empty_like(P)
    lam2 = np.arange(L, dtype=np.intp)[:, None]
    Q[lam2, P] = np.arange(n, dtype=P.dtype)[None, :]

    phi = bracoid.phi[lam2, Q]
    lam3 = np.arange(L, dtype=np.intp)[:, None, None]
    old_a = Q[:, :, None]
    mu = bracoid.phi[lam2, Q][:, :, None]
    old_b = Q[mu, np.arange(n, dtype=np.intp)[None, None, :]]
    bullet = P[lam3, bracoid.bullet[lam3, old_a, old_b]]
    dot = P[lam3, bracoid.dot[lam3, old_a, Q[:, None, :]]]
    units = np.where(bracoid.unital, P[lam2[:, 0], np.where(bracoid.unital, bracoid.units, 0)], -1)
    return make_bracoid(
        bracoid.vertex_names,
        tuple(str(i) for i in range(n)),
        phi,
        bullet,
        dot,
        units,
        bracoid.unital.copy(),
    )


def restrict_bracoid(bracoid: SkewBracoid, members: Sequence[int]) -> SkewBracoid:
    """The sub-bracoid on ``members``, a union of components, re-indexed in that order."""
    sel = np.array(members, dtype=np.intp)
    return make_bracoid(
        [bracoid.vertex_names[v] for v in members],
        bracoid.label_names,
        restrict_phi(bracoid.phi, sel),
        bracoid.bullet[sel],
        bracoid.dot[sel],
        bracoid.units[sel],
        bracoid.unital[sel],
    )


def _dot_identity(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex of the out-star tables ``D``: whether it has a two-sided
    identity, and its label (0 where it has none)."""
    aran = np.arange(D.shape[1], dtype=D.dtype)
    both = (D == aran[None, None, :]).all(axis=2) & (D == aran[None, :, None]).all(axis=1)
    return both.any(axis=1), np.argmax(both, axis=1)


def _dot_inverse(D: np.ndarray) -> np.ndarray:
    """``inv[lam, a]``, the inverse of a in the out-star group of lam."""
    return np.argmax(D == _dot_identity(D)[1][:, None, None], axis=2).astype(LABEL_DTYPE)


def _derived_action(B: np.ndarray, D: np.ndarray, dotinv: np.ndarray) -> np.ndarray:
    """``R[lam, a, b] = a^-1 dot (a bullet b)``, the derived left action."""
    L, n = dotinv.shape
    return _blockwise(lambda s, t: _take(D, _block(s, t, 3), dotinv[s:t, :, None], B[s:t]), L, n)


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
        return _dot_identity(D[s:t])[0], None, None

    def identity_is_unit(s, t):
        e_arr = _dot_identity(D[s:t])[1]
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

    dotinv = _dot_inverse(D)
    R = _derived_action(B, D, dotinv)

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


def braiding_of_qtsb(bracoid: SkewBracoid, check: bool = True) -> QuiverBraiding:
    """The braiding with first component x^-1 dot (x bullet y) and second
    component the bullet left-division of (x bullet y) by the first."""
    if check:
        report = verify_bracoid(bracoid)
        if not report.passed:
            raise InputError(
                "not a skew bracoid: " + "; ".join(c.line() for c in report.failures())
            )
    B, D = bracoid.bullet, bracoid.dot
    L, n = bracoid.phi.shape
    right = _derived_action(B, D, _dot_inverse(D))

    def left(s, t):
        # the c with right[lam, a, b] bullet c = a bullet b, by left division
        ldiv = np.zeros_like(B[s:t])
        np.put_along_axis(ldiv, B[s:t], np.arange(n, dtype=B.dtype), axis=2)
        return _take(ldiv, _block(0, t - s, 3), right[s:t], B[s:t])

    return QuiverBraiding(_frozen(right), _frozen(_blockwise(left, L, n)))


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


def braiding_quadruples(
    bracoid: SkewBracoid, braiding: QuiverBraiding, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """The braiding on the composable pairs whose first arrow leaves a vertex
    in ``lo .. hi - 1``, as an ``(m, 4, 2)`` intp array of quadruples
    [x, y, x->y, x<-y], each arrow a (vertex, label) pair, ordered by source
    vertex and the labels of x and y."""
    phi = bracoid.phi
    hi = phi.shape[0] if hi is None else hi
    n = phi.shape[1]
    m = hi - lo
    right, left = braiding.right[lo:hi], braiding.left[lo:hi]
    out = np.empty((m, n, n, 4, 2), dtype=np.intp)
    out[..., 0, 0] = out[..., 2, 0] = np.arange(lo, hi)[:, None, None]
    out[..., 0, 1] = np.arange(n)[:, None]
    out[..., 1, 0] = phi[lo:hi, :, None]
    out[..., 1, 1] = np.arange(n)
    out[..., 2, 1] = right
    out[..., 3, 0] = np.take_along_axis(phi[lo:hi], right.reshape(m, n * n), axis=1).reshape(m, n, n)
    out[..., 3, 1] = left
    return out.reshape(m * n * n, 4, 2)


# ---------------------------------------------------------------------------
# JSON formats


def dsb_to_json(dsb: DynamicalSkewBrace) -> dict:
    return {
        "group": group_to_json(dsb.group),
        "vertices": list(dsb.vertex_names),
        "phi": dsb.phi.tolist(),
        "ops": dict(zip(dsb.vertex_names, dsb.ops.tolist())),
    }


def _per_vertex(data: Mapping, key: str, names: Sequence[str]) -> list:
    """The entries of the name-keyed table ``data[key]``, in vertex order."""
    table = data[key]
    if not isinstance(table, Mapping):
        table = {}
    missing = [v for v in names if v not in table]
    if missing:
        raise InputError(f"{key!r} has no entry for vertex {missing[0]!r}")
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


def bracoid_to_json(bracoid: SkewBracoid, group: FiniteGroup | None = None) -> dict:
    out = {
        "vertices": list(bracoid.vertex_names),
        "labels": list(bracoid.label_names),
        "phi": bracoid.phi.tolist(),
        "ops": dict(zip(bracoid.vertex_names, bracoid.bullet.tolist())),
        "dot": dict(zip(bracoid.vertex_names, bracoid.dot.tolist())),
        "units": {
            name: unit
            for name, unit, unital in zip(
                bracoid.vertex_names, bracoid.units.tolist(), bracoid.unital.tolist()
            )
            if unital
        },
    }
    if group is not None:
        out["group"] = group_to_json(group)
    return out


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
        raise InputError(f"units refer to unknown vertex {min(unknown)!r}")
    unital = [v in unit_of for v in names]
    units = [unit_of.get(v, -1) for v in names]
    bullet = _per_vertex(data, "ops", names)
    dot = _per_vertex(data, "dot", names)
    return make_bracoid(names, labels, phi, bullet, dot, units, unital)
