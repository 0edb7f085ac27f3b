"""Dynamical skew braces, bracoid structure on their quivers, and braidings.

The verification suite is exhaustive and vectorised: every axiom is checked on
all (composable) tuples, and the first counterexample per failed axiom is
reported with a full witness (vertex, labels, both sides), so the suite
doubles as a table-checking tool.
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
    quiver_of_dynamical_set,
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


def _first_mismatch(ok: np.ndarray):
    bad = np.argwhere(~ok)
    return tuple(int(v) for v in bad[0])


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
        return quiver_of_dynamical_set(self.vertex_names, self.group.names, self.phi)

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
    O = dsb.ops
    phi = dsb.phi
    L, n = phi.shape
    M = np.array(dsb.group.table, dtype=LABEL_DTYPE)
    I = np.array(dsb.group.inverses, dtype=LABEL_DTYPE)
    names = dsb.vertex_names
    checks = []

    aran = np.arange(n, dtype=O.dtype)
    rows_ok = (np.sort(O, axis=2) == aran).all(axis=2)
    if rows_ok.all():
        checks.append(Check("left_quasigroup", True))
    else:
        lam, a = _first_mismatch(rows_ok)
        row = O[lam, a].tolist()
        seen: dict[int, int] = {}
        dup = None
        for b, v in enumerate(row):
            if v in seen:
                dup = (seen[v], b, v)
                break
            seen[v] = b
        checks.append(
            Check(
                "left_quasigroup",
                False,
                witness={
                    "vertex": names[lam],
                    "labels": (a, dup[0], dup[1]),
                    "lhs": dup[2],
                    "rhs": dup[2],
                },
            )
        )

    lam4 = np.arange(L, dtype=np.intp)[:, None, None, None]
    a4 = np.arange(n, dtype=np.intp)[None, :, None, None]
    c4 = np.arange(n, dtype=np.intp)[None, None, None, :]
    phi_la = phi[:, :, None, None]

    inner = O[phi_la, np.arange(n, dtype=np.intp)[None, None, :, None], c4]
    da_lhs = O[lam4, a4, inner]
    da_rhs = O[lam4, O[:, :, :, None], c4]
    da_ok = da_lhs == da_rhs
    if da_ok.all():
        checks.append(Check("dynamical_associativity", True))
    else:
        idx = _first_mismatch(da_ok)
        checks.append(
            Check(
                "dynamical_associativity",
                False,
                witness=_witness(names, idx, da_lhs[idx], da_rhs[idx]),
            )
        )

    b2 = np.arange(n, dtype=np.intp)[:, None]
    c2 = np.arange(n, dtype=np.intp)[None, :]
    Mbc = M[b2, c2]
    bc_lhs = O[lam4, a4, Mbc[None, None, :, :]]
    t1 = M[O, I[None, :, None]]
    bc_rhs = M[t1[:, :, :, None], O[:, :, None, :]]
    bc_ok = bc_lhs == bc_rhs
    if bc_ok.all():
        checks.append(Check("brace_compatibility", True))
    else:
        idx = _first_mismatch(bc_ok)
        checks.append(
            Check(
                "brace_compatibility",
                False,
                witness=_witness(names, idx, bc_lhs[idx], bc_rhs[idx]),
            )
        )

    e = dsb.group.identity
    zs_ok = O[:, e, :] == aran
    if zs_ok.all():
        checks.append(Check("zero_symmetric", True, required=False))
    else:
        lam, b = _first_mismatch(zs_ok)
        checks.append(
            Check(
                "zero_symmetric",
                False,
                required=False,
                witness={"vertex": names[lam], "labels": (e, b), "lhs": int(O[lam, e, b]), "rhs": b},
            )
        )
    return Report(tuple(checks))


def verify_computation_rules(dsb: DynamicalSkewBrace) -> Report:
    """The two derived product rules that follow from brace compatibility."""
    O = dsb.ops
    L, n = dsb.phi.shape
    M = np.array(dsb.group.table, dtype=LABEL_DTYPE)
    I = np.array(dsb.group.inverses, dtype=LABEL_DTYPE)
    names = dsb.vertex_names
    lam4 = np.arange(L, dtype=np.intp)[:, None, None, None]
    a4 = np.arange(n, dtype=np.intp)[None, :, None, None]
    b2 = np.arange(n, dtype=np.intp)[:, None]
    c2 = np.arange(n, dtype=np.intp)[None, :]
    a_elem = np.arange(n, dtype=np.intp)[None, :, None, None]

    checks = []
    # a *_lam (b^-1 c) = a (a *_lam b)^-1 (a *_lam c)
    arg = M[I[b2], c2]
    lhs = O[lam4, a4, arg[None, None, :, :]]
    rhs = M[M[a_elem, I[O[:, :, :, None]]], O[:, :, None, :]]
    ok = lhs == rhs
    if ok.all():
        checks.append(Check("product_rule_left_inverse", True))
    else:
        idx = _first_mismatch(ok)
        checks.append(
            Check("product_rule_left_inverse", False, witness=_witness(names, idx, lhs[idx], rhs[idx]))
        )
    # a *_lam (b c^-1) = (a *_lam b)(a *_lam c)^-1 a
    arg = M[b2, I[c2]]
    lhs = O[lam4, a4, arg[None, None, :, :]]
    rhs = M[M[O[:, :, :, None], I[O[:, :, None, :]]], a_elem]
    ok = lhs == rhs
    if ok.all():
        checks.append(Check("product_rule_right_inverse", True))
    else:
        idx = _first_mismatch(ok)
        checks.append(
            Check("product_rule_right_inverse", False, witness=_witness(names, idx, lhs[idx], rhs[idx]))
        )
    return Report(tuple(checks))


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
        return quiver_of_dynamical_set(self.vertex_names, self.label_names, self.phi)


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


def verify_bracoid(bracoid: SkewBracoid) -> Report:
    """Axioms of the arrow structure, the out-star groups, the compatibility,
    and the two equivalent reformulations through the derived left action."""
    phi = bracoid.phi
    B = bracoid.bullet
    D = bracoid.dot
    units = bracoid.units
    unital = bracoid.unital
    L, n = phi.shape
    names = bracoid.vertex_names
    checks = []

    lam2 = np.arange(L, dtype=np.intp)[:, None]
    lam3 = np.arange(L, dtype=np.intp)[:, None, None]
    lam4 = np.arange(L, dtype=np.intp)[:, None, None, None]
    a3 = np.arange(n, dtype=np.intp)[None, :, None]
    b3 = np.arange(n, dtype=np.intp)[None, None, :]
    a4 = np.arange(n, dtype=np.intp)[None, :, None, None]
    b4 = np.arange(n, dtype=np.intp)[None, None, :, None]
    c4 = np.arange(n, dtype=np.intp)[None, None, None, :]
    aran = np.arange(n, dtype=B.dtype)

    failure = None
    # targets: the composite of [lam|a] and [phi(lam,a)|b] must also end at phi(phi(lam,a),b)
    targets_ok = phi[lam3, B] == phi[phi[:, :, None], b3]
    if not targets_ok.all():
        idx = _first_mismatch(targets_ok)
        failure = _witness(names, idx, note="composite arrow has the wrong target")
    if failure is None:
        rows_ok = (np.sort(B, axis=2) == aran).all(axis=2)
        if not rows_ok.all():
            lam, a = _first_mismatch(rows_ok)
            failure = {"vertex": names[lam], "labels": (a,), "note": "left multiplication not bijective"}
    if failure is None:
        inner = B[phi[:, :, None, None], b4, c4]
        assoc_ok = B[lam4, a4, inner] == B[lam4, B[:, :, :, None], c4]
        if not assoc_ok.all():
            idx = _first_mismatch(assoc_ok)
            lhs = B[lam4, a4, inner][idx]
            rhs = B[lam4, B[:, :, :, None], c4][idx]
            failure = _witness(names, idx, lhs, rhs, note="bullet not associative")
    if failure is None:
        u_here = np.where(unital, units, 0).astype(np.intp)
        # loops and left units on unital vertices
        loop_ok = ~unital | (phi[np.arange(L), u_here] == np.arange(L))
        left_ok = ~unital[:, None] | (B[lam2, u_here[:, None], np.arange(n, dtype=np.intp)[None, :]] == aran[None, :])
        # right units: x bullet unit(target) = x whenever the target is unital
        tgt = phi
        tgt_unital = unital[tgt]
        u_tgt = np.where(tgt_unital, units[tgt], 0).astype(np.intp)
        right_ok = ~tgt_unital | (B[lam2, np.arange(n, dtype=np.intp)[None, :], u_tgt] == aran[None, :])
        if not loop_ok.all():
            lam = int(np.argwhere(~loop_ok)[0][0])
            failure = {"vertex": names[lam], "labels": (int(units[lam]),), "note": "unit label is not a loop"}
        elif not left_ok.all():
            lam, b = _first_mismatch(left_ok)
            failure = {"vertex": names[lam], "labels": (int(units[lam]), b), "note": "unit is not a left unit"}
        elif not right_ok.all():
            lam, a = _first_mismatch(right_ok)
            failure = {"vertex": names[lam], "labels": (a,), "note": "unit is not a right unit"}
    if failure is None and bool(unital.any()):
        # inverses between unital vertices
        u_here = np.where(unital, units, 0).astype(np.intp)
        ldiv = np.zeros_like(B)
        ldiv[lam3, a3, B] = b3
        cinv = ldiv[lam2, np.arange(n, dtype=np.intp)[None, :], u_here[:, None]]
        mu = phi
        pair_unital = unital[:, None] & unital[mu]
        back = B[mu, cinv, np.arange(n, dtype=np.intp)[None, :]]
        inv_ok = ~pair_unital | (back == np.where(unital[mu], units[mu], 0))
        if not inv_ok.all():
            lam, a = _first_mismatch(inv_ok)
            failure = {"vertex": names[lam], "labels": (a,), "note": "no two-sided inverse"}
    checks.append(
        Check("groupoid_or_semiloopoid", failure is None, witness=failure)
    )
    checks.append(Check("groupoid", bool(unital.all()), required=False))

    # per-vertex groups
    failure = None
    rows_ok = (np.sort(D, axis=2) == aran).all(axis=(1, 2))
    cols_ok = (np.sort(D, axis=1) == aran[:, None]).all(axis=(1, 2))
    if not (rows_ok & cols_ok).all():
        lam = int(np.argwhere(~(rows_ok & cols_ok))[0][0])
        failure = {"vertex": names[lam], "note": "vertex operation is not a Latin square"}
    if failure is None:
        assoc_ok = D[lam4, D[:, :, :, None], c4] == D[lam4, a4, D[:, None, :, :]]
        if not assoc_ok.all():
            idx = _first_mismatch(assoc_ok)
            failure = _witness(names, idx, note="vertex operation not associative")
    if failure is None:
        row_id = (D == aran[None, None, :]).all(axis=2)
        col_id = (D == aran[None, :, None]).all(axis=1)
        has_unit = (row_id & col_id).any(axis=1)
        if not has_unit.all():
            lam = int(np.argwhere(~has_unit)[0][0])
            failure = {"vertex": names[lam], "note": "vertex operation has no unit"}
        else:
            e_arr = np.argmax(row_id & col_id, axis=1)
            match_ok = ~unital | (e_arr == units)
            if not match_ok.all():
                lam = int(np.argwhere(~match_ok)[0][0])
                failure = {
                    "vertex": names[lam],
                    "lhs": int(e_arr[lam]),
                    "rhs": int(units[lam]),
                    "note": "vertex group unit differs from the unit loop",
                }
    checks.append(Check("per_vertex_groups", failure is None, witness=failure))

    if failure is not None or not checks[0].passed:
        # remaining identities presuppose the structure above
        checks.append(Check("bracoid_compatibility", False, witness={"note": "skipped: structure invalid"}))
        checks.append(Check("action_composition", False, witness={"note": "skipped: structure invalid"}))
        checks.append(Check("action_distributivity", False, witness={"note": "skipped: structure invalid"}))
        return Report(tuple(checks))

    row_id = (D == aran[None, None, :]).all(axis=2)
    col_id = (D == aran[None, :, None]).all(axis=1)
    e_arr = np.argmax(row_id & col_id, axis=1)
    dotinv = np.argmax(D == e_arr[:, None, None], axis=2)

    # x bullet (y dot z) = (x bullet y) dot x^-1 dot (x bullet z)
    D2 = D[phi[:, :, None, None], b4, c4]
    lhs = B[lam4, a4, D2]
    t1 = D[lam3, B, dotinv[lam2, np.arange(n, dtype=np.intp)[None, :]][:, :, None]]
    rhs = D[lam4, t1[:, :, :, None], B[:, :, None, :]]
    ok = lhs == rhs
    if ok.all():
        checks.append(Check("bracoid_compatibility", True))
    else:
        idx = _first_mismatch(ok)
        checks.append(
            Check("bracoid_compatibility", False, witness=_witness(names, idx, lhs[idx], rhs[idx]))
        )

    # derived left action  a -> b := a^-1 dot (a bullet b)
    R = D[lam3, dotinv[:, :, None], B]
    Rmu = R[phi[:, :, None, None], b4, c4]
    lhs = R[lam4, B[:, :, :, None], c4]
    rhs = R[lam4, a4, Rmu]
    ok = lhs == rhs
    if ok.all():
        checks.append(Check("action_composition", True))
    else:
        idx = _first_mismatch(ok)
        checks.append(
            Check("action_composition", False, witness=_witness(names, idx, lhs[idx], rhs[idx]))
        )

    lhs = R[lam4, a4, D2]
    rhs = D[lam4, R[:, :, :, None], R[:, :, None, :]]
    ok = lhs == rhs
    if ok.all():
        checks.append(Check("action_distributivity", True))
    else:
        idx = _first_mismatch(ok)
        checks.append(
            Check("action_distributivity", False, witness=_witness(names, idx, lhs[idx], rhs[idx]))
        )
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
    phi, B, D = bracoid.phi, bracoid.bullet, bracoid.dot
    L, n = phi.shape
    lam2 = np.arange(L, dtype=np.intp)[:, None]
    lam3 = np.arange(L, dtype=np.intp)[:, None, None]
    a3 = np.arange(n, dtype=np.intp)[None, :, None]
    b3 = np.arange(n, dtype=np.intp)[None, None, :]
    aran = np.arange(n, dtype=B.dtype)

    row_id = (D == aran[None, None, :]).all(axis=2)
    col_id = (D == aran[None, :, None]).all(axis=1)
    e_arr = np.argmax(row_id & col_id, axis=1)
    dotinv = np.argmax(D == e_arr[:, None, None], axis=2)

    right = D[lam3, dotinv[:, :, None], B]
    ldiv = np.zeros_like(B)
    ldiv[lam3, a3, B] = b3
    left = ldiv[lam3, right, B]
    return QuiverBraiding(_frozen(right), _frozen(left))


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
    checks = []

    lam2 = np.arange(L, dtype=np.intp)[:, None]
    lam3 = np.arange(L, dtype=np.intp)[:, None, None]
    lam4 = np.arange(L, dtype=np.intp)[:, None, None, None]
    a2 = np.arange(n, dtype=np.intp)[None, :]
    a3 = np.arange(n, dtype=np.intp)[None, :, None]
    b3 = np.arange(n, dtype=np.intp)[None, None, :]
    a4 = np.arange(n, dtype=np.intp)[None, :, None, None]
    b4 = np.arange(n, dtype=np.intp)[None, None, :, None]
    c4 = np.arange(n, dtype=np.intp)[None, None, None, :]

    def add(name, ok_arr, lhs=None, rhs=None, required=True):
        if bool(np.asarray(ok_arr).all()):
            checks.append(Check(name, True, required=required))
            return True
        idx = _first_mismatch(np.asarray(ok_arr))
        wit = _witness(
            names,
            idx,
            None if lhs is None else lhs[idx],
            None if rhs is None else rhs[idx],
        )
        checks.append(Check(name, False, required=required, witness=wit))
        return False

    # sigma must be a quiver morphism on paths: outer source and target are kept
    W = phi[lam3, SR]
    sigma_targets_ok = phi[W, SL] == phi[phi[:, :, None], b3]
    add("sigma_quiver_morphism", sigma_targets_ok)

    # braid relation on label triples (lam, a, b, c)
    mu4 = phi[:, :, None, None]

    def s12(t):
        a, b, c = t
        return SR[lam4, a, b], SL[lam4, a, b], np.broadcast_to(c, np.broadcast_shapes(a.shape, c.shape))

    def s23(t):
        a, b, c = t
        m = phi[lam4, a]
        return np.broadcast_to(a, m.shape), SR[m, b, c], SL[m, b, c]

    start = (
        np.broadcast_to(a4, (L, n, n, n)),
        np.broadcast_to(b4, (L, n, n, n)),
        np.broadcast_to(c4, (L, n, n, n)),
    )
    lhs_t = s12(s23(s12(start)))
    rhs_t = s23(s12(s23(start)))
    ybe_ok = (lhs_t[0] == rhs_t[0]) & (lhs_t[1] == rhs_t[1]) & (lhs_t[2] == rhs_t[2])
    add("ybe", ybe_ok)

    # unit axioms on arrows between unital vertices
    tgt = phi
    both_unital = unital[:, None] & unital[tgt]
    u_here = np.where(unital, units, 0).astype(np.intp)
    u_tgt = np.where(unital[tgt], units[tgt], 0).astype(np.intp)
    bg1_ok = ~both_unital | (
        (SR[lam2, a2, u_tgt] == u_here[:, None]) & (SL[lam2, a2, u_tgt] == a2)
    )
    add("bg1", bg1_ok)
    bg2_ok = ~both_unital | (
        (SR[lam2, u_here[:, None], a2] == a2) & (SL[lam2, u_here[:, None], a2] == u_tgt)
    )
    add("bg2", bg2_ok)

    # hexagons, componentwise
    Byz = B[mu4, b4, c4]
    SRab = SR[:, :, :, None]
    SLab = SL[:, :, :, None]
    Wab = phi[lam4, SRab]
    inner = SR[Wab, SLab, c4]
    bg3a = SR[lam4, a4, Byz] == B[lam4, SRab, inner]
    lhs_lab = SL[lam4, a4, Byz]
    lhs_v = phi[lam4, SR[lam4, a4, Byz]]
    rhs_lab = SL[Wab, SLab, c4]
    rhs_v = phi[Wab, SR[Wab, SLab, c4]]
    bg3b = (lhs_lab == rhs_lab) & (lhs_v == rhs_v)
    add("bg3", bg3a & bg3b)

    Bab = B[:, :, :, None]
    SRmu = SR[mu4, b4, c4]
    bg4a = SR[lam4, Bab, c4] == SR[lam4, a4, SRmu]
    lhs_lab = SL[lam4, Bab, c4]
    lhs_v = phi[lam4, SR[lam4, Bab, c4]]
    t1 = SL[lam4, a4, SRmu]
    v1 = phi[lam4, SR[lam4, a4, SRmu]]
    t2 = SL[mu4, b4, c4]
    bg4b = (lhs_lab == B[v1, t1, t2]) & (lhs_v == v1)
    add("bg4", bg4a & bg4b)

    bg5_ok = B[lam3, SR, SL] == B
    add("bg5", bg5_ok)

    aran = np.arange(n, dtype=SR.dtype)
    left_nd = (np.sort(SR, axis=2) == aran).all(axis=2)
    add("left_nondegenerate", left_nd)

    indeg = np.bincount(np.asarray(phi).ravel(), minlength=L)
    y_id = (phi[:, :, None] * n + b3).astype(np.int64)
    img = (W * n + SL).astype(np.int64)
    combined = y_id * (L * n) + img
    injective = np.unique(combined).size == combined.size
    counts_ok = (indeg[:, None] == indeg[phi]) | (indeg[:, None] == 0)
    right_required = bool(unital.all())
    checks.append(
        Check(
            "right_nondegenerate",
            bool(injective and counts_ok.all()),
            required=right_required,
        )
    )

    r2 = SR[lam3, SR, SL]
    l2 = SL[lam3, SR, SL]
    involutive_ok = (r2 == a3) & (l2 == b3)
    add("involutive", involutive_ok, required=False)
    return Report(tuple(checks))


def braiding_quadruples(bracoid: SkewBracoid, braiding: QuiverBraiding) -> list[list]:
    """The braiding as a sorted list of [x, y, x->y, x<-y] with arrows as
    [vertex name, label] pairs."""
    out = []
    names = bracoid.vertex_names
    L, n = bracoid.phi.shape
    for lam in range(L):
        for a in range(n):
            mu = int(bracoid.phi[lam, a])
            for b in range(n):
                r = int(braiding.right[lam, a, b])
                l = int(braiding.left[lam, a, b])
                w = int(bracoid.phi[lam, r])
                out.append(
                    [[names[lam], a], [names[mu], b], [names[lam], r], [names[w], l]]
                )
    return out


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
    missing = [v for v in names if not isinstance(table, Mapping) or v not in table]
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
