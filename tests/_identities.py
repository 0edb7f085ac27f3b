"""Whole-space checks of the translation identities on a :class:`KeySpace`."""
import numpy as np

from dynbrace.enumeration import KEY_DTYPE, KeySpace
from dynbrace.holomorph import holomorph


def check_translation_composition(space: KeySpace, tables: np.ndarray) -> None:
    """translate(translate(S,a),b) == translate(S, a *_S b) on the whole space.

    ``tables`` is the whole-space ``(n, K)`` :meth:`KeySpace.translation_table`.
    """
    keys = np.arange(space.size, dtype=KEY_DTYPE)
    digits = space.digits(keys)
    mul, act = space.group.table, holomorph(space.group).act
    for a in range(space.n):
        fa = digits[a].astype(np.intp)
        for b in range(space.n):
            ab = mul[a][act[fa, b]]
            lhs = tables[b][tables[a]]
            rhs = tables[ab, keys]
            if not np.array_equal(lhs, rhs):
                bad = int(np.argwhere(lhs != rhs)[0][0])
                raise AssertionError(
                    f"translation composition fails at key {bad}, labels ({a},{b})"
                )


def check_inverse_lemma(space: KeySpace) -> None:
    """In the translate of S along a, the element (f_a^-1(a))^-1 carries f_a^-1.

    A unital-only identity: it is the identity pair of S that lands on that
    element, so it is checked on the unital keys of the space.
    """
    keys = np.arange(space.size, dtype=KEY_DTYPE)
    digits = space.digits(keys)
    tables = space.translation_table()
    unital = digits[space.group.identity] == 0
    hol = holomorph(space.group)
    for a in range(space.n):
        fa = digits[a].astype(np.intp)
        fi = hol.ainv[fa].astype(np.intp)
        pos = space.group.inverses[hol.act[fi, a]]
        w = space.weights[pos]
        observed = np.where(w > 0, (tables[a] // np.where(w > 0, w, 1)) % space.radix, 0)
        ok = ~unital | (observed.astype(np.intp) == fi)
        if not ok.all():
            bad = int(np.argwhere(~ok)[0][0])
            raise AssertionError(f"inverse identity fails at key {bad}, label {a}")
