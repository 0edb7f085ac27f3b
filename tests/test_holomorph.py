import itertools
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dynbrace.groups import _REPORT_PRESETS, build_group
from dynbrace.holomorph import holomorph
from tests import _golden
from tests._golden import orbit_closure, translate

ROOT = Path(__file__).resolve().parent.parent


def hol_mul(x, y, group):
    """(a, f) * (b, g) = (a f(b), f o g) in Hol(A), on the holomorph's arrays."""
    hol = holomorph(group)
    (a, f), (b, g) = x, y
    return group.mul(a, hol.act[f, b]), int(hol.compose(f, g))


def hol_inv(x, group):
    """(a, f)^-1 = (f^-1(a^-1), f^-1)."""
    hol = holomorph(group)
    a, f = x
    fi = int(hol.ainv[f])
    return int(hol.act[fi, group.inv(a)]), fi


def identity_subset(group):
    return (0,) * group.order


def is_unital(assignment, group):
    return assignment[group.identity] == 0


Z3 = build_group("cyclic:3")
Z4 = build_group("cyclic:4")
K4 = build_group("klein4")

# assignments over cyclic:3; automorphism 1 is negation
S0 = (0, 0, 0)
S1 = (0, 1, 0)
S2 = (0, 0, 1)
S3 = (0, 1, 1)
R0 = (1, 1, 1)


def test_unit_of_semidirect_product():
    for b in range(3):
        for g in range(2):
            assert hol_mul((0, 0), (b, g), Z3) == (b, g)


def test_negation_pair_squares_to_unit():
    x = (1, 1)  # (1, -id) in the order-3 case
    assert hol_mul(x, x, Z3) == (0, 0)


def test_inverse_examples():
    assert hol_inv((0, 0), Z3) == (0, 0)
    assert hol_inv((1, 1), Z3) == (1, 1)


@pytest.mark.parametrize("group", [Z4, K4])
def test_inverse_law_exhaustive(group):
    hol = holomorph(group)
    for a in range(group.order):
        for f in range(len(hol.act)):
            x = (a, f)
            assert hol_mul(x, hol_inv(x, group), group) == (0, 0)
            assert hol_mul(hol_inv(x, group), x, group) == (0, 0)


def test_hol_mul_associative_on_klein4():
    hol = holomorph(K4)
    elements = [(a, f) for a in range(4) for f in range(len(hol.act))]
    for x, y, z in itertools.islice(itertools.product(elements, repeat=3), 0, None, 7):
        assert hol_mul(hol_mul(x, y, K4), z, K4) == hol_mul(x, hol_mul(y, z, K4), K4)


def test_translate_matches_worked_family():
    assert translate(S1, 1, Z3) == S3
    assert translate(S1, 2, Z3) == S2
    for a in range(3):
        assert translate(S0, a, Z3) == S0


def test_translate_by_identity_fixes_unital():
    for s in (S0, S1, S2, S3):
        assert translate(s, 0, Z3) == s


def test_translate_initial_vertex_hits_identity_family():
    for a in range(3):
        assert translate(R0, a, Z3) == S0


def test_inverse_identity_fails_off_the_unital_part():
    # counterexample showing why the identity is a unital-only fact:
    # all arrows of R0 land on the all-identity family
    hol = holomorph(Z3)
    a, fa = 1, R0[1]
    fi = hol.ainv[fa]
    position = Z3.inv(hol.act[fi][a])
    assert translate(R0, a, Z3)[position] != fi


def test_orbit_closures():
    assert orbit_closure(S0, Z3) == (S0,)
    assert set(orbit_closure(S1, Z3)) == {S1, S2, S3}
    assert set(orbit_closure(R0, Z3)) == {R0, S0}


def test_orbit_closure_sorted_canonically():
    orbit = orbit_closure(S1, Z3)
    assert list(orbit) == sorted(orbit)


def small_group_and_subset():
    names = st.sampled_from(["cyclic:3", "cyclic:4", "klein4", "cyclic:6", "sym:3"])

    @st.composite
    def build(draw):
        group = build_group(draw(names))
        k = len(holomorph(group).act)
        assignment = tuple(
            draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(group.order)
        )
        return group, assignment

    return build()


@given(small_group_and_subset())
def test_translation_composition_law(pair):
    # translate(translate(S,a), b) == translate(S, a * f_a(b))
    group, s = pair
    hol = holomorph(group)
    for a in range(group.order):
        fa = s[a]
        for b in range(group.order):
            ab = group.mul(a, hol.act[fa][b])
            assert translate(translate(s, a, group), b, group) == translate(s, ab, group)


@given(small_group_and_subset())
def test_translate_of_unital_is_unital(pair):
    group, s = pair
    s = (0,) + s[1:]
    for a in range(group.order):
        assert is_unital(translate(s, a, group), group)


@given(small_group_and_subset())
def test_unital_orbit_size_divides_order(pair):
    group, s = pair
    s = (0,) + s[1:]
    orbit = orbit_closure(s, group)
    assert group.order % len(orbit) == 0


@given(small_group_and_subset())
def test_inverse_identity_for_assigned_automorphisms(pair):
    # in translate(S, a), the element (f_a^-1(a))^-1 carries f_a^-1;
    # this needs S unital (the identity pair supplies the inverse element)
    group, s = pair
    s = (0,) + s[1:]
    hol = holomorph(group)
    for a in range(group.order):
        fa = s[a]
        fi = hol.ainv[fa]
        target = translate(s, a, group)
        position = group.inv(hol.act[fi][a])
        assert target[position] == fi


def test_identity_subset_translates_to_itself():
    for group in (Z3, Z4, K4):
        s = identity_subset(group)
        for a in range(group.order):
            assert translate(s, a, group) == s


@pytest.mark.parametrize("name", [n for n in _REPORT_PRESETS if build_group(n).order <= 8])
def test_holomorph_tables_agree_with_the_dict_lookup_oracle(name):
    hol = holomorph(build_group(name))
    comp, ainv = _golden.holomorph_tables([tuple(row) for row in hol.act.tolist()])
    k = len(hol.act)
    assert hol.compose(np.arange(k)[:, None], np.arange(k)).tolist() == comp
    assert hol.ainv.tolist() == ainv
    for table in (hol.act, hol.ainv):
        assert table.dtype == np.int16 and not table.flags.writeable


_C2_4_CHILD = """
import resource, time
import numpy as np
from dynbrace.groups import build_group
from dynbrace.holomorph import holomorph

group = build_group("prod:cyclic:2,cyclic:2,cyclic:2,cyclic:2")
rss, cpu = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, time.process_time()
hol = holomorph(group)
cpu, rss = time.process_time() - cpu, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss
k = len(hol.act)
assert k == 20160, k
assert (hol.compose(hol.ainv, np.arange(k)) == 0).all()
f, g = np.random.default_rng(0).integers(0, k, size=(2, 1 << 16))
assert np.array_equal(hol.act[hol.compose(f, g)], np.take_along_axis(hol.act[f], hol.act[g].astype(np.intp), axis=1))
print(cpu, rss / 1024)
"""


def test_holomorph_of_c2_4_fits_in_two_gib():
    # Aut(C2^4) = GL(4, 2) has 20,160 elements: a (k, k) composition table
    # would be 813 MB, and building it from a (k, k, n) array asks for 12.1 GiB.
    # The limit applies to the child only.
    limit = 2 << 30

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _C2_4_CHILD], cwd=ROOT, env=env, preexec_fn=limit_address_space,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cpu_s, rss_growth_mb = map(float, proc.stdout.split())
    assert cpu_s < 1.0 and rss_growth_mb < 50


def test_automorphism_lookup_check_survives_optimised_python():
    # python -O strips assert statements; the lookup check must still raise
    child = (
        "import numpy as np\n"
        "from dynbrace.groups import build_group\n"
        "from dynbrace.holomorph import holomorph\n"
        "try:\n"
        "    holomorph(build_group('cyclic:4'))._index(np.zeros((1, 4), np.int16))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", child], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "an image row is not an automorphism\n"
