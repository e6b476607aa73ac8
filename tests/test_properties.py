"""Property-based differential tests of the maximum clique searches.

Random small families (ground <= 10, at most 12 members, duplicates
allowed) are checked against the all-subsets scans in helpers, for the
value and the lex-least witness.  Half of the families are closed under
a rotation of the ground set and carry it as their symmetry, so the
searches also branch on orbits.  derandomize keeps every run on the same
examples.
"""

from hypothesis import given, settings, strategies as st

import helpers
from ekrlab.families import SetFamily
from ekrlab.solvers import max_nonstar_s_intersecting, max_s_intersecting, \
    max_triangular_intersecting

MAX_GROUND = 10
MAX_MEMBERS = 12

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _rotate(mask: int, ground: int) -> int:
    return ((mask << 1) | (mask >> (ground - 1))) & ((1 << ground) - 1)


@st.composite
def families(draw) -> SetFamily:
    ground = draw(st.integers(1, MAX_GROUND))
    member = st.integers(0, (1 << ground) - 1)
    if not draw(st.booleans()):
        sets = draw(st.lists(member, max_size=MAX_MEMBERS))
        return SetFamily(ground=ground, sets=tuple(sorted(sets)))
    # whole orbits under the rotation e -> e+1 mod ground, while they fit
    sets: list[int] = []
    for seed in draw(st.lists(member, min_size=1, max_size=4)):
        orbit = [seed]
        while (image := _rotate(orbit[-1], ground)) != seed:
            orbit.append(image)
        if len(sets) + len(orbit) <= MAX_MEMBERS:
            sets += orbit
    rotation = tuple((e + 1) % ground for e in range(ground))
    return SetFamily(ground=ground, sets=tuple(sorted(sets)), symmetry=(rotation,))


@SETTINGS
@given(families(), st.sampled_from((1, 2, 3)))
def test_max_s_intersecting(fam, s):
    value, optima = helpers.naive_all_max_s_intersecting(fam, s)
    res = max_s_intersecting(fam, s)
    assert (res.value, res.witness) == (value, min(optima))
    assert res.value_exact and not res.limits_hit


@SETTINGS
@given(families(), st.sampled_from((1, 2, 3)))
def test_max_nonstar_s_intersecting(fam, s):
    value, optima = helpers.naive_all_max_s_intersecting(fam, s, nonstar=True)
    res = max_nonstar_s_intersecting(fam, s)
    assert res.value == value
    assert res.value_exact and not res.limits_hit
    if optima:
        assert res.witness == min(optima) and not res.infeasible
    else:
        assert res.infeasible and res.witness == ()


@SETTINGS
@given(families(), st.sampled_from((1, 2, 3)))
def test_max_triangular_intersecting(fam, s):
    res = max_triangular_intersecting(fam, s)
    assert (res.value, res.witness) == helpers.naive_max_triangular(fam, s)
    assert res.value_exact and not res.limits_hit
