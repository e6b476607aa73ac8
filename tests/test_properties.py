"""Property-based differential tests of the maximum clique searches and
the minimum transversal.

Random small families (ground <= 10, at most 12 members, duplicates
allowed) are checked against the all-subsets scans in helpers, for the
value and the lex-least witness, and for the enumerations the full list
of optima.  Half of the families are symmetric: closed under a rotation
of the ground set, or under the rotation and the reflection e -> -e
(the dihedral group), and carrying those permutations as their
symmetry, so the searches also branch on orbits, skip branches whose
image was searched and close their optima under the group.  Families
closed under antipodal transpositions as well carry them as swaps, and
every clique solver must answer on them as it does with no symmetry at
all.  Down-closed families, with the empty set and repeated members,
check the forced takes of nested members.  A last property relabels the
ground set and checks that no value and no optimum changes.
derandomize keeps every run on the same examples.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

import helpers
from ekrlab.families import SetFamily, mask_of
from ekrlab.solvers import Limits, enumerate_maximum_s_intersecting, \
    max_intersecting_sperner, max_nonstar_s_intersecting, max_s_intersecting, \
    max_triangular_intersecting, min_transversal

MAX_GROUND = 10
MAX_MEMBERS = 12

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _permute(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for e, image in enumerate(perm):
        if (mask >> e) & 1:
            out |= 1 << image
    return out


@st.composite
def families(draw) -> SetFamily:
    ground = draw(st.integers(1, MAX_GROUND))
    member = st.integers(0, (1 << ground) - 1)
    if not draw(st.booleans()):
        sets = draw(st.lists(member, max_size=MAX_MEMBERS))
        return SetFamily(ground=ground, sets=tuple(sorted(sets)))
    symmetry = [tuple((e + 1) % ground for e in range(ground))]
    if draw(st.booleans()):
        symmetry.append(tuple(-e % ground for e in range(ground)))
    sets = _orbits(draw(st.lists(member, min_size=1, max_size=4)), symmetry)
    return SetFamily(ground=ground, sets=tuple(sorted(sets)), symmetry=tuple(symmetry))


def _orbits(seeds, perms) -> list[int]:
    """Whole orbits of the seed masks under perms, while they fit."""
    sets: list[int] = []
    for seed in seeds:
        orbit = [seed]
        for mask in orbit:
            for perm in perms:
                if (image := _permute(mask, perm)) not in orbit:
                    orbit.append(image)
        if len(sets) + len(orbit) <= MAX_MEMBERS:
            sets += orbit
    return sets


@st.composite
def swapped_families(draw) -> SetFamily:
    """A family on an even ground set closed under the antipodal
    transpositions e <-> e + ground/2, carried as its swaps, and under
    the rotation, carried as its symmetry or dropped; the rotation maps
    each antipodal pair to another, so the swaps generate a normal
    subgroup."""
    half = draw(st.integers(1, MAX_GROUND // 2))
    ground = 2 * half
    rotation = tuple((e + 1) % ground for e in range(ground))
    swaps = tuple((e, e + half) for e in range(half))
    transpositions = [tuple(b if e == a else a if e == b else e for e in range(ground))
                      for a, b in swaps]
    member = st.integers(0, (1 << ground) - 1)
    sets = _orbits(draw(st.lists(member, min_size=1, max_size=4)),
                   [rotation] + transpositions)
    symmetry = (rotation,) if draw(st.booleans()) else ()
    return SetFamily(ground=ground, sets=tuple(sorted(sets)), symmetry=symmetry, swaps=swaps)


@st.composite
def hereditary_families(draw) -> SetFamily:
    """A down-closed family: every subset of a drawn member of at most
    three elements, the empty set among them, while the family stays
    small, then a few members repeated.  Nested members abound, so the
    s-intersecting searches take forced takes."""
    ground = draw(st.integers(1, 6))
    small = st.lists(st.integers(0, ground - 1), max_size=3).map(mask_of)
    sets: set[int] = set()
    for top in draw(st.lists(small, min_size=1, max_size=4)):
        below = {sub for sub in range(top + 1) if sub & top == sub}
        if len(sets | below) <= MAX_MEMBERS - 3:
            sets |= below
    members = sorted(sets)
    members += draw(st.lists(st.sampled_from(members), max_size=3))
    return SetFamily(ground=ground, sets=tuple(sorted(members)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(hereditary_families())
def test_hereditary_families(fam):
    # every s-intersecting search at s = 1..3, the enumerations also
    # under the caps 0, 1 and 5 (helpers.solver_outcomes), against the
    # subset scans
    outcomes = helpers.solver_outcomes(fam)
    caps = (Limits().optima_cap, 0, 1, 5)
    for s in (1, 2, 3):
        for kind, enum, nonstar in (("max", "enumerate", False),
                                    ("nonstar", "nonstar-enumerate", True)):
            value, optima = helpers.naive_all_max_s_intersecting(fam, s, nonstar)
            if not optima:
                # no non-star subfamily at all
                infeasible = (0, (), None, False, True, True, None)
                assert outcomes[kind, s] == infeasible
                assert all(outcomes[enum, s, cap] == infeasible for cap in caps)
                continue
            witness = min(optima)
            assert outcomes[kind, s] == (value, witness, None, False, True, False, None)
            for cap in caps:
                got, got_witness, sample, hit, exact, infeasible, _ = outcomes[enum, s, cap]
                assert (got, got_witness, exact, infeasible) == (value, witness, True, False)
                if len(optima) <= cap:
                    assert sample == tuple(sorted(optima)) and not hit
                else:
                    # a capped list is a sample: cap distinct optima, sorted
                    assert hit and len(sample) == cap and set(sample) <= optima
                    assert list(sample) == sorted(set(sample))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(swapped_families())
def test_swaps_do_not_change_answers(fam):
    # every clique solver at s = 1..3, the enumerations also capped
    assert helpers.solver_outcomes(fam) == \
        helpers.solver_outcomes(replace(fam, symmetry=(), swaps=()))


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


@SETTINGS
@given(families(), st.sampled_from((1, 2, 3)))
def test_enumerate_maximum_s_intersecting(fam, s):
    value, optima = helpers.naive_all_max_s_intersecting(fam, s)
    res = enumerate_maximum_s_intersecting(fam, s)
    assert (res.value, res.all_optima) == (value, tuple(sorted(optima)))
    assert res.value_exact and not res.limits_hit


@SETTINGS
@given(families(), st.sampled_from((1, 2, 3)))
def test_enumerate_nonstar_optima(fam, s):
    value, optima = helpers.naive_all_max_s_intersecting(fam, s, nonstar=True)
    res = max_nonstar_s_intersecting(fam, s, enumerate_optima=True)
    assert res.value == value
    assert res.value_exact and not res.limits_hit
    if optima:
        assert res.all_optima == tuple(sorted(optima)) and not res.infeasible
    else:
        assert res.infeasible and res.all_optima is None


@SETTINGS
@given(families(), st.integers(0, 12))
def test_min_transversal(fam, budget):
    res = min_transversal(fam)
    cut = min_transversal(fam, Limits(node_budget=budget))
    if 0 in fam.sets:
        # an empty member cannot be hit
        assert res.infeasible and (res.value, res.witness) == (0, ())
        assert cut == res
        return
    expected = helpers.naive_lex_least_transversal(fam)
    assert (res.value, res.witness) == (len(expected), expected)
    assert res.value_exact and not res.limits_hit and not res.infeasible
    # under a budget: a hitting set within the budget, never below tau,
    # and exactly tau whenever the value is claimed exact
    assert cut.nodes <= budget
    assert cut.value == len(cut.witness) >= res.value
    assert all(m & mask_of(cut.witness) for m in fam.sets)
    if cut.value_exact:
        assert cut.value == res.value
    if not cut.limits_hit:
        assert cut == res


@st.composite
def relabelled(draw):
    """A family, and its copy under a drawn relabelling of the ground set
    (re-sorting the images permutes the members) with the symmetry
    dropped or conjugated; also the relabelling's inverse."""
    fam = draw(families())
    perm = tuple(draw(st.permutations(range(fam.ground))))
    inverse = [0] * fam.ground
    for e, image in enumerate(perm):
        inverse[image] = e
    symmetry = ()
    if draw(st.booleans()):
        # conjugate by perm: the image of perm[e] is perm[g[e]]
        symmetry = tuple(tuple(perm[g[inverse[e]]] for e in range(fam.ground))
                         for g in fam.symmetry)
    sets = tuple(sorted(_permute(mask, perm) for mask in fam.sets))
    return fam, SetFamily(ground=fam.ground, sets=sets, symmetry=symmetry), tuple(inverse)


def _optima_masks(fam, optima, perm=None):
    """Each optimum as the sorted masks of its members, relabelled by
    perm when given; the optima sorted."""
    sets = fam.sets if perm is None else [_permute(m, perm) for m in fam.sets]
    return sorted(tuple(sorted(sets[i] for i in opt)) for opt in optima)


@SETTINGS
@given(relabelled(), st.sampled_from((1, 2, 3)))
def test_relabelling_invariance(case, s):
    fam, moved, inverse = case
    for solve in (max_s_intersecting, max_nonstar_s_intersecting,
                  max_triangular_intersecting):
        assert solve(moved, s).value == solve(fam, s).value
    assert min_transversal(moved).value == min_transversal(fam).value
    assert max_intersecting_sperner(moved).value == max_intersecting_sperner(fam).value
    res = enumerate_maximum_s_intersecting(fam, s)
    res_moved = enumerate_maximum_s_intersecting(moved, s)
    assert res_moved.value == res.value and not res_moved.limits_hit
    assert _optima_masks(moved, res_moved.all_optima, inverse) \
        == _optima_masks(fam, res.all_optima)
