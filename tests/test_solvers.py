import random
from dataclasses import replace
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers
from ekrlab import paths, solvers, verdicts
from ekrlab.families import SetFamily, elems_of, is_s_intersecting, is_s_star, mask_of, \
    stats
from ekrlab.graphs import make_cycle, make_random_tree, make_sun, make_theta
from ekrlab.paths import enumerate_paths_all, enumerate_paths_r, enumerate_paths_upto, \
    to_setfamily
from ekrlab.projective import build_pg, field_of_order, make_field, rotational_family
from ekrlab.solvers import Limits, enumerate_maximum_s_intersecting, \
    helly_triple_check, max_intersecting_sperner, max_nonstar_s_intersecting, \
    max_s_intersecting, max_triangular_intersecting, min_transversal


def path_family(g, r):
    return to_setfamily(enumerate_paths_r(g, r))


# the rotational families of the set-systems benchmark workload
ROTATIONS = ((7, (0, 1, 3)), (13, (0, 1, 3, 9)), (21, (3, 6, 7, 12, 14)),
             (31, (1, 5, 11, 24, 25, 27)))


@st.composite
def build_families(draw) -> SetFamily:
    """Families for the graph-build differentials: ground sizes up to 20,
    empty members, members of at most three elements (so fewer than s at
    larger s), arbitrary members and repeated ones; or a twin_family, whose
    pendant copies are true twins."""
    if draw(st.integers(0, 3)) == 0:
        return helpers.twin_family(draw(st.integers(0, 10_000)))
    ground = draw(st.integers(1, 20))
    small = st.lists(st.integers(0, ground - 1), max_size=3).map(mask_of)
    member = st.one_of(st.just(0), small, st.integers(0, (1 << ground) - 1))
    sets = draw(st.lists(member, max_size=24))
    if sets:
        sets += [sets[i] for i in draw(st.lists(st.integers(0, len(sets) - 1), max_size=6))]
    return SetFamily(ground=ground, sets=tuple(sorted(sets)))


@st.composite
def search_families(draw) -> SetFamily:
    """Families for the subset scan: up to 10 members over at most 8
    elements, arbitrary or all of one size (uniform), with empty members
    and repeated ones; or a twin_family."""
    if draw(st.integers(0, 3)) == 0:
        return helpers.twin_family(draw(st.integers(0, 10_000)))
    ground = draw(st.integers(1, 8))
    size = draw(st.one_of(st.none(), st.integers(0, ground)))
    if size is None:
        member = st.one_of(st.just(0), st.integers(0, (1 << ground) - 1))
    else:
        member = st.sets(st.integers(0, ground - 1), min_size=size, max_size=size).map(mask_of)
    sets = draw(st.lists(member, max_size=10))
    if sets:
        sets += [sets[i] for i in draw(st.lists(st.integers(0, len(sets) - 1), max_size=3))]
    return SetFamily(ground=ground, sets=tuple(sorted(sets)))


def _quotient_of(fam, relation, by_degree):
    """The quotient of relation's rows over fam, as naive_twin_quotient
    gives it: (classes, rows)."""
    adj = relation(fam.elems, fam.holders)
    graph = solvers._twin_quotient(adj, fam.elems, relation, by_degree)
    return graph.members, graph.rows


# the families and s of the dense-search benchmark workload, r None for all paths
DENSE_SEARCH = {f"sun({n},{t})-r{r}-s{s}": (make_sun(n, t), r, s) for n, t, r, s in (
    (10, 4, 5, 1), (11, 4, 5, 1), (12, 4, 5, 1), (14, 3, 7, 2), (16, 3, 8, 2),
    (12, 3, 6, 1), (13, 3, 6, 1))}
DENSE_SEARCH.update({"sun(8,1)-all-s1": (make_sun(8, 1), None, 1),
                     "cycle(11)-all-s1": (make_cycle(11), None, 1)})


class TestGraphBuild:
    """Rows built from holder masks against the pair loops and the
    bit-by-bit quotient remap they replace, and the forced takes read off
    the quotient's rows."""

    SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

    @SETTINGS
    @given(build_families(), st.sampled_from((1, 2, 3, 4)))
    def test_compatibility_rows(self, fam, s):
        graph = solvers.CompatibilityGraph.build(fam, s)
        assert graph.m == len(fam)
        assert graph.adj == helpers.naive_compatibility_rows(fam, s)

    @SETTINGS
    @given(build_families())
    def test_sperner_rows(self, fam):
        assert solvers._sperner_rows(fam.elems, fam.holders) == helpers.naive_sperner_rows(fam)

    @SETTINGS
    @given(build_families(), st.sampled_from((1, 2, 3, 4)), st.booleans())
    def test_quotient_rows(self, fam, s, by_degree):
        relation = partial(solvers.meet_rows, s=s)
        adj = helpers.naive_compatibility_rows(fam, s)
        assert _quotient_of(fam, relation, by_degree) == \
            helpers.naive_twin_quotient(adj, by_degree)
        adj = helpers.naive_sperner_rows(fam)
        assert _quotient_of(fam, solvers._sperner_rows, by_degree) == \
            helpers.naive_twin_quotient(adj, by_degree)

    @SETTINGS
    @given(search_families(), st.sampled_from((1, 2, 3, 4)), st.booleans(),
           st.sampled_from((0, 1, 5)))
    def test_forced_takes_hold_the_neighbourhood(self, fam, s, nonstar, cap):
        # every forced take of the maximum, the enumeration and their
        # certifications is the least candidate whose members meet every
        # member of the node's other candidates, and the answers are the
        # subset scan's
        graph = solvers._compat_quotient(fam, s)
        rows = helpers.naive_compatibility_rows(fam, s)
        forced_take, takes = solvers._forced_take, []

        def recording(adj, cand):
            takes.append((adj, cand, forced_take(adj, cand)))
            return takes[-1][2]

        with mock.patch.object(solvers, "_forced_take", recording):
            if nonstar:
                maximum = max_nonstar_s_intersecting(fam, s)
                listed = max_nonstar_s_intersecting(fam, s, Limits(optima_cap=cap),
                                                    enumerate_optima=True)
            else:
                maximum = max_s_intersecting(fam, s)
                listed = enumerate_maximum_s_intersecting(fam, s, Limits(optima_cap=cap))
        for adj, cand, took in takes:
            assert adj == graph.rows
            universal = [q for q in elems_of(cand)
                         if all((rows[u] >> x) & 1 for p in elems_of(cand & ~(1 << q))
                                for u in graph.members[q] for x in graph.members[p])]
            assert took == (1 << universal[0] if universal else 0)
        value, optima = helpers.naive_all_max_s_intersecting(fam, s, nonstar)
        for res in (maximum, listed):
            assert res.value == value and res.value_exact
            if not optima:
                assert res.infeasible and res.witness == () and res.all_optima is None
                continue
            assert res.witness == min(optima)
        if optima:
            assert maximum.all_optima is None and not maximum.limits_hit
            assert listed.limits_hit == (len(optima) > cap)
            if listed.limits_hit:
                assert len(listed.all_optima) == cap and set(listed.all_optima) <= optima
            else:
                assert listed.all_optima == tuple(sorted(optima))

    @pytest.mark.parametrize("g, r, s", DENSE_SEARCH.values(), ids=DENSE_SEARCH.keys())
    def test_dense_search_families(self, g, r, s):
        fam = verdicts.build_family(g, "uniform" if r else "all-paths", r)
        adj = helpers.naive_compatibility_rows(fam, s)
        assert solvers.CompatibilityGraph.build(fam, s).adj == adj
        graph = solvers._compat_quotient(fam, s)
        assert (graph.members, graph.rows) == helpers.naive_twin_quotient(adj, True)


class TestMaxIntersecting:
    def test_cycle_window(self):
        assert max_s_intersecting(path_family(make_cycle(8), 3), 1).value == 3

    def test_sun_r3(self):
        assert max_s_intersecting(path_family(make_sun(8, 1), 3), 1).value == 7

    def test_sun_r4(self):
        fam = path_family(make_sun(8, 1), 4)
        res = max_s_intersecting(fam, 1)
        assert res.value == 12
        assert res.value == helpers.bk_max_s_intersecting(fam, 1)

    def test_witness_is_valid_and_lex_least(self):
        fam = path_family(make_cycle(9), 4)
        res = max_s_intersecting(fam, 1)
        sub = SetFamily(ground=fam.ground,
                        sets=tuple(sorted(fam.sets[i] for i in res.witness)))
        assert is_s_intersecting(sub, 1)
        enum = enumerate_maximum_s_intersecting(fam, 1)
        assert res.witness == min(enum.all_optima)

    def test_deterministic(self):
        fam = path_family(make_sun(6, 2), 4)
        a = max_s_intersecting(fam, 1)
        b = max_s_intersecting(fam, 1)
        assert (a.value, a.witness) == (b.value, b.witness)

    def test_matches_naive_scan(self):
        for seed in range(20):
            fam = helpers.mixed_intersecting_family(seed)
            if not 0 < len(fam) <= 12:
                continue
            for s in (1, 2):
                assert max_s_intersecting(fam, s).value == \
                    helpers.naive_max_s_intersecting(fam, s)

    def test_matches_bron_kerbosch(self):
        zoo = [path_family(make_cycle(10), 5), path_family(make_sun(5, 2), 3),
               path_family(make_theta((2, 5, 5)), 4)]
        for fam in zoo:
            for s in (1, 2):
                assert max_s_intersecting(fam, s).value == \
                    helpers.bk_max_s_intersecting(fam, s)

    def test_empty_family(self):
        res = max_s_intersecting(SetFamily(ground=4, sets=()), 1)
        assert res.value == 0 and res.witness == ()

    def test_node_budget_is_explicit(self):
        # twin-free, so the maximum search itself needs more than 5 nodes
        fam = path_family(make_sun(14, 3), 7)
        res = max_s_intersecting(fam, 2, Limits(node_budget=5))
        assert res.limits_hit and not res.value_exact
        true_value = max_s_intersecting(fam, 2).value
        assert res.value <= true_value

    def test_an_overrun_reports_the_budget(self):
        # the node that overran the budget was never searched
        fam = path_family(make_sun(10, 4), 5)
        for budget in (0, 5):
            res = max_s_intersecting(fam, 1, Limits(node_budget=budget))
            assert res.limits_hit and res.nodes == budget

    def test_dense_all_paths_families(self):
        # near-complete compatibility graphs with huge cliques; the
        # degree-ordered search must prove the lift-count optimum fast
        from ekrlab.oracles import sun_allpaths_counts
        for n, t in [(4, 2), (5, 2)]:
            fam = to_setfamily(enumerate_paths_all(make_sun(n, t)))
            res = max_s_intersecting(fam, 1)
            assert not res.limits_hit
            assert res.value == sun_allpaths_counts(n, t)["hm"]
            sub = SetFamily(ground=fam.ground,
                            sets=tuple(sorted(fam.sets[i] for i in res.witness)))
            assert len(res.witness) == res.value and is_s_intersecting(sub, 1)


class TestEnumerateMaximum:
    def test_all_optima_are_stars_small_cycle(self):
        fam = path_family(make_cycle(8), 3)
        res = enumerate_maximum_s_intersecting(fam, 1)
        assert res.value == 3 and len(res.all_optima) == 8
        for opt in res.all_optima:
            sub = SetFamily(ground=fam.ground,
                            sets=tuple(sorted(fam.sets[i] for i in opt)))
            assert is_s_star(sub, 1).is_star

    def test_nonstar_optimum_at_half(self):
        fam = path_family(make_cycle(6), 3)
        res = enumerate_maximum_s_intersecting(fam, 1)
        flags = []
        for opt in res.all_optima:
            sub = SetFamily(ground=fam.ground,
                            sets=tuple(sorted(fam.sets[i] for i in opt)))
            flags.append(is_s_star(sub, 1).is_star)
        assert not all(flags)

    def test_triangle_edges(self):
        fam = path_family(make_theta((1, 2)), 2)
        res = enumerate_maximum_s_intersecting(fam, 1)
        assert res.value == 3
        assert res.all_optima == ((0, 1, 2),)
        sub = SetFamily(ground=3, sets=fam.sets)
        assert not is_s_star(sub, 1).is_star

    def test_optima_cap(self):
        fam = path_family(make_cycle(12), 6)
        res = enumerate_maximum_s_intersecting(fam, 1, Limits(optima_cap=2))
        assert res.limits_hit and len(res.all_optima) == 2

    def test_negative_limits_are_rejected(self):
        # optima_cap=-1 used to give check_ekr a "star" verdict on an
        # empty optimum; zero stays legal for both
        for field in ("node_budget", "optima_cap"):
            with pytest.raises(ValueError, match=f"need {field} >= 0, got -1"):
                Limits(**{field: -1})
        assert Limits(node_budget=0, optima_cap=0).optima_cap == 0

    def test_capped_witness(self):
        # cap 5 keeps the uncapped lex-least witness; cap 0 still reports
        # an optimum of value members in both enumerations
        fam = path_family(make_cycle(12), 6)
        full = enumerate_maximum_s_intersecting(fam, 1)
        res = enumerate_maximum_s_intersecting(fam, 1, Limits(optima_cap=5))
        assert res.limits_hit and res.witness == full.witness
        for res in (enumerate_maximum_s_intersecting(fam, 1, Limits(optima_cap=0)),
                    max_nonstar_s_intersecting(fam, 1, Limits(optima_cap=0),
                                               enumerate_optima=True)):
            assert res.limits_hit and res.all_optima == ()
            assert res.value == len(res.witness) == 6
            sub = SetFamily(ground=fam.ground,
                            sets=tuple(sorted(fam.sets[i] for i in res.witness)))
            assert is_s_intersecting(sub, 1)

    def test_capped_nonstar_witness(self):
        # a capped non-star list is a sample; the witness is certified
        fam = path_family(make_cycle(12), 6)
        full = max_nonstar_s_intersecting(fam, 1, enumerate_optima=True)
        assert full.witness == (0, 1, 2, 3, 5, 7) and not full.limits_hit
        for cap in (0, 1, 5):
            res = max_nonstar_s_intersecting(fam, 1, Limits(optima_cap=cap),
                                             enumerate_optima=True)
            assert res.limits_hit and res.witness == full.witness

    def test_budget_overrun_keeps_best_known_clique(self):
        fam = path_family(make_sun(8, 2), 4)
        # the complete enumeration takes 3 nodes
        res = enumerate_maximum_s_intersecting(fam, 1, Limits(node_budget=2))
        assert res.limits_hit and not res.value_exact and res.all_optima is None
        # the star seed is the floor of the pass
        assert res.value == len(res.witness) == 24
        sub = SetFamily(ground=fam.ground,
                        sets=tuple(sorted(fam.sets[i] for i in res.witness)))
        assert is_s_intersecting(sub, 1)


def differential_families():
    for seed in range(30):
        for fam in (helpers.mixed_intersecting_family(seed), helpers.random_family(seed),
                    helpers.twin_family(seed)):
            if len(fam) <= 14:
                yield fam
    # pendant twins: paths that differ only in the pendant they end at
    yield path_family(make_sun(3, 2), 2)
    yield path_family(make_sun(4, 1), 3)
    yield path_family(make_sun(5, 1), 3)
    # many tied optima, so every cap below the count bites
    yield path_family(make_cycle(10), 5)
    yield path_family(make_cycle(12), 6)


def assert_cap_semantics(solve, optima, lex_least):
    """lex_least: the witness must be the least optimum under every cap;
    otherwise some optimum."""
    for cap in {0, max(len(optima) - 1, 0), len(optima)}:
        res = solve(Limits(optima_cap=cap))
        assert res.limits_hit == (len(optima) > cap) and res.value_exact
        assert len(res.all_optima) == min(cap, len(optima))
        assert set(res.all_optima) <= optima
        assert res.witness == min(optima) if lex_least else res.witness in optima


class TestOnePassAgainstSubsetScan:
    def test_maximum_optima(self):
        for fam in differential_families():
            for s in (1, 2, 3):
                value, optima = helpers.naive_all_max_s_intersecting(fam, s)
                res = enumerate_maximum_s_intersecting(fam, s)
                assert res.value == value and not res.limits_hit, (fam.name, s)
                assert res.all_optima == tuple(sorted(optima)), (fam.name, s)
                assert res.witness == min(optima)
                assert_cap_semantics(
                    lambda lim: enumerate_maximum_s_intersecting(fam, s, lim), optima, True)
                res = max_s_intersecting(fam, s)
                assert (res.value, res.witness) == (value, min(optima)), (fam.name, s)

    def test_nonstar_optima(self):
        for fam in differential_families():
            for s in (1, 2, 3):
                value, optima = helpers.naive_all_max_s_intersecting(fam, s, nonstar=True)
                res = max_nonstar_s_intersecting(fam, s, enumerate_optima=True)
                assert res.value == value and not res.limits_hit, (fam.name, s)
                if not optima:
                    assert res.infeasible and res.all_optima is None
                    continue
                assert res.all_optima == tuple(sorted(optima)), (fam.name, s)
                assert res.witness == min(optima)
                assert_cap_semantics(
                    lambda lim: max_nonstar_s_intersecting(fam, s, lim, enumerate_optima=True),
                    optima, True)

    def test_nonstar_maximum(self):
        # the non-enumerating path: a hooked maximum, then certification
        for fam in differential_families():
            for s in (1, 2, 3):
                value, optima = helpers.naive_all_max_s_intersecting(fam, s, nonstar=True)
                res = max_nonstar_s_intersecting(fam, s)
                assert res.value == value, (fam.name, s)
                assert res.value_exact and not res.limits_hit
                if optima:
                    assert res.witness == min(optima), (fam.name, s)
                else:
                    assert res.infeasible and res.witness == ()

    def test_triangular_maximum(self):
        for fam in differential_families():
            for s in (1, 2):
                res = max_triangular_intersecting(fam, s)
                assert (res.value, res.witness) == helpers.naive_max_triangular(fam, s), \
                    (fam.name, s)
                assert res.value_exact and not res.limits_hit


class TestNodeCounts:
    """Node counts are deterministic; a rise means the search tree grew."""

    def test_one_pass_enumeration(self):
        # pendant twins contract: 192 members, 36 weighted quotient vertices
        res = enumerate_maximum_s_intersecting(path_family(make_sun(12, 3), 6), 1)
        assert res.nodes <= 4

    @pytest.mark.parametrize("fam, s, value, nodes", [
        (lambda: path_family(make_sun(16, 3), 8), 2, 88, 332),
        (lambda: path_family(make_cycle(24), 12), 1, 12, 66),
        (lambda: to_setfamily(enumerate_paths_all(make_sun(8, 1))), 1, 144, 12),
    ], ids=["sun-16-3", "cycle-24", "all-paths-sun-8-1"])
    def test_cap_0_enumeration_is_the_maximum(self, fam, s, value, nodes):
        # 9,463, 90 and 106 nodes when cap 0 ran a closing pass to its
        # first clique and then a group-free sample pass; 4,126, 66 and 86
        # when only contained members were forced
        fam = fam()
        maximum = max_s_intersecting(fam, s)
        res = enumerate_maximum_s_intersecting(fam, s, Limits(optima_cap=0))
        assert res.all_optima == () and res.limits_hit and res.value_exact
        assert (res.value, res.witness, res.nodes) == \
            (maximum.value, maximum.witness, maximum.nodes)
        assert (res.value, res.nodes) == (value, nodes)

    def test_check_ekr_on_sun_12_4(self, monkeypatch):
        # 300 members in 36 twin classes; 144,136 nodes without contraction
        solved = []

        def recording(fam, s, limits):
            solved.append(enumerate_maximum_s_intersecting(fam, s, limits))
            return solved[-1]

        monkeypatch.setattr(verdicts, "enumerate_maximum_s_intersecting", recording)
        v = verdicts.check_ekr(make_sun(12, 4), "uniform", 6, 1)
        assert v.brute_value == 110 and v.value_exact and not v.limits_hit
        assert v.classification == "star" and v.is_strict
        [res] = solved
        assert len(res.all_optima) == 12 and res.nodes <= 4

    def test_nonstar_enumeration(self):
        # the cap counts non-star optima only: all 312 fit under 400
        res = max_nonstar_s_intersecting(path_family(make_cycle(26), 12), 1,
                                         Limits(optima_cap=400), enumerate_optima=True)
        assert res.nodes <= 194  # 1,648 with orbital branching alone
        assert len(res.all_optima) == 312 and not res.limits_hit

    @pytest.mark.parametrize("host, value, maximum_nodes, nodes", [
        (lambda: make_cycle(10), 50, 26, 13), (lambda: make_cycle(12), 72, 51, 21),
        (lambda: make_sun(6, 2), 162, 47, 7),
    ], ids=["cycle-10", "cycle-12", "sun-6-2"])
    def test_nonstar_enumeration_from_the_greedy_floor(self, host, value, maximum_nodes,
                                                       nodes):
        # all paths at s = 2, each with one non-star optimum.  From the
        # empty floor the enumeration took 162, 282 and 164 nodes at cap 0,
        # more than the maximum mode, and 81, 201 and 14 uncapped; 136,
        # 241 and 155 in the maximum mode and 17, 26 and 8 uncapped when
        # only contained members were forced
        fam = to_setfamily(enumerate_paths_all(host()))
        maximum = max_nonstar_s_intersecting(fam, 2)
        assert (maximum.value, maximum.nodes) == (value, maximum_nodes)
        res = max_nonstar_s_intersecting(fam, 2, Limits(optima_cap=0), enumerate_optima=True)
        assert res.all_optima == () and res.limits_hit and res.value_exact
        assert (res.value, res.witness, res.nodes) == \
            (maximum.value, maximum.witness, maximum.nodes)
        res = max_nonstar_s_intersecting(fam, 2, enumerate_optima=True)
        assert not res.limits_hit and res.value_exact and len(res.all_optima) == 1
        assert (res.value, res.witness, res.nodes) == (value, maximum.witness, nodes)

    def test_orbital_enumeration_on_sun_16_3(self):
        # its 16 optima are the rotations of one star; 10,442 nodes
        # without orbital branching, 4,499 without the dominance check,
        # 3,267 without the pendant swaps, 531 when only contained members
        # were forced
        res = enumerate_maximum_s_intersecting(path_family(make_sun(16, 3), 8), 2)
        assert res.value == 88 and len(res.all_optima) == 16 and not res.limits_hit
        assert res.nodes <= 37

    @pytest.mark.parametrize("n, t, r, value, nodes", [
        (14, 3, 7, 72, 30), (16, 4, 8, 135, 40),
    ], ids=["sun-14-3", "sun-16-4"])
    def test_pendant_swaps_on_s2_suns(self, n, t, r, value, nodes):
        # at s = 2 paths that differ in an end pendant are not twins, so
        # the pendant swaps prune branches the twin quotient keeps:
        # 1,401 and 119,263 nodes (10 s) with the dihedral group alone,
        # 319 and 8,797 when only contained members were forced
        res = enumerate_maximum_s_intersecting(path_family(make_sun(n, t), r), 2)
        assert res.value == value and len(res.all_optima) == n and not res.limits_hit
        assert res.nodes <= nodes

    def test_orbital_enumeration_on_all_paths_of_cycle_11(self):
        # 36,806 nodes without orbital branching, 10,946 without the
        # dominance check, 2,542 without forced takes
        res = enumerate_maximum_s_intersecting(
            to_setfamily(enumerate_paths_all(make_cycle(11))), 1)
        assert res.value == 66 and len(res.all_optima) == 1024 and not res.limits_hit
        assert res.nodes <= 166

    @pytest.mark.parametrize("host, value, optima, nodes", [
        (lambda: make_sun(8, 1), 144, 120, 30), (lambda: make_cycle(11), 66, 1024, 166),
    ], ids=["sun-8-1", "cycle-11"])
    def test_forced_takes_in_check_ekr_on_all_paths(self, monkeypatch, host, value, optima,
                                                    nodes):
        # the dense-search all-paths items: 1,109 and 2,542 nodes without
        # forced takes
        solved = []

        def recording(fam, s, limits):
            solved.append(enumerate_maximum_s_intersecting(fam, s, limits))
            return solved[-1]

        monkeypatch.setattr(verdicts, "enumerate_maximum_s_intersecting", recording)
        v = verdicts.check_ekr(host(), "all-paths", None, 1)
        assert v.brute_value == value and v.value_exact and not v.limits_hit
        [res] = solved
        assert len(res.all_optima) == optima and res.nodes <= nodes

    @pytest.mark.parametrize("host, value, nodes", [
        (lambda: make_sun(7, 1), 112, 10), (lambda: make_cycle(12), 78, 0),
    ], ids=["sun-7-1", "cycle-12"])
    def test_forced_takes_in_the_maximum_on_all_paths(self, host, value, nodes):
        # 4,851 and 2,211 nodes without forced takes (sun(7,1): 64 when
        # only contained members were forced); on cycle(12) the
        # root's coloring bound meets the greedy clique, and the
        # certification's decisions branch nowhere
        fam = to_setfamily(enumerate_paths_all(host()))
        res = max_s_intersecting(fam, 1)
        assert res.value == value and res.value_exact and not res.limits_hit
        assert res.nodes <= nodes
        full = enumerate_maximum_s_intersecting(fam, 1)
        assert res.witness == full.all_optima[0]

    def test_check_hm_on_cycle_26_13(self, monkeypatch):
        # 8,166 non-star optima; 16,382 nodes without orbital branching,
        # 6,144 without the dominance check
        solved = []

        def recording(fam, s, limits, **options):
            solved.append(max_nonstar_s_intersecting(fam, s, limits, **options))
            return solved[-1]

        monkeypatch.setattr(verdicts, "max_nonstar_s_intersecting", recording)
        v = verdicts.check_hm(make_cycle(26), 13)
        assert v.value_exact and not v.limits_hit and v.classification == "other"
        [res] = solved
        assert len(res.all_optima) == 8166 and res.nodes <= 1032

    def test_nonstar_maximum_on_suns(self):
        # without twin contraction and the non-star hook in the clique
        # core, both runs spent the whole 50M-node default budget (94 s
        # and 293 s) and reported a value of 0
        # (3,138 and 13,331 nodes when these ceilings were first set)
        for n, t, r, value, nodes in ((10, 2, 5, 17, 62), (12, 3, 6, 42, 111)):
            fam = path_family(make_sun(n, t), r)
            res = max_nonstar_s_intersecting(fam, 1)
            assert res.value == value and res.value_exact and not res.limits_hit
            assert res.nodes <= nodes
            full = max_nonstar_s_intersecting(fam, 1, Limits(optima_cap=0),
                                              enumerate_optima=True)
            assert res.witness == full.witness

    @pytest.mark.parametrize("host, r, value, nodes", [
        (lambda: make_sun(10, 2), 5, 17, 62),
        (lambda: make_sun(8, 2), 4, 8, 39),
        (lambda: make_cycle(12), 5, 3, 35),
        (lambda: make_theta((3, 3, 3, 3)), 3, 3, 31),
    ], ids=["sun-10-2", "sun-8-2", "cycle-12", "theta-3-3-3-3"])
    def test_nonstar_certification_node_for_node(self, host, r, value, nodes):
        # exact: a heavier star clique exists, so a certification that
        # grew cliques past the value took 1,124 nodes on sun(10,2); 578,
        # 123, 37 and 65 when only contained members were forced
        res = max_nonstar_s_intersecting(path_family(host(), r), 1)
        assert res.value == value and res.value_exact and not res.limits_hit
        assert res.nodes == nodes

    @pytest.mark.parametrize("solve, listing, n, t, r, value, nodes", [
        (max_nonstar_s_intersecting, partial(max_nonstar_s_intersecting, enumerate_optima=True),
         14, 3, 7, 64, 699),
        (max_s_intersecting, enumerate_maximum_s_intersecting, 16, 4, 8, 135, 503),
    ], ids=["nonstar-sun-14-3", "max-sun-16-4"])
    def test_forced_takes_on_s2_suns(self, solve, listing, n, t, r, value, nodes):
        # uniform families, so nothing was forced when only contained
        # members were: 413,535 and 15,320 nodes then (the enumeration of
        # sun(16,4) is in test_pendant_swaps_on_s2_suns); the witness is
        # the complete enumeration's least optimum
        fam = path_family(make_sun(n, t), r)
        res = solve(fam, 2)
        assert (res.value, res.nodes) == (value, nodes)
        assert res.value_exact and not res.limits_hit
        full = listing(fam, 2)
        assert not full.limits_hit and res.witness == full.all_optima[0]

    def test_nonstar_enumeration_on_all_paths_of_cycle_9(self):
        # 699,237 nodes when the quotient was in member order, 621
        # without forced takes
        res = max_nonstar_s_intersecting(to_setfamily(enumerate_paths_all(make_cycle(9))), 1,
                                         enumerate_optima=True)
        assert res.value == 45 and len(res.all_optima) == 247 and not res.limits_hit
        assert res.nodes <= 63

    @pytest.mark.parametrize("solve, fam, value, nodes", [
        (lambda f: max_s_intersecting(f, 2), lambda: path_family(make_sun(14, 3), 7), 72, 632),
        (lambda f: enumerate_maximum_s_intersecting(f, 2),
         lambda: path_family(make_sun(14, 3), 7), 72, 662),
        (lambda f: max_nonstar_s_intersecting(f, 1),
         lambda: path_family(make_sun(10, 2), 5), 17, 255),
        (lambda f: max_nonstar_s_intersecting(f, 1, enumerate_optima=True),
         lambda: path_family(make_cycle(14), 7), 7, 254),
        (max_intersecting_sperner,
         lambda: to_setfamily(enumerate_paths_all(make_sun(6, 1))), 22, 1017),
    ], ids=["max-sun-14-3", "enum-sun-14-3", "nonstar-sun-10-2", "nonstar-enum-cycle-14",
            "sperner-sun-6-1"])
    def test_without_the_group(self, solve, fam, value, nodes):
        # the searches with the group and the pendant swaps take 202, 30,
        # 62, 40 and 289 nodes; these bound the group-free loops (5,416,
        # 4,709, 3,138 and 254 nodes for the first four when only
        # contained members were forced)
        res = solve(replace(fam(), symmetry=(), swaps=()))
        assert res.value == value and res.value_exact and not res.limits_hit
        assert res.nodes <= nodes

    def test_triangular_of_pg7(self):
        # 547,799 nodes without the collineation group, 1,722,693 also
        # with a popcount bound and no candidate filter
        res = max_triangular_intersecting(build_pg(make_field(7, 1)).lines)
        assert res.value == 8 and res.witness == (0, 1, 7, 8, 17, 19, 45, 47)
        assert res.value_exact and not res.limits_hit and res.nodes <= 82

    def test_triangular_of_pg8(self):
        # 2,482,338 nodes without the collineation group
        res = max_triangular_intersecting(build_pg(make_field(2, 3)).lines)
        assert res.value == 10 and res.value_exact and not res.limits_hit
        assert res.nodes <= 93

    def test_triangular_of_pg9(self):
        # the q+1 construction is optimal; 20,046,228 nodes without the
        # collineation group
        res = max_triangular_intersecting(build_pg(make_field(3, 2)).lines)
        assert res.value == 10 and res.value_exact and not res.limits_hit
        assert res.nodes <= 360

    def test_triangular_of_rotations_31(self):
        # 14,174 nodes without the shift
        res = max_triangular_intersecting(rotational_family(31, (1, 5, 11, 24, 25, 27)))
        assert res.value == 6 and res.value_exact and not res.limits_hit
        assert res.nodes <= 738

    def test_transversal_of_pg7(self):
        # the packing bound is 1 at the root on pairwise-intersecting lines;
        # the fractional bound, 57 lines at 1/8 each, is above 7 there, so
        # the greedy 8 is proven at the root (8,207 nodes without it)
        res = min_transversal(build_pg(make_field(7, 1)).lines)
        assert res.value == 8 and res.nodes == 0

    def test_transversal_of_pg7_minus_a_pencil(self):
        lines = build_pg(make_field(7, 1)).lines
        corner = 7 * 7 + 7  # the point (w,w)
        fam = SetFamily(ground=lines.ground,
                        sets=tuple(m for m in lines.sets if not (m >> corner) & 1))
        res = min_transversal(fam)
        # 49 lines at 1/7 each: the greedy 7 is proven at the root by the
        # fractional bound (1,489 nodes without it)
        assert res.value == 7 and res.nodes == 0
        assert len(res.witness) == res.value and all(m & mask_of(res.witness)
                                                     for m in fam.sets)

    def test_transversals_of_uniform_families(self):
        # 20 families of the benchmark's shape, 40 distinct 4-sets over 24
        # points; 14,029 nodes before the search excluded tried siblings,
        # 5,339 before the packing counted allowed elements only and the
        # children went in degree order, 3,707 with the degree-sum bound in
        # place of the fractional one
        total = 0
        for seed in range(20):
            fam = helpers.uniform_family(seed)
            res = min_transversal(fam)
            assert res.value_exact and not res.limits_hit
            assert all(m & mask_of(res.witness) for m in fam.sets)
            total += res.nodes
        assert total <= 2800


class TestCertificationOverrun:
    """A budget that the maximum search finishes in and the clique
    certification overruns: the value is exact, the witness is the
    maximum search's clique, not the lex-least optimum, and the search
    spent the whole budget."""

    @pytest.mark.parametrize("solve, fam, budget, witness", [
        (lambda f, lim: max_s_intersecting(f, 2, lim),
         lambda: path_family(make_sun(10, 2), 5), 1,
         (12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
          32, 33, 36, 39)),
        (lambda f, lim: max_nonstar_s_intersecting(f, 1, lim),
         lambda: path_family(make_sun(10, 2), 5), 19,
         (39, 59, 63, 64, 65, 66, 67, 68, 69, 70, 71, 81, 82, 83, 87, 88, 89)),
        (lambda f, lim: max_triangular_intersecting(f, 1, lim),
         lambda: build_pg(make_field(7, 1)).lines, 49, (1, 7, 25, 31, 40, 48, 55, 56)),
    ], ids=["max-sun-10-2", "nonstar-sun-10-2", "triangular-pg7"])
    def test_budget_overrun_in_the_certification(self, solve, fam, budget, witness):
        fam = fam()
        full = solve(fam, Limits())
        assert full.value_exact and not full.limits_hit and full.nodes > budget
        res = solve(fam, Limits(node_budget=budget))
        assert res.limits_hit and res.value_exact and res.nodes == budget
        assert res.value == full.value == len(res.witness)
        assert res.witness == witness != full.witness
        # one node less and the maximum search itself overruns
        assert not solve(fam, Limits(node_budget=budget - 1)).value_exact


class TestOverrunWitness:
    """Under every budget and cap the reported witness is a clique of the
    reported value.  With the group, a capped enumeration hands over to
    the group-free sample pass, and a budget overrun before that pass's
    first clique must still report a clique of the weight reached, not
    an empty or lighter one."""

    @pytest.mark.parametrize("n", [10, 12])
    @pytest.mark.parametrize("solve, nonstar", [
        (lambda f, lim: max_nonstar_s_intersecting(f, 1, lim, enumerate_optima=True), True),
        (lambda f, lim: enumerate_maximum_s_intersecting(f, 1, lim), False),
        (max_intersecting_sperner, False),
    ], ids=["nonstar-enumeration", "enumeration", "sperner"])
    def test_every_budget_and_cap(self, solve, nonstar, n):
        fam = path_family(make_cycle(n), n // 2)
        for budget in range(120):
            for cap in (0, 1, 2, 5):
                res = solve(fam, Limits(node_budget=budget, optima_cap=cap))
                sub = SetFamily(ground=fam.ground,
                                sets=tuple(sorted(fam.sets[i] for i in res.witness)))
                assert len(set(res.witness)) == len(res.witness) == res.value, (budget, cap)
                assert is_s_intersecting(sub, 1), (budget, cap)
                if nonstar and res.witness:
                    assert not is_s_star(sub, 1).is_star, (budget, cap)

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("solve, nonstar", [
        (max_s_intersecting, False),
        (enumerate_maximum_s_intersecting, False),
        (max_nonstar_s_intersecting, True),
        (partial(max_nonstar_s_intersecting, enumerate_optima=True), True),
    ], ids=["maximum", "enumeration", "nonstar", "nonstar-enumeration"])
    def test_forced_takes_on_all_paths(self, solve, nonstar, s):
        # a search with forced takes, cut at every budget up to 20: a run
        # that the budget covers is the full one, and a cut one reports
        # the cut and a clique of its value
        fam = to_setfamily(enumerate_paths_all(make_cycle(9)))
        for cap in (0, 1, 5):
            full = solve(fam, s, Limits(optima_cap=cap))
            for budget in range(21):
                res = solve(fam, s, Limits(node_budget=budget, optima_cap=cap))
                if full.nodes <= budget:
                    assert res == full, (budget, cap)
                    continue
                assert res.limits_hit and res.nodes == budget, (budget, cap)
                assert len(set(res.witness)) == len(res.witness) == res.value, (budget, cap)
                assert res.value <= full.value and (res.value == full.value
                                                    or not res.value_exact), (budget, cap)
                sub = SetFamily(ground=fam.ground,
                                sets=tuple(sorted(fam.sets[i] for i in res.witness)))
                assert is_s_intersecting(sub, s), (budget, cap)
                if nonstar and res.witness:
                    assert not is_s_star(sub, s).is_star, (budget, cap)


class TestNonStar:
    def test_cycle_12_5(self):
        res = max_nonstar_s_intersecting(path_family(make_cycle(12), 5), 1)
        assert res.value == 3

    def test_cycle_9_4(self):
        res = max_nonstar_s_intersecting(path_family(make_cycle(9), 4), 1)
        assert res.value == 3

    def test_all_paths_c4_ties_star(self):
        fam = to_setfamily(enumerate_paths_all(make_cycle(4)))
        res = max_nonstar_s_intersecting(fam, 1)
        assert res.value == 10
        assert res.value == max_s_intersecting(fam, 1).value

    def test_witness_is_nonstar(self):
        fam = path_family(make_cycle(10), 5)
        res = max_nonstar_s_intersecting(fam, 1, enumerate_optima=True)
        for opt in res.all_optima:
            sub = SetFamily(ground=fam.ground,
                            sets=tuple(sorted(fam.sets[i] for i in opt)))
            assert is_s_intersecting(sub, 1)
            assert not is_s_star(sub, 1).is_star

    def test_tree_infeasible(self):
        fam = path_family(make_random_tree(7, 2), 3)
        res = max_nonstar_s_intersecting(fam, 1)
        assert res.infeasible and res.value == 0

    def test_budget_overrun_keeps_a_nonstar_clique(self):
        # without the group: the search with it proves this value in 62
        # nodes, and without it in 255; TestOrbitalBranching sweeps budgets
        # with the group on
        fam = replace(path_family(make_sun(10, 2), 5), symmetry=())
        res = max_nonstar_s_intersecting(fam, 1, Limits(node_budget=100))
        assert res.limits_hit and not res.value_exact and res.nodes <= 100
        sub = SetFamily(ground=fam.ground,
                        sets=tuple(sorted(fam.sets[i] for i in res.witness)))
        assert res.value == len(res.witness) > 0
        assert is_s_intersecting(sub, 1) and not is_s_star(sub, 1).is_star

    def test_matches_filtered_naive(self):
        from itertools import combinations
        fam = path_family(make_cycle(8), 4)
        best = 0
        for size in range(len(fam), 0, -1):
            for combo in combinations(range(len(fam)), size):
                sub = SetFamily(ground=fam.ground,
                                sets=tuple(sorted(fam.sets[i] for i in combo)))
                if is_s_intersecting(sub, 1) and not is_s_star(sub, 1).is_star:
                    best = size
                    break
            if best:
                break
        assert max_nonstar_s_intersecting(fam, 1).value == best


class TestMinTransversal:
    def test_fano(self):
        assert min_transversal(build_pg(make_field(2, 1)).lines).value == 3

    def test_rotation(self):
        assert min_transversal(rotational_family(4, {0, 1, 2})).value == 2

    def test_single_set(self):
        assert min_transversal(SetFamily.from_vertex_sets(5, [{1, 3}])).value == 1

    def test_empty_member_infeasible(self):
        res = min_transversal(SetFamily(ground=3, sets=(0, 3)))
        assert res.infeasible

    def test_witness_hits_everything(self):
        fam = build_pg(make_field(3, 1)).lines
        res = min_transversal(fam)
        from ekrlab.families import mask_of
        hit = mask_of(res.witness)
        assert all(mask & hit for mask in fam.sets)
        assert len(res.witness) == res.value

    def test_matches_naive(self):
        # value and lex-least witness against the all-subsets scan, on
        # intersecting and unrestricted families from drawn helper seeds
        checked = set()

        @settings(derandomize=True, database=None, deadline=None, max_examples=150)
        @given(seed=st.integers(0, 10_000),
               generator=st.sampled_from((helpers.mixed_intersecting_family,
                                          helpers.random_family)))
        def check(seed, generator):
            fam = generator(seed)
            assume(0 < len(fam) <= 14)
            res = min_transversal(fam)
            expected = helpers.naive_lex_least_transversal(fam)
            assert (res.value, res.witness) == (len(expected), expected), fam.name
            assert res.value_exact and not res.limits_hit
            checked.add((generator.__name__, seed))

        check()
        assert len(checked) >= 100

    def test_matches_naive_on_larger_families(self):
        # 30 families of 20-30 random 3-sets over 14 points, past the 14
        # members of test_matches_naive, where the child order has more
        # room to pick which hitting set the search reaches first
        for seed in range(30):
            rng = random.Random(seed)
            m = rng.randint(20, 30)
            sets: set[int] = set()
            while len(sets) < m:
                sets.add(mask_of(rng.sample(range(14), 3)))
            fam = SetFamily(ground=14, sets=tuple(sorted(sets)))
            res = min_transversal(fam)
            expected = helpers.naive_lex_least_transversal(fam)
            assert (res.value, res.witness) == (len(expected), expected), seed
            assert res.value_exact and not res.limits_hit

    def test_bounds_prune_only_unhittable_nodes(self):
        # a search with no nodes to spend returns None only where the
        # root is pruned: by the packing over allowed elements, by the
        # fractional bound, or by a member with no allowed element; every
        # such node must hold no k allowed elements that hit all of
        # unhit.  With nodes to spend, the search must find such a set
        # exactly when the brute force does.
        from itertools import combinations
        by_bound = []

        @settings(derandomize=True, database=None, deadline=None, max_examples=400)
        @given(data=st.data())
        def check(data):
            ground = data.draw(st.integers(3, 12))
            member = st.sets(st.integers(0, ground - 1), min_size=1, max_size=3).map(mask_of)
            sets = data.draw(st.lists(member, min_size=4, max_size=16))
            search = solvers._HittingSearch(tuple(sets), solvers._Budget(0))
            unhit = data.draw(st.one_of(st.just(search.full), st.integers(1, search.full)))
            # exclusion branching drops a few elements at a time
            excluded = data.draw(st.sets(st.integers(0, ground - 1), max_size=3))
            allowed = (1 << ground) - 1 & ~mask_of(excluded)
            k = data.draw(st.integers(1, 3))
            members = [search.sets[i] for i in elems_of(unhit)]
            options = [e for e in range(ground) if allowed >> e & 1]
            hittable = any(all(m & mask_of(pick) for m in members)
                           for pick in combinations(options, min(k, len(options))))
            try:
                pruned = search._hit(unhit, k, allowed) is None
            except solvers._BudgetExceeded:
                pruned = False
            if pruned:
                assert not hittable, (sets, unhit, allowed, k)
                if all(m & allowed for m in members):
                    by_bound.append(k)
            search.budget = solvers._Budget(10_000)
            found = search._hit(unhit, k, allowed)
            assert (found is not None) == hittable, (sets, unhit, allowed, k)
            if found is not None:
                picked = mask_of(found)
                assert len(found) <= k and picked & ~allowed == 0
                assert all(m & picked for m in members)

        check()
        # the bounds themselves pruned, not only a member with no allowed
        # element, and also at k >= 2
        assert len(by_bound) >= 50 and sum(k >= 2 for k in by_bound) >= 10

    def test_decision_under_exclusion(self):
        # the decision routine against a brute force over the allowed
        # elements, on arbitrary allowed masks (exclusion branching and the
        # certification's suffixes both shrink them, and the fractional
        # bound must claim members with allowed elements only), random
        # uncovered members and empty members, at k from 0 to 3 and on
        # both sides of the least hitting set: None exactly when no k
        # allowed elements hit every member of unhit, otherwise an allowed
        # hitting set of at most k elements
        from itertools import combinations
        outcomes = []

        @settings(derandomize=True, database=None, deadline=None, max_examples=300)
        @given(data=st.data())
        def check(data):
            ground = data.draw(st.integers(3, 12))
            member = st.sets(st.integers(0, ground - 1), min_size=1, max_size=3).map(mask_of)
            sets = data.draw(st.lists(member, min_size=4, max_size=16))
            if data.draw(st.integers(0, 7)) == 0:
                sets.append(0)
            search = solvers._HittingSearch(tuple(sets), solvers._Budget(100_000))
            unhit = data.draw(st.one_of(st.just(search.full), st.integers(0, search.full)))
            # any allowed mask, or all but a few elements, where the bounds
            # are closer to tight
            allowed = data.draw(st.one_of(
                st.integers(0, (1 << ground) - 1),
                st.sets(st.integers(0, ground - 1), max_size=3).map(
                    lambda out: (1 << ground) - 1 & ~mask_of(out))))
            if data.draw(st.booleans()):
                # the certification allows every element past a point
                allowed |= -1 << ground
            members = [search.sets[i] for i in elems_of(unhit)]
            options = [e for e in range(ground) if allowed >> e & 1]
            # the fewest allowed elements that hit every member, if any
            least = next((size for size in range(len(options) + 1)
                          if any(all(m & mask_of(pick) for m in members)
                                 for pick in combinations(options, size))), None)
            tight = set() if least is None else {least - 1, least}
            for k in sorted({0, 1, 2, 3} | tight - {-1}):
                hittable = least is not None and least <= k
                found = search._hit(unhit, k, allowed)
                assert (found is not None) == hittable, (sets, unhit, allowed, k)
                if found is not None:
                    picked = mask_of(found)
                    assert len(found) <= k and picked & ~allowed == 0
                    assert all(m & picked for m in members)
                outcomes.append(hittable)

        check()
        assert outcomes.count(True) >= 100 and outcomes.count(False) >= 300

    # 12 triples over 10 points: tau = 4 (the greedy bound), proven in 6
    # nodes of the minimum search and certified lex-least in 1 more
    BUDGET_FAMILY = SetFamily.from_vertex_sets(10, [
        {3, 4, 5}, {4, 5, 6}, {1, 2, 7}, {2, 3, 7}, {1, 5, 7}, {0, 6, 7},
        {0, 2, 8}, {0, 4, 8}, {4, 5, 8}, {4, 5, 9}, {1, 6, 9}, {4, 8, 9}])

    def test_budget_overrun_in_the_minimum_search(self):
        fam = self.BUDGET_FAMILY
        res = min_transversal(fam, Limits(node_budget=0))
        assert res.limits_hit and not res.value_exact
        # the greedy hitting set survives as the partial answer
        assert res.value == len(res.witness) >= 4
        assert all(mask & mask_of(res.witness) for mask in fam.sets)

    def test_budget_overrun_in_the_certification(self):
        fam = self.BUDGET_FAMILY
        full = min_transversal(fam)
        assert (full.value, full.witness, full.nodes) == (4, (0, 1, 2, 4), 7)
        # a budget the minimum search uses up: its value is exact, but the
        # witness is the minimum search's, not the certified lex-least one
        res = min_transversal(fam, Limits(node_budget=6))
        assert res.limits_hit and res.value_exact and res.nodes == 6
        assert res.value == 4 and res.witness != full.witness
        assert len(res.witness) == 4 and all(mask & mask_of(res.witness) for mask in fam.sets)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10_000))
    def test_tau_sandwich(self, seed):
        # ceil(m/delta) <= tau <= min(ceil(m/2), min member size)
        import math
        fam = helpers.mixed_intersecting_family(seed)
        assume(len(fam) >= 1)
        fam_stats = stats(fam)
        tau = min_transversal(fam).value
        assert math.ceil(len(fam) / fam_stats.delta) <= tau
        assert tau <= min(math.ceil(len(fam) / 2), fam_stats.min_size)


class TestMaxTriangular:
    def test_pg3(self):
        assert max_triangular_intersecting(build_pg(make_field(3, 1)).lines).value == 4

    def test_pg2(self):
        assert max_triangular_intersecting(build_pg(make_field(2, 1)).lines).value == 4

    def test_pg4(self):
        assert max_triangular_intersecting(build_pg(make_field(2, 2)).lines).value == 6

    def test_witness_predicates(self):
        fam = build_pg(make_field(3, 1)).lines
        res = max_triangular_intersecting(fam)
        sub = SetFamily(ground=fam.ground,
                        sets=tuple(sorted(fam.sets[i] for i in res.witness)))
        assert is_s_intersecting(sub, 1)
        from ekrlab.families import is_triangular
        assert is_triangular(sub) and stats(sub).delta <= 2

    def test_budget_overrun_keeps_a_triangular_clique(self):
        # without the group: the search with it proves this value in 82 nodes
        from ekrlab.families import is_triangular
        fam = replace(build_pg(make_field(7, 1)).lines, symmetry=())
        res = max_triangular_intersecting(fam, 1, Limits(node_budget=100))
        assert res.limits_hit and not res.value_exact and res.nodes <= 100
        sub = SetFamily(ground=fam.ground,
                        sets=tuple(sorted(fam.sets[i] for i in res.witness)))
        assert res.value == len(res.witness) > 0
        assert is_s_intersecting(sub, 1) and is_triangular(sub)


class TestSperner:
    def test_uniform_equals_plain_max(self):
        fam = path_family(make_cycle(9), 4)
        assert max_intersecting_sperner(fam).value == max_s_intersecting(fam, 1).value

    def test_comparable_pair(self):
        fam = SetFamily.from_vertex_sets(2, [{0}, {0, 1}])
        assert max_intersecting_sperner(fam).value == 1

    def test_capped_witness_is_the_lex_least_optimum(self):
        # a capped list is a sample; its least member need not be the
        # least optimum (cap 1 on cycle(12) r=6 once gave 6..11)
        for n in (8, 10, 12):
            fam = path_family(make_cycle(n), n // 2)
            full = max_intersecting_sperner(fam)
            assert not full.limits_hit and full.witness == tuple(range(n // 2))
            for cap in (0, 1, 5):
                res = max_intersecting_sperner(fam, Limits(optima_cap=cap))
                assert res.limits_hit and res.value == full.value, (n, cap)
                assert res.witness == full.witness, (n, cap)
                assert len(res.all_optima) == cap and set(res.all_optima) <= set(full.all_optima)

    def test_exploratory_on_mixed_lengths(self):
        fam = to_setfamily(enumerate_paths_upto(make_cycle(8), 4))
        res = max_intersecting_sperner(fam)
        assert res.value >= max_s_intersecting(path_family(make_cycle(8), 4), 1).value
        assert res.uniform_optima in (True, False)


class TestHelly:
    def test_trees(self):
        for seed in range(5):
            g = make_random_tree(9, seed)
            for r in (2, 3, 4):
                ok, _ = helly_triple_check(path_family(g, r))
                assert ok

    def test_cycle_counterexample(self):
        fam = path_family(make_cycle(6), 3)
        ok, triple = helly_triple_check(fam)
        assert not ok
        i, j, k = triple
        assert fam.sets[i] & fam.sets[j] & fam.sets[k] == 0

    def test_tiny_families(self):
        assert helly_triple_check(SetFamily(ground=3, sets=(1, 3)))[0]

    def test_matches_the_triple_scan(self):
        # the same answer and the same first counterexample as the scan
        # over every triple, with empty and repeated members
        outcomes = []
        # build_families brings the empty members; pairs and triples over
        # a few points bring the counterexamples (a triangle is the least)
        small = st.integers(3, 7).flatmap(lambda ground: st.lists(
            st.sets(st.integers(0, ground - 1), min_size=2, max_size=3).map(mask_of),
            min_size=3, max_size=14).map(
                lambda sets: SetFamily(ground=ground, sets=tuple(sorted(sets + sets[:2])))))

        @settings(derandomize=True, database=None, deadline=None, max_examples=300)
        @given(fam=st.one_of(build_families(), small))
        def check(fam):
            got = helly_triple_check(fam)
            assert got == helpers.naive_helly(fam), fam.sets
            outcomes.append(got[0])

        check()
        assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50


# the largest families of the group differential, per host kind: above
# these a family costs up to seconds in the group-free search, and the
# theta grid has 175 hosts against 12 cycles and 28 suns
MAX_DIFFERENTIAL_MEMBERS = {"cycle": 60, "sun": 45, "theta": 14}


class TestOrbitalBranching:
    """Path families carry their host's automorphism generators, and sun
    families their pendant swaps: the clique searches branch on orbits
    and close the optima they collect under the whole group.  Every
    answer must equal the group-free search's."""

    @pytest.mark.parametrize("kind", ("cycle", "sun", "theta"))
    def test_answers_do_not_depend_on_the_group(self, kind):
        # a sun family is also searched with its swaps alone, which the
        # closure then closes by its breadth-first walk, with no listed
        # group; sun(3,2) r=4 has members with equal vertex sets, whose
        # copies the swaps must pair in index order
        checked = 0
        for g in helpers.symmetric_hosts():
            if g.kind != kind:
                continue
            for label, fam in helpers.host_path_families(g):
                if len(fam) > MAX_DIFFERENTIAL_MEMBERS[kind]:
                    continue
                plain = helpers.solver_outcomes(replace(fam, symmetry=(), swaps=()))
                assert helpers.solver_outcomes(fam) == plain, (g.meta, label)
                if fam.member_swaps:
                    assert helpers.solver_outcomes(replace(fam, symmetry=())) == plain, \
                        (g.meta, label, "swaps alone")
                checked += 1
        assert checked >= 100

    @staticmethod
    def _listed(fam):
        """The group elements the s=1 clique search on fam lists."""
        graph = solvers._compat_quotient(fam, 1)
        group = solvers._quotient_group(graph, fam)
        assert group
        return solvers._CliqueSearch(graph, solvers._Budget(0), group=group).elements

    def test_group_within_the_listing_bound(self):
        # theta(3,3,3,3): order 48, at most m^2 on each quotient, so every
        # non-identity element is listed (the differential above checks
        # its answers); cycle(12): the dihedral group of order 24
        for r in (1, 2, 3, 4, 5):
            assert len(self._listed(path_family(make_theta((3, 3, 3, 3)), r))) == 47
        assert len(self._listed(path_family(make_cycle(12), 6))) == 23

    def test_group_above_the_listing_bound(self):
        # theta((2,)*7): order 2 * 7! = 10,080 on 9, 14 and 43 quotient
        # vertices, above m^2, so nothing is listed and the search runs
        # with orbital branching and closure under the generators only
        g = make_theta((2,) * 7)
        for r in (1, 2, 3):
            fam = path_family(g, r)
            assert self._listed(fam) == ()
            assert helpers.solver_outcomes(fam) == \
                helpers.solver_outcomes(replace(fam, symmetry=())), r

    def test_plane_groups_are_not_listed(self):
        # PGammaL(3, q) is 2-transitive on the m = q^2+q+1 lines, so its
        # order passes m^2; the listing learns that from _order_exceeds
        # once it holds 4m elements
        for q in (2, 3, 4, 16, 17):
            lines = build_pg(field_of_order(q)).lines
            m = len(lines)
            graph = solvers._Quotient(solvers.CompatibilityGraph.build(lines, 1).adj,
                                      [[v] for v in range(m)], [m - 1] * m)
            search = solvers._CliqueSearch(graph, solvers._Budget(0),
                                           group=solvers._quotient_group(graph, lines))
            assert search.gens and search.elements == ()

    @pytest.mark.parametrize("fam", [
        lambda: path_family(make_cycle(12), 6), lambda: path_family(make_theta((3, 3, 3, 3)), 2),
        lambda: path_family(make_theta((2,) * 5), 2), lambda: build_pg(make_field(2, 1)).lines,
        lambda: build_pg(make_field(3, 1)).lines, lambda: rotational_family(13, (0, 1, 3, 9)),
    ], ids=["cycle-12", "theta-3333", "theta-22222", "PG(2)", "PG(3)", "rotations(13)"])
    def test_order_bound_is_exact(self, fam):
        # _order_exceeds(gens, limit) holds exactly when the order passes
        # limit, so the listing decision is that of a full closure
        gens = fam().member_symmetry
        elements = {tuple(range(len(gens[0])))}
        queue = list(elements)
        for h in queue:
            for g in gens:
                gh = solvers._compose(g, h)
                if gh not in elements:
                    elements.add(gh)
                    queue.append(gh)
        order = len(elements)
        for limit in (1, order // 2, order - 1, order, order + 1, 2 * order):
            assert solvers._order_exceeds(gens, limit) == (order > limit), limit

    def test_inverse_of_a_tuple_permutation(self):
        # above 256 points a permutation is a tuple, not a byte table
        perm = list(range(300))
        random.Random(7).shuffle(perm)
        perm = tuple(perm)
        identity = tuple(range(300))
        assert solvers._compose(perm, solvers._inverse(perm)) == identity
        assert solvers._compose(solvers._inverse(perm), perm) == identity

    @pytest.mark.parametrize("fam", [
        *(lambda q=q: build_pg(field_of_order(q)).lines for q in (2, 3, 4, 5, 7)),
        *(lambda h=h, base=base: rotational_family(h, base) for h, base in ROTATIONS),
    ], ids=[*(f"PG({q})" for q in (2, 3, 4, 5, 7)), *(f"rotations({h})" for h, _ in ROTATIONS)])
    def test_triangular_does_not_depend_on_the_group(self, fam):
        fam = fam()
        assert fam.member_symmetry
        with_group = max_triangular_intersecting(fam)
        without = max_triangular_intersecting(replace(fam, symmetry=()))
        assert with_group == replace(without, nodes=with_group.nodes)
        assert with_group.nodes <= without.nodes

    def test_check_hm_does_not_depend_on_the_group(self, monkeypatch):
        grid = [(n, r) for n in range(6, 21) for r in range(1, n + 1)]
        with_group = [verdicts.check_hm(make_cycle(n), r).to_dict() for n, r in grid]
        monkeypatch.setattr(paths, "automorphism_generators", lambda g: ())
        without = [verdicts.check_hm(make_cycle(n), r).to_dict() for n, r in grid]
        for a, b in zip(with_group, without):
            a.pop("runtime_ms")
            b.pop("runtime_ms")
            assert a == b, a["instance"]

    def test_budget_overruns_stay_within_budget(self):
        fam = path_family(make_sun(10, 2), 5)
        assert fam.member_symmetry
        runs = {
            "max": lambda lim: max_s_intersecting(fam, 1, lim),
            "enumerate": lambda lim: enumerate_maximum_s_intersecting(fam, 1, lim),
            "nonstar": lambda lim: max_nonstar_s_intersecting(fam, 1, lim),
            "nonstar-enumerate": lambda lim: max_nonstar_s_intersecting(
                fam, 1, lim, enumerate_optima=True),
            "sperner": lambda lim: max_intersecting_sperner(fam, lim),
        }
        for name, run in runs.items():
            full = run(Limits())
            for budget in range(0, full.nodes + 2, 13):
                res = run(Limits(node_budget=budget))
                assert res.nodes <= budget, (name, budget)
                if not res.limits_hit:
                    assert res == replace(full, nodes=res.nodes), (name, budget)
                    continue
                assert res.value <= full.value and len(res.witness) == res.value
                sub = SetFamily(ground=fam.ground,
                                sets=tuple(sorted(fam.sets[i] for i in res.witness)))
                assert is_s_intersecting(sub, 1), (name, budget)
                if name.startswith("nonstar") and res.witness:
                    assert not is_s_star(sub, 1).is_star, (name, budget)
                if res.value_exact:
                    assert res.value == full.value, (name, budget)
