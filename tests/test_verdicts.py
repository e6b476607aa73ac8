import random
from itertools import combinations

import pytest

import helpers
from ekrlab.families import SetFamily, is_s_star, mask_of
from ekrlab.graphs import GraphError, make_cycle, make_graph, make_random_tree, \
    make_sun, make_theta
from ekrlab.solvers import Limits
from ekrlab.solvers import enumerate_maximum_s_intersecting
from ekrlab.verdicts import _hm_table, build_family, check_ekr, check_hm, \
    matches_hm_structure, star_flags_of


class TestCheckEkr:
    def test_cycle_strict(self):
        v = check_ekr(make_cycle(8), "uniform", 3, 1)
        assert v.brute_value == 3
        assert v.is_ekr and v.is_strict
        assert v.classification == "star"
        assert v.oracle_match is True
        assert v.construction_ok is True
        assert v.max_star["size"] == 3

    @pytest.mark.parametrize("g,mode,size,s", [
        (make_cycle(8), "uniform", 4, 1),
        (make_sun(5, 1), "uniform", 4, 2),
        (make_theta((2, 3, 3)), "upto", 3, 1),
    ], ids=["cycle8-r4", "sun5-1-r4-s2", "theta233-upto3"])
    def test_star_scanned_once(self, monkeypatch, g, mode, size, s):
        # the verdict's max_star and the search's star seed share one
        # scan of each member's s-subsets
        import ekrlab.families as families

        calls = []

        def counting(elems, k):
            calls.append(k)
            return combinations(elems, k)

        monkeypatch.setattr(families, "combinations", counting)
        v = check_ekr(g, mode, size, s)
        assert v.value_exact
        assert calls == [s] * v.family_size

    def test_cycle_nonstrict_at_half(self):
        v = check_ekr(make_cycle(6), "uniform", 3, 1)
        assert v.is_ekr and v.is_strict is False
        assert v.classification == "hm-structure"

    def test_triangle_edges_not_ekr(self):
        v = check_ekr(make_theta((1, 2)), "uniform", 2, 1)
        assert v.brute_value == 3 and v.max_star["size"] == 2
        assert not v.is_ekr and v.is_strict is False

    def test_sun_allpaths_not_ekr(self):
        v = check_ekr(make_sun(4, 1), "all-paths", None, 1)
        assert v.brute_value == 40 and v.max_star["size"] == 38
        assert not v.is_ekr
        assert v.oracle.value == 40 and v.oracle_match is True
        assert v.construction_ok is True

    def test_cycle_allpaths_ekr_not_strict(self):
        v = check_ekr(make_cycle(5), "all-paths", None, 1)
        assert v.brute_value == 15
        assert v.is_ekr and v.is_strict is False

    def test_upto_mode_strict(self):
        v = check_ekr(make_sun(6, 1), "upto", 3, 1)
        assert v.is_ekr and v.is_strict
        assert v.oracle is None

    def test_tree_always_star(self):
        g = make_random_tree(9, 4)
        for r in (2, 3, 4):
            v = check_ekr(g, "uniform", r, 1)
            assert v.is_ekr and v.classification == "star"

    def test_sun_variant_flag(self):
        va = check_ekr(make_sun(8, 1), "uniform", 4, 2, sun_variant="binomial")
        vb = check_ekr(make_sun(8, 1), "uniform", 4, 2, sun_variant="squared")
        assert va.brute_value == vb.brute_value == 8
        assert va.oracle_match is False and vb.oracle_match is True

    def test_limits_give_unknown(self):
        # the search takes 3 nodes
        v = check_ekr(make_sun(8, 2), "uniform", 4, 1, Limits(node_budget=2))
        assert v.limits_hit
        assert v.is_strict is None
        assert v.oracle_match is None

    def test_capped_optima_give_unknown_classification(self):
        # a 5-optimum sample of cycle(12) r=6 looks like the anchor
        # structure and a 3-optimum sample of cycle(10) r=4 looks like
        # stars; only the complete lists decide
        capped = check_ekr(make_cycle(12), "uniform", 6, 1, Limits(optima_cap=5))
        assert capped.limits_hit and capped.value_exact
        assert capped.classification == "unknown"
        assert check_ekr(make_cycle(12), "uniform", 6, 1).classification == "other"
        capped = check_ekr(make_cycle(10), "uniform", 4, 1, Limits(optima_cap=3))
        assert capped.limits_hit and capped.classification == "unknown"
        assert check_ekr(make_cycle(10), "uniform", 4, 1).classification == "star"

    def test_capped_optima_keep_the_lex_least_witness(self):
        # the witness is certified, not read off the capped sample
        full = check_ekr(make_cycle(12), "uniform", 6, 1)
        for cap in (0, 5):
            capped = check_ekr(make_cycle(12), "uniform", 6, 1, Limits(optima_cap=cap))
            assert capped.limits_hit and capped.witnesses == full.witnesses

    def test_inexact_value_gives_unknown_labels(self):
        v = check_ekr(make_sun(8, 2), "uniform", 4, 1, Limits(node_budget=2))
        assert v.limits_hit and v.value_exact is False
        assert v.is_ekr is None
        assert v.construction_ok is None
        assert v.classification == "unknown"
        assert v.brute_value == v.max_star["size"] == 24
        assert len(v.witnesses["optimum"]) == 24

    def test_star_flags_agree_with_is_s_star(self):
        # the star flag of an optimum is the bit count of its members'
        # meet; an empty optimum (the empty family's) is not a star
        cases = [(make_cycle(10), "uniform", 5), (make_sun(6, 1), "all-paths", None),
                 (make_theta((2, 3, 3)), "upto", 3), (make_random_tree(5, 0), "uniform", 5)]
        for g, mode, size in cases:
            fam = build_family(g, mode, size)
            for s in (1, 2, 3):
                optima = enumerate_maximum_s_intersecting(fam, s).all_optima
                expected = [is_s_star(SetFamily(ground=fam.ground, sets=tuple(
                    sorted(fam.sets[i] for i in opt))), s).is_star for opt in optima]
                assert star_flags_of(fam, optima, s) == expected, (g.kind, mode, s)
        assert star_flags_of(SetFamily(ground=2, sets=()), [()], 1) == [False]

    def test_bad_mode(self):
        with pytest.raises(GraphError):
            build_family(make_cycle(6), "nonsense", 3)


def _without_runtime(v) -> dict:
    d = v.to_dict()
    del d["runtime_ms"]
    return d


class TestFamilyCache:
    """A graph keeps the families built on it by (mode, size), so verdicts
    for every s on one graph object walk its paths once."""

    def test_the_second_build_returns_the_first_family(self):
        g = make_sun(5, 1)
        for mode, size in (("uniform", 4), ("upto", 3), ("all-paths", None)):
            assert build_family(g, mode, size) is build_family(g, mode, size)
        # all paths take no size, so any size finds the same family
        assert build_family(g, "all-paths", 7) is build_family(g, "all-paths", None)
        assert sorted(g.families, key=str) == [
            ("all-paths", None), ("uniform", 4), ("upto", 3)]

    @pytest.mark.parametrize("kind,params,mode,size", [
        ("tree", {"n": 8, "seed": 3}, "uniform", 4),
        ("sun", {"n": 6, "t": 1}, "uniform", 4),
        ("theta", {"a": (2, 3, 3)}, "uniform", 3),
        ("sun", {"n": 5, "t": 1}, "upto", 3),
        ("sun", {"n": 5, "t": 1}, "all-paths", None),
    ], ids=["tree8-r4", "sun6-1-r4", "theta233-r3", "sun5-1-upto3", "sun5-1-all"])
    def test_verdicts_on_a_reused_family_equal_fresh_ones(self, kind, params, mode, size):
        g = make_graph(kind, **params)
        for s in (1, 2, 3):
            fresh = check_ekr(make_graph(kind, **params), mode, size, s)
            assert _without_runtime(check_ekr(g, mode, size, s)) == _without_runtime(fresh), s
        assert list(g.families) == [(mode, size)]

    def test_check_hm_and_check_ekr_share_a_cycle_family(self):
        g = make_cycle(10)
        hm, ekr = check_hm(g, 4), check_ekr(g, "uniform", 4, 1)
        assert _without_runtime(hm) == _without_runtime(check_hm(make_cycle(10), 4))
        assert _without_runtime(ekr) == _without_runtime(
            check_ekr(make_cycle(10), "uniform", 4, 1))
        assert list(g.families) == [("uniform", 4)]

    @pytest.mark.parametrize("mode,size", [
        ("uniform", 6), ("uniform", None), ("upto", 0), ("nonsense", 3)])
    def test_a_failed_build_raises_again_and_caches_nothing(self, mode, size):
        g = make_cycle(5)
        for _ in range(2):
            with pytest.raises(GraphError):
                build_family(g, mode, size)
        assert g.families == {}


class TestCheckHm:
    def test_c12_r5(self):
        v = check_hm(make_cycle(12), 5)
        assert v.brute_value == 3
        assert v.oracle.value == 3 and v.oracle_match is True
        assert v.classification == "hm-structure"
        assert v.construction_ok is True

    def test_c9_r4(self):
        v = check_hm(make_cycle(9), 4)
        assert v.brute_value == 3 and v.classification == "hm-structure"

    def test_below_range_reports_without_oracle(self):
        v = check_hm(make_cycle(10), 3)
        assert not v.oracle.applicable
        assert v.oracle_match is None
        assert v.witnesses["infeasible"]

    def test_budget_overrun_gives_unknown_labels(self):
        v = check_hm(make_cycle(26), 12, Limits(node_budget=50))
        assert v.limits_hit and v.value_exact is False
        assert v.is_ekr is None and v.construction_ok is None
        assert v.classification == "unknown"

    def test_capped_optima_give_unknown_classification(self):
        v = check_hm(make_cycle(12), 5, Limits(optima_cap=2))
        assert v.limits_hit and v.value_exact and v.brute_value == 3
        assert v.classification == "unknown"

    def test_capped_optima_keep_the_lex_least_witness(self):
        full = check_hm(make_cycle(12), 6)
        assert full.witnesses["optimum"][0] == [0, 1, 2, 3, 4, 5]
        for cap in (0, 1, 5):
            capped = check_hm(make_cycle(12), 6, Limits(optima_cap=cap))
            assert capped.limits_hit and capped.witnesses == full.witnesses

    def test_requires_cycle(self):
        with pytest.raises(GraphError):
            check_hm(make_sun(6, 1), 3)



class TestClosedFormPairing:
    """Each instance type's oracle comes with its own explicit extremal
    family: construction_ok is True exactly where an applicable oracle
    meets an exact value, and None everywhere else (no oracle, an oracle
    out of its window, or a budget-cut value)."""

    @staticmethod
    def _verdicts(limits):
        for g in (make_cycle(6), make_cycle(9), make_sun(6, 1), make_sun(7, 2)):
            for variant in ("squared", "binomial"):
                for s in (1, 2, 3):
                    for r in range(1, min(g.n, g.meta["n"] + 2) + 1):
                        yield check_ekr(g, "uniform", r, s, limits, variant)
        for g in (make_cycle(5), make_sun(4, 1), make_theta((2, 3, 3)),
                  make_random_tree(6, 1)):
            for s in (1, 2):
                yield check_ekr(g, "all-paths", None, s, limits)
                yield check_ekr(g, "upto", 3, s, limits)
        for a in ((1, 2), (2, 3, 3), (3, 3, 3, 3), (3, 4, 5), (2, 7, 7)):
            g = make_theta(a)
            for s in (1, 2):
                for r in range(1, g.n + 1):
                    yield check_ekr(g, "uniform", r, s, limits)
        for n in range(6, 13):
            for r in range(1, n + 1):
                yield check_hm(make_cycle(n), r, limits)

    @pytest.mark.parametrize("budget", [Limits().node_budget, 0])
    def test_construction_exactly_where_the_oracle_applies(self, budget):
        kinds = set()
        for v in self._verdicts(Limits(node_budget=budget)):
            applies = v.oracle is not None and v.oracle.applicable and v.value_exact
            assert v.construction_ok is (True if applies else None), v.instance
            if applies:
                kinds.add((v.instance["kind"], v.instance["mode"]))
        if budget:
            # every branch met its construction
            assert kinds == {("cycle", "uniform"), ("sun", "uniform"), ("cycle", "all-paths"),
                             ("sun", "all-paths"), ("theta", "uniform"), ("cycle", "nonstar")}


class TestHmStructureMatcher:
    def test_positive(self):
        from ekrlab.oracles import build_cycle_hm_family
        fam = build_cycle_hm_family(12, 5, (0, 4, 8))
        assert matches_hm_structure(12, 5, list(fam.sets))

    def test_negative(self):
        # the pentagon family: five 5-windows at even starts on C_10 is a
        # maximum non-star family matching no 3-vertex anchor set
        from ekrlab.families import SetFamily, is_s_star, mask_of
        windows = [mask_of([(y + d) % 10 for d in range(5)]) for y in (0, 2, 4, 6, 8)]
        assert not matches_hm_structure(10, 5, windows)

    def test_single_window_unmatchable(self):
        from ekrlab.families import SetFamily, is_s_star, mask_of
        assert not matches_hm_structure(12, 5, [mask_of(range(5))])

    def test_lookup_agrees_with_anchor_scan(self):
        # every r on the small cycles; on the larger ones the ends of the
        # r range and check_hm's window, with mutants of a sample of the
        # families there
        rng = random.Random(11)
        grid = [(n, r) for n in range(6, 17) for r in range(1, n)]
        grid += [(n, r) for n in range(17, 31) for r in sorted({1, 2, n // 3, n // 2, n - 1})]
        for n, r in grid:
            windows = [mask_of((y + d) % n for d in range(r)) for y in range(n)]
            not_window = mask_of(range(r + 1))
            families = helpers.naive_hm_families(n, r)
            cases = set(families)
            sample = families if n <= 16 else rng.sample(sorted(families), min(20, len(families)))
            for fam in sample:
                cases.update(fam[:i] + fam[i + 1:] for i in range(len(fam)))
                # adding a window of the family makes a duplicate
                cases.update(fam + (w,) for w in windows)
                cases.add(fam + (not_window,))
            cases.update(tuple(rng.sample(windows, rng.randint(0, n)))
                         for _ in range(40 if n <= 16 else 200))
            for case in cases:
                assert matches_hm_structure(n, r, list(case)) == \
                    helpers.naive_matches_hm_structure(n, r, list(case)), (n, r, case)

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 25, 30])
    def test_no_start_and_every_start(self, n):
        # the two start masks with no start whose left neighbour is
        # missing, so the lookup takes them as they are
        for r in range(1, n):
            windows = [mask_of((y + d) % n for d in range(r)) for y in range(n)]
            for case in ([], windows, windows[::-1]):
                assert matches_hm_structure(n, r, case) == \
                    helpers.naive_matches_hm_structure(n, r, case), (n, r, len(case))

    def test_table_holds_the_families_anchored_at_0(self):
        for n, r in ((10, 4), (17, 1), (26, 12), (30, 15)):
            windows, families = _hm_table(n, r)
            assert len(windows) == n
            anchored = set()
            for b, c in combinations(range(1, n), 2):
                anchors = mask_of((0, b, c))
                anchored.add(mask_of(windows[w] for w in windows
                                     if (w & anchors).bit_count() == 2))
            assert families == anchored
