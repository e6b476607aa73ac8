import random

import pytest

import helpers
from ekrlab.families import mask_of
from ekrlab.graphs import GraphError, make_cycle, make_random_tree, make_sun, \
    make_theta
from ekrlab.solvers import Limits
from ekrlab.verdicts import build_family, check_ekr, check_hm, matches_hm_structure


class TestCheckEkr:
    def test_cycle_strict(self):
        v = check_ekr(make_cycle(8), "uniform", 3, 1)
        assert v.brute_value == 3
        assert v.is_ekr and v.is_strict
        assert v.classification == "star"
        assert v.oracle_match is True
        assert v.construction_ok is True
        assert v.max_star["size"] == 3

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
        v = check_ekr(make_sun(8, 2), "uniform", 4, 1, Limits(node_budget=3))
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
        v = check_ekr(make_sun(8, 2), "uniform", 4, 1, Limits(node_budget=3))
        assert v.limits_hit and v.value_exact is False
        assert v.is_ekr is None
        assert v.construction_ok is None
        assert v.classification == "unknown"
        assert v.brute_value == v.max_star["size"] == 24
        assert len(v.witnesses["optimum"]) == 24

    def test_without_optima_enumeration(self):
        v = check_ekr(make_cycle(8), "uniform", 3, 1, enumerate_optima=False)
        assert v.brute_value == 3 and v.is_ekr
        assert v.is_strict is None

    def test_bad_mode(self):
        with pytest.raises(GraphError):
            build_family(make_cycle(6), "nonsense", 3)


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


class TestHmStructureMatcher:
    def test_positive(self):
        from ekrlab.oracles import build_cycle_hm_family
        fam = build_cycle_hm_family(12, 5, (0, 4, 8))
        assert matches_hm_structure(12, 5, list(fam.sets))

    def test_negative(self):
        # the pentagon family: five 5-windows at even starts on C_10 is a
        # maximum non-star family matching no 3-vertex anchor set
        from ekrlab.families import mask_of
        windows = [mask_of([(y + d) % 10 for d in range(5)]) for y in (0, 2, 4, 6, 8)]
        assert not matches_hm_structure(10, 5, windows)

    def test_single_window_unmatchable(self):
        from ekrlab.families import mask_of
        assert not matches_hm_structure(12, 5, [mask_of(range(5))])

    def test_lookup_agrees_with_anchor_scan(self):
        rng = random.Random(11)
        for n in range(6, 17):
            for r in range(1, n):
                windows = [mask_of((y + d) % n for d in range(r)) for y in range(n)]
                not_window = mask_of(range(r + 1))
                cases = set()
                for fam in helpers.naive_hm_families(n, r):
                    cases.add(fam)
                    cases.update(fam[:i] + fam[i + 1:] for i in range(len(fam)))
                    # adding a window of the family makes a duplicate
                    cases.update(fam + (w,) for w in windows)
                    cases.add(fam + (not_window,))
                cases.update(tuple(rng.sample(windows, rng.randint(0, n)))
                             for _ in range(40))
                for case in cases:
                    assert matches_hm_structure(n, r, list(case)) == \
                        helpers.naive_matches_hm_structure(n, r, list(case)), (n, r, case)
