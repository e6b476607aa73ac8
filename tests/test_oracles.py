import pytest

import helpers
from ekrlab.families import full_star, is_s_intersecting, is_s_star, mask_of, stats
from ekrlab.graphs import GraphError, girth, make_sun, make_theta, sun_vertex
from ekrlab.oracles import build_cycle_hm_family, build_sun_hm_family, \
    build_sun_star_family, hm_cycle_size, subdivided_complete_graph, \
    sun_allpaths_counts, sun_bound, theta_f, theta_interior_star_size
from ekrlab.paths import enumerate_paths_all, enumerate_paths_r, image_on_cycle, \
    to_setfamily

class TestSunBound:
    def test_paper_values(self):
        assert sun_bound(8, 1, 3, 1).value == 7
        assert sun_bound(8, 1, 4, 1).value == 12
        assert sun_bound(8, 0, 4, 1).value == 4

    def test_katona_form_at_t0(self):
        for n in range(6, 14):
            for r in range(3, (n // 2) + 1):
                assert sun_bound(n, 0, r, 1).value == r

    def test_variants_agree_except_r_eq_s_plus_2_with_s_ge_2(self):
        for n in (8, 10, 12):
            for t in (1, 2, 3):
                for s in (1, 2, 3):
                    for r in range(s + 2, (n + s - 1) // 2 + 1):
                        a = sun_bound(n, t, r, s, variant="binomial")
                        b = sun_bound(n, t, r, s, variant="squared")
                        if r == s + 2 and s >= 2:
                            assert a.value < b.value
                        else:
                            assert a.value == b.value

    def test_hypothesis_checks(self):
        assert not sun_bound(8, 1, 2, 1).applicable      # r below s+2
        assert not sun_bound(8, 1, 5, 1).applicable      # r beyond (n+s-1)/2
        assert not sun_bound(8, -1, 3, 1).applicable
        with pytest.raises(ValueError):
            sun_bound(8, 1, 3, 1, variant="nonsense")


class TestHmCycleSize:
    def test_values(self):
        assert hm_cycle_size(12, 5).value == 3
        assert hm_cycle_size(9, 4).value == 3

    def test_range(self):
        assert not hm_cycle_size(12, 4).applicable
        assert not hm_cycle_size(12, 7).applicable
        assert hm_cycle_size(12, 6).value == 6


class TestThetaF:
    def test_branch_one(self):
        assert theta_f(3, 2, 3).value == 6

    def test_branch_two(self):
        assert theta_f(3, 2, 4, a2=7).value == 10

    def test_out_of_branch(self):
        assert not theta_f(3, 2, 2).applicable
        assert not theta_f(3, 3, 5, a2=4).applicable

    def test_two_strands_match_cycle_bound(self):
        # a theta with two strands is the (a1+a2)-cycle
        for (a1, a2) in [(2, 5), (3, 6), (2, 9)]:
            n = a1 + a2
            for r in range(3, n // 2 + 1):
                f = theta_f(2, a1, r, a2=a2)
                katona = sun_bound(n, 0, r, 1)
                if f.applicable and katona.applicable:
                    assert f.value == katona.value

    def test_branches_cover_theorem_range(self):
        # inside 3 <= r <= (a1+a2+1)/2 there is no gap between branches
        for a1 in range(1, 8):
            for a2 in range(max(2, a1), 10):
                for r in range(3, (a1 + a2 + 1) // 2 + 1):
                    assert theta_f(4, a1, r, a2=a2).applicable


class TestThetaInteriorStar:
    def test_tiny_r_is_r(self):
        assert theta_interior_star_size((2, 9, 9), 2, 4, 3).value == 3

    def test_frozen_values(self):
        assert theta_interior_star_size((3, 3, 3), 1, 1, 3).value == 4
        assert theta_interior_star_size((3, 3, 3), 1, 1, 4).value == 7
        # w_(2,1) at r=5: 2 paths inside strand 2 and 6 through u, one of
        # which crosses strand 1 to v and can go on into strand 2 or 3
        assert theta_interior_star_size((2, 7, 7), 2, 1, 5).value == 9
        assert theta_interior_star_size((1, 6, 6, 6), 2, 1, 4).value == 10

    def test_rejects_non_interior(self):
        with pytest.raises(GraphError):
            theta_interior_star_size((2, 3, 3), 1, 0, 3)
        with pytest.raises(GraphError):
            theta_interior_star_size((2, 3, 3), 1, 2, 3)

    @pytest.mark.parametrize("a,rmax", [
        ((2, 3, 3), 3), ((3, 3, 3), 4), ((2, 5, 5), 4), ((2, 3, 3, 3), 3),
        # paths from an interior vertex that cross a short strand and branch
        # at the far hub
        ((2, 7, 7), 5), ((1, 6, 6, 6), 4),
    ])
    def test_against_enumeration(self, a, rmax):
        g = make_theta(a)
        for r in range(3, rmax + 1):
            fam = to_setfamily(enumerate_paths_r(g, r))
            for vid in range(2, g.n):
                i, j = g.labels[vid]
                oracle = theta_interior_star_size(a, i, j, r)
                if oracle.applicable:
                    assert oracle.value == len(full_star(fam, 1 << vid)), (a, r, i, j)


class TestSunAllPathsCounts:
    def test_t0(self):
        counts = sun_allpaths_counts(4, 0)
        assert counts["star"] == counts["hm"] == 10
        for n in (3, 5, 8):
            assert sun_allpaths_counts(n, 0)["star"] == n * (n + 1) // 2

    def test_t1(self):
        counts = sun_allpaths_counts(4, 1)
        assert counts == {"total": 56, "star": 38, "hm": 40}

    @pytest.mark.parametrize("n,t", [(4, 1), (5, 1), (4, 2)])
    def test_against_enumeration(self, n, t):
        g = make_sun(n, t)
        pf = enumerate_paths_all(g)
        counts = sun_allpaths_counts(n, t)
        walks = helpers.naive_paths(g, 1, g.n)
        assert len(pf) == len(walks)
        lifted = sum(1 for seq, _ in walks if image_on_cycle(seq, g) is not None)
        assert lifted == counts["total"]
        # the best star sits at a cycle vertex and matches the formula
        assert stats(to_setfamily(pf)).delta == counts["star"]


class TestBuildSunStar:
    def test_cycle_case(self):
        fam = build_sun_star_family(8, 0, 3, 1)
        assert len(fam) == 3
        assert all(mask & (1 << 2) for mask in fam.sets)

    def test_sun_case(self):
        fam = build_sun_star_family(8, 1, 3, 1)
        assert len(fam) == 7
        center = 1 << sun_vertex(2, 0, 1)
        assert all(mask & center for mask in fam.sets)

    @pytest.mark.parametrize("n,t,r,s", [
        (8, 1, 3, 1), (8, 2, 4, 1), (9, 1, 4, 2), (10, 2, 5, 2), (9, 2, 4, 2),
    ])
    def test_properties_and_size(self, n, t, r, s):
        fam = build_sun_star_family(n, t, r, s)
        assert is_s_intersecting(fam, s)
        assert is_s_star(fam, s).is_star
        assert len(fam) == sun_bound(n, t, r, s, variant="squared").value
        # dual route: the build equals the full star of the enumeration
        enum = to_setfamily(enumerate_paths_r(make_sun(n, t), r))
        center = mask_of(sun_vertex(d, 0, t) for d in range(r - s, r))
        assert fam.sets == full_star(enum, center).sets

    def test_hypothesis_violated(self):
        with pytest.raises(GraphError):
            build_sun_star_family(8, 1, 5, 1)


class TestBuildCycleHm:
    def test_12_5(self):
        fam = build_cycle_hm_family(12, 5, (0, 4, 8))
        assert len(fam) == 3
        assert is_s_intersecting(fam, 1)
        assert not is_s_star(fam, 1).is_star

    def test_9_4(self):
        fam = build_cycle_hm_family(9, 4, (0, 3, 6))
        assert len(fam) == 3

    def test_size_formula_over_gap_choices(self):
        n, r = 13, 6
        for anchors in [(0, 4, 8), (0, 4, 9), (1, 5, 9)]:
            fam = build_cycle_hm_family(n, r, anchors)
            assert len(fam) == 3 * r - n
            assert not is_s_star(fam, 1).is_star

    def test_degenerate_anchors(self):
        with pytest.raises(GraphError):
            build_cycle_hm_family(12, 5, (0, 4, 4))

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            build_cycle_hm_family(12, 4, (0, 4, 8))


class TestBuildSunHm:
    def test_4_1(self):
        fam = build_sun_hm_family(4, 1)
        assert len(fam) == 40
        assert is_s_intersecting(fam, 1)
        assert not is_s_star(fam, 1).is_star

    def test_5_0(self):
        fam = build_sun_hm_family(5, 0)
        assert len(fam) == 15
        assert is_s_intersecting(fam, 1)
        assert not is_s_star(fam, 1).is_star

    @pytest.mark.parametrize("n,t", [(4, 1), (5, 1), (4, 2)])
    def test_size_and_membership(self, n, t):
        g = make_sun(n, t)
        fam = build_sun_hm_family(n, t)
        assert len(fam) == sun_allpaths_counts(n, t)["hm"]
        # every member is a real path of the sun and its image avoids
        # nothing outside the swapped star
        enum = set(enumerate_paths_all(g).paths)
        assert enum == {mask for _, mask in helpers.naive_paths(g, 1, g.n)}
        assert all(mask in enum for mask in fam.sets)


class TestSubdividedComplete:
    def test_girth(self):
        g = subdivided_complete_graph(4, 3)
        assert g.n == 16 and g.m == 18
        assert girth(g) == 9
