import helpers
from ekrlab import verdicts
from ekrlab.families import SetFamily, is_s_intersecting, is_s_star, mask_of, stats
from ekrlab.graphs import make_cycle, make_random_tree, make_sun, make_theta
from ekrlab.paths import enumerate_paths_all, enumerate_paths_r, enumerate_paths_upto, \
    to_setfamily
from ekrlab.projective import build_pg, make_field, rotational_family
from ekrlab.solvers import Limits, enumerate_maximum_s_intersecting, \
    helly_triple_check, max_intersecting_sperner, max_nonstar_s_intersecting, \
    max_s_intersecting, max_triangular_intersecting, min_transversal


def path_family(g, r):
    return to_setfamily(enumerate_paths_r(g, r))


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
        res = enumerate_maximum_s_intersecting(fam, 1, Limits(node_budget=3))
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


class TestNodeCounts:
    """Node counts are deterministic; a rise means the search tree grew."""

    def test_one_pass_enumeration(self):
        # pendant twins contract: 192 members, 36 weighted quotient vertices
        res = enumerate_maximum_s_intersecting(path_family(make_sun(12, 3), 6), 1)
        assert res.nodes <= 171

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
        assert len(res.all_optima) == 12 and res.nodes <= 171

    def test_nonstar_enumeration(self):
        # the cap counts non-star optima only: all 312 fit under 400
        res = max_nonstar_s_intersecting(path_family(make_cycle(26), 12), 1,
                                         Limits(optima_cap=400), enumerate_optima=True)
        assert res.nodes <= 4754
        assert len(res.all_optima) == 312 and not res.limits_hit

    def test_transversal_of_pg7(self):
        # the packing bound is 1 on pairwise-intersecting lines; the
        # degree-sum bound carries the search (2,396,821 nodes without it)
        res = min_transversal(build_pg(make_field(7, 1)).lines)
        assert res.value == 8 and res.nodes <= 77

    def test_transversal_of_pg7_minus_a_pencil(self):
        lines = build_pg(make_field(7, 1)).lines
        corner = 7 * 7 + 7  # the point (w,w)
        fam = SetFamily(ground=lines.ground,
                        sets=tuple(m for m in lines.sets if not (m >> corner) & 1))
        res = min_transversal(fam)
        assert res.nodes <= 21  # 299,613 without the degree-sum bound
        assert len(res.witness) == res.value and all(m & mask_of(res.witness)
                                                     for m in fam.sets)


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

    def test_upper_hint_short_circuits(self):
        fam = to_setfamily(enumerate_paths_all(make_cycle(6)))
        omega = max_s_intersecting(fam, 1).value
        hinted = max_nonstar_s_intersecting(fam, 1, upper_hint=omega)
        plain = max_nonstar_s_intersecting(fam, 1)
        assert hinted.value == plain.value == omega
        assert hinted.nodes <= plain.nodes

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
        # intersecting and unrestricted families
        checked = 0
        for seed in range(60):
            for fam in (helpers.mixed_intersecting_family(seed), helpers.random_family(seed)):
                if not 0 < len(fam) <= 14:
                    continue
                checked += 1
                res = min_transversal(fam)
                expected = helpers.naive_lex_least_transversal(fam)
                assert (res.value, res.witness) == (len(expected), expected), fam.name
                assert res.value_exact and not res.limits_hit
        assert checked >= 100

    def test_tau_sandwich(self):
        # ceil(m/delta) <= tau <= min(ceil(m/2), min member size)
        import math
        for seed in range(40):
            fam = helpers.mixed_intersecting_family(seed)
            if len(fam) < 1:
                continue
            st = stats(fam)
            tau = min_transversal(fam).value
            assert math.ceil(len(fam) / st.delta) <= tau
            assert tau <= min(math.ceil(len(fam) / 2), st.min_size)


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


class TestSperner:
    def test_uniform_equals_plain_max(self):
        fam = path_family(make_cycle(9), 4)
        assert max_intersecting_sperner(fam).value == max_s_intersecting(fam, 1).value

    def test_comparable_pair(self):
        fam = SetFamily.from_vertex_sets(2, [{0}, {0, 1}])
        assert max_intersecting_sperner(fam).value == 1

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
