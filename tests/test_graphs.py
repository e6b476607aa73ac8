import math

import pytest

import helpers
from ekrlab.graphs import Graph, GraphError, ParseError, automorphism_generators, \
    emit_graph, girth, is_connected, make_cycle, make_graph, make_random_tree, make_sun, \
    make_theta, parse_graph, sun_vertex


class TestMakeCycle:
    def test_triangle(self):
        g = make_cycle(3)
        assert g.n == 3 and g.m == 3

    def test_eight(self):
        g = make_cycle(8)
        assert g.n == 8 and g.m == 8
        assert girth(g) == 8

    def test_two_regular(self):
        g = make_cycle(6)
        assert all(g.degree(v) == 2 for v in range(6))

    def test_too_small(self):
        with pytest.raises(GraphError):
            make_cycle(2)


class TestMakeSun:
    def test_counts(self):
        g = make_sun(4, 1)
        assert g.n == 8 and g.m == 8

    @pytest.mark.parametrize("n,t", [(3, 0), (5, 1), (6, 2), (8, 3)])
    def test_size_formula(self, n, t):
        g = make_sun(n, t)
        assert g.n == n * (t + 1)
        assert g.m == n * (t + 1)

    def test_t0_is_cycle(self):
        # identity on labels (i,0) -> i carries edges onto the cycle
        g = make_sun(5, 0)
        c = make_cycle(5)
        mapped = {tuple(sorted((g.labels[u][0], g.labels[v][0]))) for u, v in g.edges}
        assert mapped == set(c.edges)

    def test_pendants_do_not_change_girth(self):
        assert girth(make_sun(5, 2)) == 5
        for t in range(3):
            for n in (3, 4, 7):
                assert girth(make_sun(n, t)) == n

    def test_label_bijection(self):
        g = make_sun(4, 2)
        assert sorted(g.labels) == list(range(12))
        assert g.labels[sun_vertex(2, 1, 2)] == (2, 1)

    def test_bad_parameters(self):
        with pytest.raises(GraphError):
            make_sun(2, 1)
        with pytest.raises(GraphError):
            make_sun(4, -1)


class TestMakeTheta:
    def test_k3(self):
        g = make_theta((1, 2))
        assert g.n == 3 and g.m == 3
        assert girth(g) == 3

    def test_girth_two_shortest_strands(self):
        assert girth(make_theta((2, 2, 3))) == 4

    def test_counts(self):
        g = make_theta((2, 3, 3))
        assert g.n == 7 and g.m == 8

    def test_two_strand_theta_is_cycle(self):
        g = make_theta((2, 3))
        assert g.n == 5 and g.m == 5
        assert all(g.degree(v) == 2 for v in range(g.n))
        assert is_connected(g)

    def test_hub_labels(self):
        g = make_theta((2, 3, 3))
        assert g.labels[0] == "u" and g.labels[1] == "v"
        assert g.labels[2] == (1, 1)

    def test_rejects_multigraph(self):
        with pytest.raises(GraphError):
            make_theta((1, 1, 2))

    def test_rejects_unsorted(self):
        with pytest.raises(GraphError):
            make_theta((3, 2, 3))

    def test_rejects_single_strand(self):
        with pytest.raises(GraphError):
            make_theta((4,))


class TestRandomTree:
    def test_tiny(self):
        assert make_random_tree(1, 0).m == 0
        assert make_random_tree(2, 0).m == 1

    def test_fixed_seed_deterministic(self):
        assert make_random_tree(9, 7).edges == make_random_tree(9, 7).edges

    def test_nine_seven(self):
        g = make_random_tree(9, 7)
        assert g.m == 8
        assert is_connected(g)
        assert girth(g) == math.inf

    def test_tree_axioms_many_seeds(self):
        for seed in range(200):
            n = 3 + seed % 10
            g = make_random_tree(n, seed)
            assert g.m == n - 1
            assert is_connected(g)


class TestGirth:
    def test_cycle(self):
        assert girth(make_cycle(6)) == 6

    def test_forest_is_infinite(self):
        assert girth(make_random_tree(7, 3)) == math.inf

    def test_theta(self):
        assert girth(make_theta((2, 2, 3))) == 4
        for a in [(2, 3, 3), (3, 3, 4), (2, 5, 5)]:
            assert girth(make_theta(a)) == a[0] + a[1]

    def test_against_naive(self):
        zoo = [make_cycle(5), make_sun(4, 1), make_theta((2, 2, 3)),
               make_theta((2, 3, 3, 3)), make_random_tree(8, 1)]
        for g in zoo:
            assert girth(g) == helpers.naive_girth(g)


class TestParseEmit:
    def test_triangle(self):
        g = parse_graph("3 3\n0 1\n1 2\n2 0\n")
        assert g.n == 3 and g.m == 3

    def test_round_trip(self):
        text = "4 3\n2 3\n0 1\n1 2\n"
        normalized = emit_graph(parse_graph(text))
        assert emit_graph(parse_graph(normalized)) == normalized

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("2 1\n0 2\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("3 2\n0 1\n1 0\n")

    def test_loop(self):
        with pytest.raises(ParseError, match="loop"):
            parse_graph("3 1\n1 1\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_graph("3\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n0 1\n")


class TestAutomorphismGenerators:
    def test_every_generator_preserves_the_edges(self):
        hosts = helpers.symmetric_hosts()
        assert {g.kind for g in hosts} == {"cycle", "sun", "theta"}
        for g in hosts:
            gens = automorphism_generators(g)
            assert gens, g.meta
            for perm in gens:
                assert sorted(perm) == list(range(g.n)), g.meta
                moved = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges}
                assert moved == g.edges, g.meta
                assert perm != tuple(range(g.n)), g.meta

    def test_cycle_rotation_and_reflection(self):
        assert automorphism_generators(make_cycle(5)) == ((1, 2, 3, 4, 0), (0, 4, 3, 2, 1))

    def test_sun_keeps_the_pendant_index(self):
        rotation, reflection = automorphism_generators(make_sun(4, 2))
        for i in range(4):
            for j in range(3):
                assert rotation[sun_vertex(i, j, 2)] == sun_vertex((i + 1) % 4, j, 2)
                assert reflection[sun_vertex(i, j, 2)] == sun_vertex(-i % 4, j, 2)

    def test_theta_hub_swap_and_equal_strands(self):
        # theta(2,3,3): strand 1 is vertex 2, strand 2 is 3,4, strand 3 is 5,6
        swap, transposition = automorphism_generators(make_theta((2, 3, 3)))
        assert swap == (1, 0, 2, 4, 3, 6, 5)
        assert transposition == (0, 1, 2, 5, 6, 3, 4)
        # unequal strands: the hub swap alone
        assert len(automorphism_generators(make_theta((2, 3, 4)))) == 1
        assert len(automorphism_generators(make_theta((3, 3, 3, 3)))) == 4

    def test_trees_and_custom_graphs_have_none(self):
        assert automorphism_generators(make_random_tree(8, 1)) == ()
        assert automorphism_generators(Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))) == ()


class TestMakeGraph:
    def test_dispatches_on_kind(self):
        assert make_graph("cycle", n=7) == make_cycle(7)
        assert make_graph("sun", n=5, t=2) == make_sun(5, 2)
        assert make_graph("theta", a=(2, 3, 3)) == make_theta((2, 3, 3))
        assert make_graph("tree", n=9, seed=4) == make_random_tree(9, 4)

    def test_unknown_kind(self):
        with pytest.raises(GraphError, match="unknown kind 'wheel'"):
            make_graph("wheel")
