import pytest

import helpers
from ekrlab.graphs import Graph, GraphError, make_cycle, make_random_tree, make_sun, \
    make_theta
from ekrlab.paths import enumerate_paths_all, enumerate_paths_r, enumerate_paths_upto, \
    image_on_cycle, to_setfamily


class TestEnumerateUniform:
    def test_cycle_counts(self):
        assert len(enumerate_paths_r(make_cycle(8), 3)) == 8

    def test_sun_count(self):
        assert len(enumerate_paths_r(make_sun(4, 1), 3)) == 12

    def test_cycle_every_r(self):
        # n paths for every r up to n, so the all-paths family has n^2
        for n in range(3, 13):
            g = make_cycle(n)
            for r in range(1, n + 1):
                assert len(enumerate_paths_r(g, r)) == n
            assert len(enumerate_paths_all(g)) == n * n

    @pytest.mark.parametrize("g,r", [
        (make_sun(4, 1), 3),
        (make_sun(5, 2), 4),
        (make_theta((2, 3, 3)), 4),
        (make_theta((2, 3, 3, 3)), 3),
    ])
    def test_against_naive_count(self, g, r):
        assert len(enumerate_paths_r(g, r)) == helpers.naive_path_count(g, r)

    def test_theta_frozen_count(self):
        assert len(enumerate_paths_r(make_theta((2, 3, 3)), 4)) == 14
        assert len(enumerate_paths_r(make_theta((1, 2)), 2)) == 3

    def test_r_out_of_range(self):
        with pytest.raises(GraphError):
            enumerate_paths_r(make_cycle(4), 5)
        with pytest.raises(GraphError):
            enumerate_paths_r(make_cycle(4), 0)

    def test_ground_cap(self):
        big = Graph(n=129, edges=frozenset((i, i + 1) for i in range(128)))
        with pytest.raises(GraphError):
            enumerate_paths_r(big, 2)

    def test_ground_cap_boundary(self):
        edge = Graph(n=128, edges=frozenset((i, i + 1) for i in range(127)))
        assert len(enumerate_paths_r(edge, 2)) == 127


# a triangle, an edge, an isolated vertex and a 3-edge path, in one graph
DISCONNECTED = Graph(n=10, edges=frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (6, 7),
                                            (7, 8), (8, 9)}))
WALK_HOSTS = ([make_cycle(n) for n in (3, 4, 7, 10)]
              + [make_sun(n, t) for n in (3, 5, 6) for t in (0, 1, 2)]
              + [make_theta(a) for a in ((1, 2), (2, 3, 3), (3, 4, 5), (2, 2, 2, 2))]
              + [make_random_tree(n, seed) for n in (1, 2, 6, 11) for seed in (0, 1)]
              + [DISCONNECTED])


def _naive_masks(g, lo, hi):
    return tuple(sorted(mask for _, mask in helpers.naive_paths(g, lo, hi)))


class TestAgainstNaiveWalk:
    """The full mask lists of the three enumerators, one mask per path,
    against the set-based walk in helpers."""

    @pytest.mark.parametrize("g", WALK_HOSTS, ids=lambda g: f"{g.kind}{g.meta}-n{g.n}")
    def test_every_family(self, g):
        for r in range(1, g.n + 1):
            assert enumerate_paths_r(g, r).paths == _naive_masks(g, r, r)
        for k in (1, 2, g.n, g.n + 3):
            assert enumerate_paths_upto(g, k).paths == _naive_masks(g, 1, k)
        assert enumerate_paths_all(g).paths == _naive_masks(g, 1, g.n)

    def test_no_vertices(self):
        empty = Graph(n=0, edges=frozenset())
        with pytest.raises(GraphError):
            enumerate_paths_all(empty)
        with pytest.raises(GraphError):
            enumerate_paths_r(empty, 1)
        assert len(enumerate_paths_upto(empty, 3)) == 0

    def test_upto_needs_k(self):
        with pytest.raises(GraphError):
            enumerate_paths_upto(make_cycle(4), 0)


class TestCanonicalForm:
    def test_sorted_and_canonical(self):
        fam = enumerate_paths_r(make_sun(5, 1), 4)
        assert list(fam.paths) == sorted(fam.paths)
        assert all(mask.bit_count() == 4 for mask in fam.paths)

    def test_no_duplicate_subgraphs(self):
        # each path once, not once per end: the 4 spanning paths of the
        # 4-cycle share its vertex set and are kept 4 times, not 8
        fam = enumerate_paths_all(make_sun(4, 2))
        cycle = sum(1 << (3 * i) for i in range(4))
        assert fam.paths.count(cycle) == 4
        assert len(fam.paths) == len(helpers.naive_paths(make_sun(4, 2), 1, 12))

    def test_enumeration_ignores_edge_presentation_order(self):
        g1 = make_theta((2, 3, 3))
        shuffled = Graph(n=g1.n, edges=frozenset(sorted(g1.edges, reverse=True)),
                         kind="theta", labels=g1.labels, meta=g1.meta)
        assert enumerate_paths_r(g1, 4).paths == enumerate_paths_r(shuffled, 4).paths

    def test_partitioned_starts_merge_to_same_family(self):
        # the 3-paths of sun(4,1) have distinct vertex sets, so the sorted
        # masks hold each once
        fam = enumerate_paths_r(make_sun(4, 1), 3)
        assert sorted(set(fam.paths)) == list(fam.paths)


class TestUpto:
    def test_cycle_upto2(self):
        assert len(enumerate_paths_upto(make_cycle(5), 2)) == 10

    def test_sun_upto2(self):
        assert len(enumerate_paths_upto(make_sun(4, 1), 2)) == 16

    def test_k_beyond_n_is_all(self):
        g = make_cycle(6)
        assert len(enumerate_paths_upto(g, 99)) == 36


class TestToSetFamily:
    def test_cycle_uniform(self):
        fam = to_setfamily(enumerate_paths_r(make_cycle(8), 3))
        assert len(fam) == 8
        assert all(s.bit_count() == 3 for s in fam.sets)
        assert fam.note is None

    def test_triangle_edges(self):
        fam = to_setfamily(enumerate_paths_r(make_theta((1, 2)), 2))
        assert len(fam) == 3
        assert all(s.bit_count() == 2 for s in fam.sets)

    def test_theta_preserves_cardinality(self):
        pf = enumerate_paths_r(make_theta((2, 3, 3)), 4)
        assert len(to_setfamily(pf)) == len(pf)

    def test_spanning_paths_flagged(self):
        # the n spanning paths of a cycle share one vertex set
        fam = to_setfamily(enumerate_paths_all(make_cycle(5)))
        assert len(fam) == 25
        assert fam.note is not None and "duplicate" in fam.note

    @pytest.mark.parametrize("g,r", [
        (make_sun(6, 1), 3), (make_sun(8, 2), 4), (make_theta((2, 5, 5)), 4),
    ])
    def test_uniform_families_injective(self, g, r):
        pf = enumerate_paths_r(g, r)
        fam = to_setfamily(pf)
        assert len(fam) == len(pf) and fam.note is None


class TestImageOnCycle:
    def test_strip_pendants(self):
        g = make_sun(4, 1)
        # v_0^1 v_0^0 v_1^0 v_1^1 under the id layout i*(t+1)+j
        assert image_on_cycle((1, 0, 2, 3), g) == (0, 2)
        assert image_on_cycle((3, 2, 0, 1), g) == (0, 2)

    def test_identity_on_cycle_paths(self):
        g = make_sun(5, 1)
        assert image_on_cycle((0, 2, 4), g) == (0, 2, 4)
        assert image_on_cycle((4, 2, 0), g) == (0, 2, 4)

    def test_pendant_singleton_empty(self):
        g = make_sun(4, 2)
        assert image_on_cycle((1,), g) is None

    def test_host_mismatch(self):
        with pytest.raises(GraphError):
            image_on_cycle((0, 5), make_sun(4, 1))
        with pytest.raises(GraphError):
            image_on_cycle((0, 1), make_cycle(4))
        # a walk that comes back to a vertex is not a path
        with pytest.raises(GraphError):
            image_on_cycle((0, 2, 0), make_sun(4, 1))

    @pytest.mark.parametrize("n,t", [(4, 1), (5, 2), (6, 1), (7, 2), (8, 1), (8, 2)])
    def test_lift_counts_and_contiguity(self, n, t):
        from collections import Counter
        from math import comb

        g = make_sun(n, t)
        counts: Counter = Counter()
        empties = 0
        for seq, _ in helpers.naive_paths(g, 1, g.n):
            im = image_on_cycle(seq, g)
            if im is None:
                empties += 1
            else:
                # the restriction is itself a path, never disconnected,
                # given in its canonical direction
                assert im <= im[::-1]
                for a, b in zip(im, im[1:]):
                    assert g.has_edge(a, b)
                counts[im] += 1
        for seq, c in counts.items():
            expected = comb(t + 1, 2) + 1 if len(seq) == 1 else (t + 1) ** 2
            assert c == expected
        assert empties == n * t
