from dataclasses import replace

import pytest

import helpers
from ekrlab.families import SetFamily, best_full_star, elems_of, emit_family, \
    full_star, holder_masks, is_exactly_s_intersecting, is_s_intersecting, is_s_star, is_sperner, \
    is_triangular, mask_of, parse_family, stats
from ekrlab.graphs import automorphism_generators, make_cycle, make_sun, make_theta, \
    pendant_swaps
from ekrlab.paths import enumerate_paths_r, enumerate_paths_upto, to_setfamily
from ekrlab.projective import build_pg, make_field, rotational_family, triangular_char2, \
    triangular_odd


@pytest.fixture(scope="module")
def fano():
    return build_pg(make_field(2, 1)).lines


def family(*sets, ground=None):
    g = ground if ground is not None else 1 + max((max(s) for s in sets if s), default=0)
    return SetFamily.from_vertex_sets(g, sets)


class TestHolders:
    def test_holder_masks(self):
        # members 0 = {}, 1 = {0, 2}, 2 = {0, 2} (a duplicate), 3 = {1, 2};
        # ground 6, but nothing holds 3..5, so holders stop at element 2
        fam = SetFamily(ground=6, sets=(0, 0b101, 0b101, 0b110))
        assert fam.holders == [0b0110, 0b1000, 0b1110]
        assert fam.holders is fam.holders
        assert holder_masks([]) == [] and holder_masks([()]) == []

    def test_elems_of_is_ascending(self):
        for elems in ((), (0,), (0, 1, 63, 64, 127), (5, 200), tuple(range(0, 130, 3))):
            assert elems_of(mask_of(elems)) == elems

    def test_elems_of_rejects_a_negative_mask(self):
        # -1 has every bit set; the bit loop would never end on it
        for mask in (-1, -2, -(1 << 70)):
            with pytest.raises(ValueError, match="mask >= 0"):
                elems_of(mask)


class TestIntersecting:
    def test_fano_is_1_not_2(self, fano):
        assert is_s_intersecting(fano, 1)
        assert not is_s_intersecting(fano, 2)

    def test_empty_vacuous(self):
        empty = SetFamily(ground=4, sets=())
        assert is_s_intersecting(empty, 1)
        assert is_s_intersecting(empty, 3)

    def test_exactly(self, fano):
        assert is_exactly_s_intersecting(build_pg(make_field(3, 1)).lines, 1)
        assert not is_exactly_s_intersecting(
            family({0, 1, 2}, {1, 2, 3}, {2, 3, 4}), 1)
        assert is_exactly_s_intersecting(family({0, 1, 2}), 5)


class TestFullStar:
    def test_cycle_window_star(self):
        fam = to_setfamily(enumerate_paths_r(make_cycle(8), 3))
        assert len(full_star(fam, mask_of([0]))) == 3

    def test_empty_center_is_identity(self, fano):
        assert full_star(fano, 0).sets == fano.sets

    def test_two_fano_points_one_line(self, fano):
        for x in range(7):
            for y in range(x + 1, 7):
                assert len(full_star(fano, mask_of([x, y]))) == 1

    def test_antitone_in_center(self):
        fam = to_setfamily(enumerate_paths_r(make_cycle(9), 4))
        small = len(full_star(fam, mask_of([0, 1])))
        assert small <= len(full_star(fam, mask_of([0])))


class TestStats:
    def test_fano(self, fano):
        st = stats(fano, 2)
        assert st.delta == 3 and st.delta_s[2] == 1

    def test_single_set(self):
        st = stats(family({0, 1, 2, 3, 4}))
        assert st.delta == 1 and st.min_size == 5

    def test_rotation_degree(self):
        from ekrlab.projective import rotational_family
        assert stats(rotational_family(4, {0, 1, 2})).delta == 3

    def test_delta_monotone(self):
        for seed in range(25):
            fam = helpers.mixed_intersecting_family(seed)
            if len(fam) == 0:
                continue
            st = stats(fam, 3)
            assert st.delta_s[1] >= st.delta_s[2] >= st.delta_s[3]
            assert st.delta_s[1] == st.delta

    def test_best_full_star_matches_delta(self):
        fam = to_setfamily(enumerate_paths_r(make_cycle(10), 4))
        size, center = best_full_star(fam, 1)
        assert size == stats(fam).delta
        assert len(full_star(fam, center)) == size


class TestTriangular:
    def test_small_families(self):
        assert is_triangular(SetFamily(ground=3, sets=()))
        assert is_triangular(family({0, 1}, {1, 2}))

    def test_rotation_not_triangular(self):
        from ekrlab.projective import rotational_family
        assert not is_triangular(rotational_family(4, {0, 1, 2}))

    def test_equivalence_with_naive(self):
        for seed in range(60):
            fam = helpers.mixed_intersecting_family(seed)
            assert is_triangular(fam) == helpers.naive_is_triangular(fam)

    def test_delta_characterization(self):
        # for intersecting families of 2+ members: triangular iff delta = 2
        for seed in range(60):
            fam = helpers.mixed_intersecting_family(seed)
            if len(fam) < 2:
                continue
            assert is_triangular(fam) == (stats(fam).delta == 2)

    def test_size_bound(self):
        # triangular intersecting families: size at most 1 + min member size
        for m in (3, 4, 5):
            fam = helpers.general_position_family(m)
            assert is_triangular(fam)
            assert len(fam) <= 1 + stats(fam).min_size


class TestSperner:
    def test_uniform_family(self, fano):
        assert is_sperner(fano)

    def test_nested_pair(self):
        assert not is_sperner(family({0}, {0, 1}))

    def test_mixed_path_family(self):
        fam = to_setfamily(enumerate_paths_upto(make_cycle(6), 3))
        assert not is_sperner(fam)


class TestStar:
    def test_shared_vertex(self):
        fam = family({4, 5, 0}, {5, 0, 1}, {0, 1, 2}, ground=6)
        check = is_s_star(fam, 1)
        assert check.is_star and check.common == mask_of([0])

    def test_disjoint_triple(self):
        fam = family({0, 1, 2}, {2, 3, 4}, {4, 5, 0}, ground=6)
        check = is_s_star(fam, 1)
        assert not check.is_star and check.common == 0

    def test_empty_family_flag(self):
        check = is_s_star(SetFamily(ground=3, sets=()), 1)
        assert not check.is_star and check.empty_family and check.common is None


class TestTextFormat:
    def test_round_trip(self):
        fam = to_setfamily(enumerate_paths_r(make_theta((2, 3, 3)), 3))
        again = parse_family(emit_family(fam))
        assert again.sets == fam.sets and again.ground == fam.ground

    def test_header(self):
        text = emit_family(family({0, 2}, {1, 2}))
        assert text.splitlines()[0] == "# ground=3 count=2"

    def test_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            parse_family("# ground=3 count=1\n5\n")
        with pytest.raises(ValueError):
            parse_family("# ground=3 count=2\n0 1\n")
        with pytest.raises(ValueError):
            parse_family("0 1\n")
        with pytest.raises(ValueError, match="header token 'x'"):
            parse_family("# ground=3 count=1 x\n0 1\n")
        with pytest.raises(ValueError, match="repeats an element: '0 0 1'"):
            parse_family("# ground=3 count=1\n0 0 1\n")
        with pytest.raises(ValueError, match="'ground=-1'"):
            parse_family("# ground=-1 count=0\n")
        with pytest.raises(ValueError, match="repeats key 'count'"):
            parse_family("# ground=3 count=1 count=2\n0 1\n")
        with pytest.raises(ValueError, match="'ground=x'"):
            parse_family("# ground=x count=1\n0\n")
        with pytest.raises(ValueError, match="'count=1.5'"):
            parse_family("# ground=3 count=1.5\n0\n")
        with pytest.raises(ValueError, match="non-integer element: '0 a'"):
            parse_family("# ground=3 count=1\n0 a\n")


class TestSymmetry:
    def test_member_permutations(self):
        # cycle(4) r=2: members by mask {0,1} {1,2} {0,3} {2,3}; the
        # rotation v -> v+1 and the reflection v -> -v act on them as
        fam = to_setfamily(enumerate_paths_r(make_cycle(4), 2))
        assert [fam.member(i) for i in range(4)] == [(0, 1), (1, 2), (0, 3), (2, 3)]
        assert fam.member_symmetry == ((1, 3, 0, 2), (2, 3, 0, 1))

    def test_duplicates_map_to_copies_in_order(self):
        # the spanning paths of cycle(5) all have the full vertex set
        fam = to_setfamily(enumerate_paths_r(make_cycle(5), 5))
        assert len(fam) == 5 and len(set(fam.sets)) == 1
        assert fam.member_symmetry == ()
        fam = SetFamily(ground=3, sets=(0b001, 0b001, 0b010, 0b010), symmetry=((1, 0, 2),))
        assert fam.member_symmetry == ((2, 3, 0, 1),)

    def test_a_permutation_that_moves_a_member_off_the_family_raises(self):
        fam = to_setfamily(enumerate_paths_r(make_cycle(6), 3))
        swap = (1, 0, 2, 3, 4, 5)   # not an automorphism of the 6-cycle
        with pytest.raises(ValueError, match="onto themselves"):
            replace(fam, symmetry=(swap,))
        # an automorphism of the host passes
        assert replace(fam, symmetry=automorphism_generators(make_cycle(6))).member_symmetry

    def test_a_non_bijection_raises(self):
        for perm in ((0, 0, 1), (0, 1), (1, 2, 3)):
            with pytest.raises(ValueError, match="not a permutation"):
                SetFamily(ground=3, sets=(0b011,), symmetry=(perm,))

    def test_symmetry_plays_no_part_in_equality(self):
        fam = to_setfamily(enumerate_paths_r(make_sun(5, 1), 3))
        plain = replace(fam, symmetry=())
        assert fam.symmetry and fam == plain and hash(fam) == hash(plain)
        assert plain.member_symmetry == ()

    def test_generic_constructions_carry_none(self, fano):
        assert triangular_odd(make_field(3, 1)).symmetry == ()
        assert triangular_char2(make_field(2, 2)).symmetry == ()
        assert full_star(fano, 1).symmetry == ()
        assert full_star(to_setfamily(enumerate_paths_r(make_theta((2, 3, 3)), 3)), 1).symmetry == ()
        assert parse_family("# ground=3 count=1\n0 1\n").symmetry == ()

    def test_planes_and_rotations_carry_their_groups(self, fano):
        # the collineation group of the Fano plane and the shift of Z_7
        assert fano.symmetry and fano.member_symmetry
        fam = rotational_family(7, (0, 1, 3))
        assert fam.symmetry == ((1, 2, 3, 4, 5, 6, 0),) and fam.member_symmetry


class TestSwaps:
    def test_sun_families_carry_their_pendant_swaps(self):
        # sun(4,3): three pendants at each of four cycle vertices, so
        # n(t-1) = 8 swaps, each moving the paths that end at one of its
        # two pendants to those that end at the other
        g = make_sun(4, 3)
        fam = to_setfamily(enumerate_paths_r(g, 3))
        assert fam.swaps == pendant_swaps(g) and len(fam.swaps) == 8
        assert fam.swaps[0] == (1, 2) and len(fam.member_swaps) == 8
        for (a, b), (members, images) in zip(fam.swaps, fam.member_swaps):
            both = 1 << a | 1 << b
            assert members and len(members) == len(images)
            for i, j in zip(members, images):
                assert fam.sets[j] == fam.sets[i] ^ both and (fam.sets[i] & both).bit_count() == 1
            # every member holding one of the pair but not the other is
            # on one side or the other
            assert sorted(members + images) == \
                [i for i, mask in enumerate(fam.sets) if (mask & both).bit_count() == 1]
        # one pendant per vertex, or none: nothing to swap
        for t in (0, 1):
            assert to_setfamily(enumerate_paths_r(make_sun(5, t), 3)).swaps == ()
        assert to_setfamily(enumerate_paths_r(make_cycle(6), 3)).swaps == ()

    def test_member_swaps(self):
        # {0,2} <-> {1,2}; {0,1} holds both, so it stays
        fam = SetFamily(ground=3, sets=(0b011, 0b101, 0b110), swaps=((0, 1),))
        assert fam.member_swaps == (((1,), (2,)),)
        assert SetFamily(ground=3, sets=(0b011, 0b100), swaps=((0, 1),)).member_swaps == ()
        # a repeated pair, in either order, acts once
        assert replace(fam, swaps=((0, 1), (1, 0))).member_swaps == fam.member_swaps

    def test_a_pair_that_moves_a_member_off_the_family_raises(self):
        fam = replace(to_setfamily(enumerate_paths_r(make_sun(4, 3), 3)), symmetry=())
        # a cycle vertex and one of its pendants: 1-0-4 would go to 0-1-4
        with pytest.raises(ValueError, match="onto themselves"):
            replace(fam, swaps=((0, 1),))
        for pair in ((1, 1), (1, 16), (-1, 1)):
            with pytest.raises(ValueError, match="distinct ground elements"):
                replace(fam, swaps=(pair,))

    def test_the_symmetry_must_map_swaps_to_swaps(self):
        # the rotation takes the swaps at cycle vertex 0 to those at 1, so
        # the swaps of one vertex alone do not generate a normal subgroup
        fam = to_setfamily(enumerate_paths_r(make_sun(4, 3), 3))
        with pytest.raises(ValueError, match="onto swaps"):
            replace(fam, swaps=fam.swaps[:2])
        assert replace(fam, symmetry=(), swaps=fam.swaps[:2]).member_swaps

    def test_duplicates_are_matched_copy_by_copy(self):
        # the k-th copy of a set goes to the k-th copy of its image
        fam = SetFamily(ground=2, sets=(0b01, 0b01, 0b10, 0b10), swaps=((0, 1),))
        assert fam.member_swaps == (((0, 1), (2, 3)),)
        with pytest.raises(ValueError, match="onto themselves"):
            SetFamily(ground=2, sets=(0b01, 0b01, 0b10), swaps=((0, 1),))
        with pytest.raises(ValueError, match="onto themselves"):
            SetFamily(ground=2, sets=(0b01, 0b10, 0b10), swaps=((0, 1),))
        # sun(3,2) r=4: each triangle with a pendant is two paths, and
        # copies keep their order on either side
        fam = to_setfamily(enumerate_paths_r(make_sun(3, 2), 4))
        assert fam.note and fam.member_swaps
        for members, images in fam.member_swaps:
            pairs = dict(zip(members, images))
            for i, j in pairs.items():
                if i + 1 in pairs and fam.sets[i + 1] == fam.sets[i]:
                    assert pairs[i + 1] == j + 1

    def test_swaps_play_no_part_in_equality(self):
        fam = to_setfamily(enumerate_paths_r(make_sun(4, 2), 3))
        plain = replace(fam, symmetry=(), swaps=())
        assert fam.swaps and fam == plain and hash(fam) == hash(plain)
        assert plain.member_swaps == ()
