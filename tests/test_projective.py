import hashlib
import random

import pytest

from ekrlab.families import is_exactly_s_intersecting, is_s_intersecting, \
    is_triangular, stats
from ekrlab.projective import MAX_FIELD, FieldError, build_pg, collineation_generators, \
    emit_pg_map, field_of_order, make_field, point_id, rotational_family, sqrt_char2, \
    triangular_char2, triangular_odd
from ekrlab.solvers import _orbit, min_transversal

FIELDS = {q: spec for q, spec in
          ((2, make_field(2, 1)), (3, make_field(3, 1)), (4, make_field(2, 2)),
           (5, make_field(5, 1)), (7, make_field(7, 1)), (8, make_field(2, 3)),
           (9, make_field(3, 2)), (16, make_field(2, 4)))}


class TestMakeField:
    def test_gf4_modulus(self):
        assert FIELDS[4].modulus == (1, 1, 1)  # x^2 + x + 1

    def test_prime_field_modulus(self):
        assert make_field(5, 1).modulus == (0, 1)  # x

    def test_gf9_modulus_is_irreducible(self):
        spec = FIELDS[9]
        c0, c1, _ = spec.modulus
        # brute root scan over GF(3)
        assert all((x * x + c1 * x + c0) % 3 != 0 for x in range(3))

    def test_composite_characteristic(self):
        with pytest.raises(FieldError):
            make_field(4, 1)

    def test_order_cap(self):
        with pytest.raises(FieldError):
            make_field(2, 10)


class TestFieldOfOrder:
    @pytest.mark.parametrize("q,p,k", [(2, 2, 1), (4, 2, 2), (8, 2, 3), (9, 3, 2),
                                       (25, 5, 2)])
    def test_prime_powers(self, q, p, k):
        assert field_of_order(q) == make_field(p, k)

    @pytest.mark.parametrize("q", [1, 6, 12])
    def test_other_orders_rejected(self, q):
        with pytest.raises(FieldError, match="not a prime power"):
            field_of_order(q)


class TestFieldOps:
    def test_gf4_generator_square(self):
        spec = FIELDS[4]
        a = 2  # the class of x
        assert spec.mul(a, a) == spec.add(a, 1)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
    def test_additive_inverse(self, q):
        spec = FIELDS[q]
        assert all(spec.add(x, spec.neg(x)) == 0 for x in spec.elements)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
    def test_multiplicative_inverse(self, q):
        spec = FIELDS[q]
        assert all(spec.mul(x, spec.inv(x)) == 1 for x in spec.elements if x)

    def test_inv_zero(self):
        with pytest.raises(ZeroDivisionError):
            FIELDS[4].inv(0)

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_field_axioms_exhaustive(self, q):
        spec = FIELDS[q]
        els = list(spec.elements)
        for a in els:
            for b in els:
                assert spec.add(a, b) == spec.add(b, a)
                assert spec.mul(a, b) == spec.mul(b, a)
                for c in els:
                    assert spec.mul(a, spec.add(b, c)) == \
                        spec.add(spec.mul(a, b), spec.mul(a, c))
                    assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))

    @pytest.mark.parametrize("q", [4, 8, 9, 16])
    def test_frobenius_additive(self, q):
        spec = FIELDS[q]
        p = spec.p
        for a in spec.elements:
            for b in spec.elements:
                assert spec.pow(spec.add(a, b), p) == \
                    spec.add(spec.pow(a, p), spec.pow(b, p))


def prime_powers(top):
    out = []
    for q in range(2, top + 1):
        try:
            field_of_order(q)
        except FieldError:
            continue
        out.append(q)
    return out


class TestFieldTables:
    """The table lookups against the coefficient arithmetic that fills
    the tables."""

    @staticmethod
    def check(spec, pairs):
        for a, b in pairs:
            assert spec.add(a, b) == spec._coeff_add(a, b), (spec.q, a, b)
            assert spec.mul(a, b) == spec._coeff_mul(a, b), (spec.q, a, b)
            assert spec._coeff_add(spec.sub(a, b), b) == a, (spec.q, a, b)
            if b:
                assert spec._coeff_mul(spec.div(a, b), b) == a, (spec.q, a, b)
        for a in spec.elements:
            assert spec._coeff_add(a, spec.neg(a)) == 0
            if a:
                assert spec._coeff_mul(a, spec.inv(a)) == 1

    @pytest.mark.parametrize("q", prime_powers(64))
    def test_every_pair_up_to_64(self, q):
        spec = field_of_order(q)
        self.check(spec, ((a, b) for a in spec.elements for b in spec.elements))

    def test_a_sample_up_to_the_cap(self):
        rng = random.Random(12)
        for q in prime_powers(MAX_FIELD):
            if q > 64:
                spec = field_of_order(q)
                self.check(spec, [(rng.randrange(q), rng.randrange(q)) for _ in range(30)])

    @pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 25, 27, 509, 512])
    def test_primitive_element(self, q):
        spec = field_of_order(q)
        g, x, order = spec.primitive, spec.primitive, 1
        while x != 1:
            x = spec._coeff_mul(x, g)
            order += 1
        assert order == q - 1

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
    def test_pow_matches_repeated_multiplication(self, q):
        spec = field_of_order(q)
        for a in spec.elements:
            x = 1
            for e in range(q + 2):
                assert spec.pow(a, e) == x
                x = spec._coeff_mul(x, a)


class TestSqrtChar2:
    def test_gf4(self):
        spec = FIELDS[4]
        a = 2
        assert sqrt_char2(spec, a) == spec.add(a, 1)

    def test_fixed_points(self):
        spec = FIELDS[8]
        assert sqrt_char2(spec, 0) == 0 and sqrt_char2(spec, 1) == 1

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_square_recovers(self, q):
        spec = FIELDS[q]
        for x in spec.elements:
            root = sqrt_char2(spec, x)
            assert spec.mul(root, root) == x

    def test_odd_characteristic_rejected(self):
        with pytest.raises(FieldError):
            sqrt_char2(FIELDS[3], 1)


class TestBuildPg:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
    def test_incidence_axioms(self, q):
        plane = build_pg(FIELDS[q])
        lines = plane.lines
        npoints = q * q + q + 1
        assert lines.ground == npoints and len(lines) == npoints
        st = stats(lines, 2)
        assert st.min_size == q + 1 and all(s.bit_count() == q + 1 for s in lines.sets)
        assert st.delta == q + 1        # point degree
        assert st.delta_s[2] == 1       # unique line through two points
        assert is_exactly_s_intersecting(lines, 1)

    @pytest.mark.parametrize("q", [2, 3])
    def test_two_points_span_a_line(self, q):
        plane = build_pg(FIELDS[q])
        n = q * q + q + 1
        for x in range(n):
            for y in range(x + 1, n):
                through = [s for s in plane.lines.sets
                           if (s >> x) & 1 and (s >> y) & 1]
                assert len(through) == 1

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_point_ids_invert_point_names(self, q):
        plane = build_pg(FIELDS[q])
        coords = [(x, y) for x in range(q + 1) for y in range(q)] + [(q, q)]
        ids = [point_id(q, x, y) for x, y in coords]
        assert sorted(ids) == list(range(q * q + q + 1))
        for (x, y), pid in zip(coords, ids):
            name = plane.point_name(pid)
            assert name == f"({'w' if x == q else x},{'w' if y == q else y})"
            assert plane.point_id(x, y) == pid
        with pytest.raises(ValueError):
            point_id(q, q - 1, q)

    def test_map_emission(self):
        plane = build_pg(FIELDS[2])
        text = emit_pg_map(plane)
        lines = text.splitlines()
        assert len(lines) == 8
        assert lines[-1].endswith("(w,w)")

    def test_order_cap(self):
        with pytest.raises(FieldError):
            build_pg(make_field(5, 2))


# sha256 of repr((lines.sets, line_index, construction.sets)) per order,
# the construction being triangular_char2 for even q and triangular_odd
# otherwise; pinned from the coefficient-arithmetic planes
PLANE_DIGESTS = {
    2: "7f6d9dd278daf563bd963d85f6d1930f4a128f64db78c32d29d16f5022ce4a2b",
    3: "12905564c607aa94237fa97bb85cfd32a335651942ee30a2406674bc91447460",
    4: "9e6e3dfb74174d6853652ad71053f9b69491d7072f88aece7c7ba0ad0020efa1",
    5: "7ddd2f9b6d09331c5bb74020f606dfe0dd9185e40116d5fd410988b031555a96",
    7: "b2cde791cb90688c8cbaf4311d9bf4ba771ae4656c593737d886b4620d8e932c",
    8: "5eae8b893a2a0542bcd9a6a91b828dd4f702c1636de1d0d18da211d71af3139f",
    9: "6035a6148b6629c8d537fe8dc075be7b25fd84b4f29a9fed9fb8023c220feecb",
    11: "3e0bc7d5149038f60a82a368f78e1cc23490df47fc6c01aeecd28ef06e92a487",
    13: "95a012691cca34056a595fbbc32a7123cc5b690caeaf820bb77598662979be5d",
    16: "0f56fecd862c8b9a3b65c6341969e619268dcdbcee5560fc624cde72fed0e504",
    17: "9c7681114f96d9f66d115cbfbb0d9071f16c58c56c9d9d422f474c248e6a7622",
    19: "1c7c9676d0da9e4f51ff11a75c9cd42fe796ddca2e552ca36daf36d730dabd20",
    23: "879482b14cde013e222581860511879bcaa46f1dfbb0e94c5b20af91906f8dd0",
}


class TestPinnedPlanes:
    @pytest.mark.parametrize("q", sorted(PLANE_DIGESTS))
    def test_lines_index_and_construction(self, q):
        spec = field_of_order(q)
        plane = build_pg(spec)
        construction = triangular_char2(spec) if spec.p == 2 else triangular_odd(spec)
        text = repr((plane.lines.sets, plane.line_index, construction.sets))
        assert hashlib.sha256(text.encode()).hexdigest() == PLANE_DIGESTS[q]


class TestCollineations:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_transitive_on_points_and_lines(self, q):
        lines = build_pg(field_of_order(q)).lines
        n = q * q + q + 1
        assert _orbit(lines.symmetry, 0) == (1 << n) - 1
        assert _orbit(lines.member_symmetry, 0) == (1 << n) - 1

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 23])
    def test_generator_count(self, q):
        # the transvection, 3-cycle, swap and diag(g,1,1) (the identity
        # for q = 2), and Frobenius for prime powers
        spec = field_of_order(q)
        gens = collineation_generators(spec)
        assert len(gens) == (3 if q == 2 else 4) + (spec.k > 1)
        assert all(sorted(g) == list(range(q * q + q + 1)) for g in gens)

    def test_frobenius_fixes_the_prime_subplane(self):
        spec = field_of_order(4)
        [frob] = [g for g in collineation_generators(spec)
                  if all(g[point_id(4, x, y)] == point_id(4, x, y)
                         for x in range(2) for y in range(2))]
        assert frob[point_id(4, 2, 3)] == point_id(4, 3, 2)

    def test_constructions_exceed_the_plane_cap(self):
        with pytest.raises(FieldError):
            triangular_odd(make_field(5, 2))


class TestTransversalOfPlanes:
    # every prime power up to 23; the orders missing from FIELDS are primes
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23])
    def test_tau_is_q_plus_one(self, q):
        res = min_transversal(build_pg(FIELDS.get(q) or make_field(q, 1)).lines)
        assert res.value == q + 1 and res.value_exact


class TestTriangularOdd:
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_size_and_degree(self, q):
        fam = triangular_odd(FIELDS[q])
        assert len(fam) == q + 1
        assert is_s_intersecting(fam, 1)
        assert stats(fam).delta == 2
        assert is_triangular(fam)

    def test_gf5_slope_at_2(self):
        spec = FIELDS[5]
        b = 2
        m_b = spec.div(spec.neg(b), spec.sub(1, b))
        assert m_b == 2

    def test_slopes_distinct_and_nonzero(self):
        spec = FIELDS[7]
        slopes = set()
        for b in spec.elements:
            if b in (0, 1):
                continue
            m_b = spec.div(spec.neg(b), spec.sub(1, b))
            assert m_b != 0
            slopes.add(m_b)
        assert len(slopes) == spec.q - 2

    def test_even_q_rejected(self):
        with pytest.raises(FieldError):
            triangular_odd(FIELDS[4])


class TestTriangularChar2:
    @pytest.mark.parametrize("q", [2, 4, 8])
    def test_size_and_degree(self, q):
        fam = triangular_char2(FIELDS[q])
        assert len(fam) == q + 2
        assert is_s_intersecting(fam, 1)
        assert stats(fam).delta == 2
        assert is_triangular(fam)

    def test_odd_q_rejected(self):
        with pytest.raises(FieldError):
            triangular_char2(FIELDS[3])


class TestRotationalFamily:
    def test_r4(self):
        fam = rotational_family(4, {0, 1, 2})
        assert len(fam) == 4
        assert is_s_intersecting(fam, 1)
        assert min_transversal(fam).value == 2
        assert stats(fam).delta == 3

    def test_r6(self):
        fam = rotational_family(6, {0, 1, 3})
        assert len(fam) == 6
        assert is_s_intersecting(fam, 1)
        assert min_transversal(fam).value == 3
        assert stats(fam).delta == 3

    def test_full_rotation_collapses(self):
        assert len(rotational_family(5, set(range(5)))) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            rotational_family(1, {0})
        with pytest.raises(ValueError):
            rotational_family(4, {5})
