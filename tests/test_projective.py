import pytest

from ekrlab.families import is_exactly_s_intersecting, is_s_intersecting, \
    is_triangular, stats
from ekrlab.projective import FieldError, build_pg, emit_pg_map, field_of_order, \
    make_field, point_id, rotational_family, sqrt_char2, triangular_char2, \
    triangular_odd
from ekrlab.solvers import min_transversal

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
