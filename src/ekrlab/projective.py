"""Finite fields, projective planes of order q, and the triangular and
rotational example families.

Field elements of GF(p^k) are ints 0..q-1 encoding coefficient vectors
in base p, lowest degree first.  Plane points and line indices share the
index set ((F_q u {w}) x F_q) u {(w,w)} with w (the infinity marker)
encoded as the int q; dense point ids follow the fixed layout
(x,y) -> x*q + y, (w,y) -> q*q + y, (w,w) -> q*q + q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .families import SetFamily, mask_of

MAX_FIELD = 512
MAX_PG_ORDER = 23


class FieldError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_mod(num: tuple[int, ...], den: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of num by monic den over GF(p)."""
    num = list(num)
    d = len(den) - 1
    while len(_poly_trim(tuple(num))) - 1 >= d:
        num = list(_poly_trim(tuple(num)))
        shift = len(num) - 1 - d
        lead = num[-1]
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - lead * c) % p
    return _poly_trim(tuple(num))


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(tuple(out))


def _irreducible(candidate: tuple[int, ...], p: int) -> bool:
    """Exhaustive factor scan: no monic divisor of degree 1..deg/2.  The
    divisors of each degree come in make_field's order."""
    deg = len(candidate) - 1
    for d in range(1, deg // 2 + 1):
        for high in product(range(p), repeat=d):
            if not _poly_mod(candidate, high[::-1] + (1,), p):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^k) under a fixed monic irreducible modulus.

    Built through make_field, the modulus is the first monic irreducible
    in the order where the constant coefficient turns fastest, i.e. the
    one whose lower coefficients, read as a base-p integer lowest degree
    first, are least (x^3 + x + 1 for GF(8)).

    Arithmetic is by table lookup.  The tables are built on first use in
    O(q) steps of coefficient arithmetic: the powers of the least
    primitive element g (exp, twice over, so a sum of two logs needs no
    reduction), their logs, the negations, and Zech logs (g^zech[i] =
    1 + g^i, None where that sum is 0), through which
    g^i + g^j = g^(i + zech[j - i]).
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p ** self.k

    def element_coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def _encode(self, coeffs: tuple[int, ...]) -> int:
        val = 0
        for c in reversed(coeffs[:self.k] + (0,) * max(0, self.k - len(coeffs))):
            val = val * self.p + c
        return val

    def _coeff_add(self, a: int, b: int) -> int:
        """a + b on coefficient vectors: fills the tables, and is the
        reference the table lookups are tested against."""
        ca, cb = self.element_coeffs(a), self.element_coeffs(b)
        return self._encode(tuple((x + y) % self.p for x, y in zip(ca, cb)))

    def _coeff_mul(self, a: int, b: int) -> int:
        """a * b as polynomials reduced by the modulus; like _coeff_add."""
        prod = _poly_mul(_poly_trim(self.element_coeffs(a)),
                         _poly_trim(self.element_coeffs(b)), self.p)
        return self._encode(_poly_mod(prod, self.modulus, self.p) or (0,))

    @cached_property
    def _tables(self) -> tuple[list[int], list[int], list[int | None], list[int]]:
        """(exp, log, zech, neg); see the class docstring."""
        q, n = self.q, self.q - 1
        for g in range(1, q):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = self._coeff_mul(x, g)
            if len(powers) == n:
                break
        log = [0] * q
        for i, x in enumerate(powers):
            log[x] = i
        zech = [None if s == 0 else log[s]
                for s in (self._coeff_add(1, x) for x in powers)]
        neg = [self._encode(tuple(-c % self.p for c in self.element_coeffs(a)))
               for a in range(q)]
        return powers + powers, log, zech, neg

    @property
    def primitive(self) -> int:
        """The least element that generates the multiplicative group."""
        return self._tables[0][1]

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        exp, log, zech, _ = self._tables
        i = log[a]
        z = zech[log[b] - i]   # a negative index wraps mod q-1
        return 0 if z is None else exp[i + z]

    def neg(self, a: int) -> int:
        return self._tables[3][a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._tables[3][b])

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        exp, log, _, _ = self._tables
        return exp[log[a] + log[b]]

    def pow(self, a: int, e: int) -> int:
        if not a:
            return 0 if e else 1
        exp, log, _, _ = self._tables
        return exp[log[a] * e % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        exp, log, _, _ = self._tables
        return exp[self.q - 1 - log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by 0 in a finite field")
        if not a:
            return 0
        exp, log, _, _ = self._tables
        return exp[log[a] - log[b] + self.q - 1]

    @cached_property
    def elements(self) -> range:
        return range(self.q)


def make_field(p: int, k: int) -> FieldSpec:
    """GF(p^k) with the first monic irreducible modulus of degree k in
    the order of itertools.product over the coefficients below x^k, each
    tuple reversed so that the constant coefficient turns fastest."""
    if not _is_prime(p):
        raise FieldError(f"{p} is not prime")
    if k < 1:
        raise FieldError(f"need extension degree k >= 1, got {k}")
    if p ** k > MAX_FIELD:
        raise FieldError(f"field order capped at {MAX_FIELD}, got {p ** k}")
    for high in product(range(p), repeat=k):
        candidate = high[::-1] + (1,)
        if _irreducible(candidate, p):
            return FieldSpec(p=p, k=k, modulus=candidate)
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


def field_of_order(q: int) -> FieldSpec:
    """GF(q) as make_field builds it; FieldError unless q is a prime
    power."""
    if q >= 2:
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        k, rest = 0, q
        while rest % p == 0:
            rest //= p
            k += 1
        if rest == 1:
            return make_field(p, k)
    raise FieldError(f"{q} is not a prime power")


def sqrt_char2(spec: FieldSpec, x: int) -> int:
    """The unique square root in characteristic 2: x^(2^(k-1))."""
    if spec.p != 2:
        raise FieldError(f"square roots are unique only for p=2, got p={spec.p}")
    return spec.pow(x, 2 ** (spec.k - 1))


def point_id(q: int, x: int, y: int) -> int:
    """Dense id of the point (x,y) of the plane of order q, w as q."""
    if x < q and y < q:
        return x * q + y
    if x == q and y < q:
        return q * q + y
    if x == q and y == q:
        return q * q + q
    raise ValueError(f"({x},{y}) is not a point index for q={q}")


@dataclass(frozen=True)
class PGPlane:
    """A projective plane of order q over dense point ids."""

    spec: FieldSpec
    lines: SetFamily
    line_index: tuple[tuple[int, int], ...]

    @property
    def q(self) -> int:
        return self.spec.q

    def point_id(self, x: int, y: int) -> int:
        return point_id(self.q, x, y)

    def point_name(self, pid: int) -> str:
        q = self.q
        if pid < q * q:
            return f"({pid // q},{pid % q})"
        if pid < q * q + q:
            return f"(w,{pid - q * q})"
        return "(w,w)"


def _plane_order(spec: FieldSpec) -> int:
    q = spec.q
    if q > MAX_PG_ORDER:
        raise FieldError(f"plane order capped at {MAX_PG_ORDER}, got {q}")
    return q


def _line_mask(spec: FieldSpec, alpha: tuple[int, int]) -> int:
    """The points of line alpha as a mask: (m, b) with m < q is the
    affine line y = mx + b closed off with (w,m), (w, b) the vertical
    x = b closed off with (w,w), and (w,w) the line at infinity."""
    q = spec.q
    m, b = alpha
    if m < q:
        add, mul = spec.add, spec.mul
        mask = 1 << q * q + m
        for x in range(q):
            mask |= 1 << x * q + add(mul(m, x), b)
        return mask
    corner = 1 << q * q + q
    if b < q:
        return ((1 << q) - 1) << b * q | corner
    return ((1 << q) - 1) << q * q | corner


def build_pg(spec: FieldSpec) -> PGPlane:
    """All q^2+q+1 lines in slope-intercept coordinates (see _line_mask),
    sorted by mask, with the generators of the collineation group as the
    family's symmetry."""
    q = _plane_order(spec)
    index = [(m, b) for m in range(q + 1) for b in range(q)] + [(q, q)]
    masks = [_line_mask(spec, alpha) for alpha in index]
    order = sorted(range(len(masks)), key=masks.__getitem__)
    lines = SetFamily(ground=q * q + q + 1,
                      sets=tuple(masks[i] for i in order),
                      name=f"PG({q})",
                      symmetry=collineation_generators(spec))
    return PGPlane(spec=spec, lines=lines,
                   line_index=tuple(index[i] for i in order))


def collineation_generators(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """Point permutations that generate the collineation group of the
    plane of order q = p^k, PGammaL(3, q), identities dropped.

    A point is a projective vector: (x,y) is [x, y, 1], (w,m) is
    [1, m, 0] and (w,w) is [0, 1, 0].  The maps are the transvection
    [X, Y, Z] -> [X + Z, Y, Z] (the translation x -> x + 1); the
    coordinate 3-cycle and a coordinate swap, which conjugate it to the
    transvection at every other pair of coordinates, so that together
    they give SL(3, p); and diag(g, 1, 1) for g primitive, whose
    conjugation scales the transvections to every entry of GF(q) and
    which gives every determinant: PGL(3, q).  For k > 1 the Frobenius
    map x -> x^p adds the field automorphisms."""
    q = _plane_order(spec)
    add, mul, div = spec.add, spec.mul, spec.div
    g = spec.primitive

    def point(x: int, y: int, z: int) -> int:
        if z:
            return div(x, z) * q + div(y, z)
        if x:
            return q * q + div(y, x)
        return q * q + q

    coords = [(x, y, 1) for x in range(q) for y in range(q)]
    coords += [(1, m, 0) for m in range(q)] + [(0, 1, 0)]
    maps = [lambda x, y, z: (add(x, z), y, z),
            lambda x, y, z: (y, z, x),
            lambda x, y, z: (y, x, z),
            lambda x, y, z: (mul(g, x), y, z)]
    if spec.k > 1:
        p = spec.p
        maps.append(lambda x, y, z: (spec.pow(x, p), spec.pow(y, p), spec.pow(z, p)))
    identity = tuple(range(len(coords)))
    perms = (tuple(point(*f(*c)) for c in coords) for f in maps)
    return tuple(perm for perm in perms if perm != identity)


def emit_pg_map(plane: PGPlane) -> str:
    """Companion file mapping dense point ids back to plane coordinates."""
    out = [f"# PG({plane.q}) point index map: dense-id <TAB> (x,y), w = infinity"]
    for pid in range(plane.q ** 2 + plane.q + 1):
        out.append(f"{pid}\t{plane.point_name(pid)}")
    return "\n".join(out) + "\n"


def _construction_lines(spec: FieldSpec) -> list[tuple[int, int]]:
    """Line indices of the distinct-slope family: the line at infinity,
    the vertical x=0, the horizontal y=0, and for every b outside {0,1}
    the line of slope -b/(1-b) through intercept b."""
    q = spec.q
    picks: list[tuple[int, int]] = [(q, q), (q, 0), (0, 0)]
    one = 1
    for b in spec.elements:
        if b in (0, one):
            continue
        m_b = spec.div(spec.neg(b), spec.sub(one, b))
        picks.append((m_b, b))
    return picks


def _lines_by_index(spec: FieldSpec, picks: list[tuple[int, int]],
                    name: str) -> SetFamily:
    q = _plane_order(spec)
    masks = tuple(sorted(_line_mask(spec, alpha) for alpha in picks))
    return SetFamily(ground=q * q + q + 1, sets=masks, name=name)


def triangular_odd(spec: FieldSpec) -> SetFamily:
    """A triangular family of q+1 lines of the plane, for odd q."""
    if spec.p == 2:
        raise FieldError("construction for odd q; use triangular_char2 for p=2")
    return _lines_by_index(spec, _construction_lines(spec),
                           name=f"triangular-odd(q={spec.q})")


def triangular_char2(spec: FieldSpec) -> SetFamily:
    """A triangular family of q+2 lines for q a power of two: the
    distinct-slope family plus the line y = x + 1, which meets each
    construction line once because square roots are unique."""
    if spec.p != 2:
        raise FieldError(f"construction needs p=2, got p={spec.p}")
    picks = _construction_lines(spec)
    picks.append((1, 1))
    return _lines_by_index(spec, picks, name=f"triangular-char2(q={spec.q})")


def rotational_family(h: int, s: set[int] | frozenset[int] | tuple[int, ...]) -> SetFamily:
    """All h cyclic shifts of s inside Z_h, duplicates merged, with the
    shift e -> e+1 mod h as the family's symmetry."""
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    base = set(s)
    if not base or not all(0 <= x < h for x in base):
        raise ValueError(f"need nonempty S within 0..{h - 1}, got {sorted(base)}")
    masks = {mask_of((x + i) % h for x in base) for i in range(h)}
    return SetFamily(ground=h, sets=tuple(sorted(masks)),
                     name=f"rotations(h={h},S={tuple(sorted(base))})",
                     symmetry=(tuple(range(1, h)) + (0,),))
