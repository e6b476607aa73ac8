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
    """Exhaustive factor scan: no monic divisor of degree 1..deg/2."""
    deg = len(candidate) - 1
    if deg == 1:
        return True

    def monics(d: int):
        coeffs = [0] * d
        while True:
            yield tuple(coeffs) + (1,)
            for i in range(d):
                coeffs[i] += 1
                if coeffs[i] < p:
                    break
                coeffs[i] = 0
            else:
                return

    for d in range(1, deg // 2 + 1):
        for div in monics(d):
            if not _poly_mod(candidate, div, p):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^k) under a fixed monic irreducible modulus.

    The modulus is the lexicographically smallest irreducible when built
    through make_field, comparing coefficients lowest degree first.
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

    def add(self, a: int, b: int) -> int:
        ca, cb = self.element_coeffs(a), self.element_coeffs(b)
        return self._encode(tuple((x + y) % self.p for x, y in zip(ca, cb)))

    def neg(self, a: int) -> int:
        return self._encode(tuple((-x) % self.p for x in self.element_coeffs(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        prod = _poly_mul(_poly_trim(self.element_coeffs(a)),
                         _poly_trim(self.element_coeffs(b)), self.p)
        return self._encode(_poly_mod(prod, self.modulus, self.p) or (0,))

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    @cached_property
    def elements(self) -> range:
        return range(self.q)


def make_field(p: int, k: int) -> FieldSpec:
    """GF(p^k) with the first irreducible modulus in lexicographic order."""
    if not _is_prime(p):
        raise FieldError(f"{p} is not prime")
    if k < 1:
        raise FieldError(f"need extension degree k >= 1, got {k}")
    if p ** k > MAX_FIELD:
        raise FieldError(f"field order capped at {MAX_FIELD}, got {p ** k}")
    coeffs = [0] * k
    while True:
        candidate = tuple(coeffs) + (1,)
        if _irreducible(candidate, p):
            return FieldSpec(p=p, k=k, modulus=candidate)
        for i in range(k):
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0
        else:
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


def build_pg(spec: FieldSpec) -> PGPlane:
    """All q^2+q+1 lines in slope-intercept coordinates: the affine lines
    y = mx + b closed off with (w,m), the verticals x = b closed off with
    (w,w), and the line at infinity."""
    q = spec.q
    if q > MAX_PG_ORDER:
        raise FieldError(f"plane order capped at {MAX_PG_ORDER}, got {q}")
    masks = []
    index: list[tuple[int, int]] = []
    for m in range(q):
        for b in range(q):
            pts = [point_id(q, x, spec.add(spec.mul(m, x), b)) for x in range(q)]
            pts.append(point_id(q, q, m))
            masks.append(mask_of(pts))
            index.append((m, b))
    for b in range(q):
        pts = [point_id(q, b, y) for y in range(q)]
        pts.append(point_id(q, q, q))
        masks.append(mask_of(pts))
        index.append((q, b))
    pts = [point_id(q, q, y) for y in range(q)]
    pts.append(point_id(q, q, q))
    masks.append(mask_of(pts))
    index.append((q, q))

    order = sorted(range(len(masks)), key=lambda i: masks[i])
    lines = SetFamily(ground=q * q + q + 1,
                      sets=tuple(masks[i] for i in order),
                      name=f"PG({q})")
    return PGPlane(spec=spec, lines=lines,
                   line_index=tuple(index[i] for i in order))


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


def _lines_by_index(plane: PGPlane, picks: list[tuple[int, int]],
                    name: str) -> SetFamily:
    lookup = {alpha: mask for alpha, mask in zip(plane.line_index, plane.lines.sets)}
    masks = tuple(sorted(lookup[alpha] for alpha in picks))
    return SetFamily(ground=plane.lines.ground, sets=masks, name=name)


def triangular_odd(spec: FieldSpec) -> SetFamily:
    """A triangular family of q+1 lines of the plane, for odd q."""
    if spec.p == 2:
        raise FieldError("construction for odd q; use triangular_char2 for p=2")
    plane = build_pg(spec)
    picks = _construction_lines(spec)
    return _lines_by_index(plane, picks, name=f"triangular-odd(q={spec.q})")


def triangular_char2(spec: FieldSpec) -> SetFamily:
    """A triangular family of q+2 lines for q a power of two: the
    distinct-slope family plus the line y = x + 1, which meets each
    construction line once because square roots are unique."""
    if spec.p != 2:
        raise FieldError(f"construction needs p=2, got p={spec.p}")
    plane = build_pg(spec)
    picks = _construction_lines(spec)
    picks.append((1, 1))
    return _lines_by_index(plane, picks, name=f"triangular-char2(q={spec.q})")


def rotational_family(h: int, s: set[int] | frozenset[int] | tuple[int, ...]) -> SetFamily:
    """All h cyclic shifts of s inside Z_h, duplicates merged."""
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    base = set(s)
    if not base or not all(0 <= x < h for x in base):
        raise ValueError(f"need nonempty S within 0..{h - 1}, got {sorted(base)}")
    masks = {mask_of((x + i) % h for x in base) for i in range(h)}
    return SetFamily(ground=h, sets=tuple(sorted(masks)),
                     name=f"rotations(h={h},S={tuple(sorted(base))})")
