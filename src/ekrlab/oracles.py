"""Closed-form extremal values and the explicit families attaining them.

Oracles return applicability flags instead of raising so parameter
sweeps can chart hypothesis boundaries; a value is meaningful only when
applicable is true.  Build operations return concrete families whose
claimed properties are asserted in tests, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .families import SetFamily, duplicate_note, mask_of
from .graphs import Graph, GraphError, sun_vertex


@dataclass(frozen=True)
class OracleValue:
    value: int | None
    applicable: bool
    condition: str
    source: str

    @classmethod
    def out_of_range(cls, condition: str, source: str) -> "OracleValue":
        return cls(value=None, applicable=False, condition=condition, source=source)


SUN_VARIANTS = ("binomial", "squared")


def sun_window(n: int, s: int) -> range:
    """The r for which sun_bound is proven on a sun with n cycle
    vertices: 3 <= s+2 <= r and 2r <= n+s-1."""
    return range(max(3, s + 2), (n + s - 1) // 2 + 1)


def hm_window(n: int) -> range:
    """The r for which hm_cycle_size is proven on the n-cycle:
    n+3 <= 3r and 2r <= n."""
    return range((n + 5) // 3, n // 2 + 1)


def theta_window(a: tuple[int, ...] | list[int]) -> range:
    """The r for which the hub star of the theta graph with strand
    lengths a (shortest first) is claimed maximum: 3 <= r and
    2r <= a1+a2+1."""
    return range(3, (a[0] + a[1] + 1) // 2 + 1)


def sun_bound(n: int, t: int, r: int, s: int,
              variant: str = "squared") -> OracleValue:
    """Maximum size of an s-intersecting family of r-vertex paths in the
    sun with n cycle vertices and t pendants per cycle vertex.

    The two variants disagree only on when the pendant-pendant class
    collapses to unordered pairs: 'binomial' applies the binom(t,2)
    coefficient whenever r = s+2, 'squared' keeps t^2 except at r = 3
    (the one case where both pendant ends hang off the same cycle
    vertex).  Exhaustive search backs the 'squared' reading, which is the
    default; 'binomial' undercounts at r = s+2 >= 4.
    """
    if variant not in SUN_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    source = f"sun-star-bound/{variant}"
    cond = f"3 <= s+2 <= r <= floor((n+s-1)/2), t >= 0 [n={n} t={t} r={r} s={s}]"
    if s < 1 or t < 0 or r not in sun_window(n, s):
        return OracleValue.out_of_range(cond, source)
    collapse = (r == s + 2) if variant == "binomial" else (r == 3)
    pair_count = comb(t, 2) if collapse else t * t
    value = (r - s + 1) + 2 * t * (r - s) + pair_count * (r - s - 1)
    return OracleValue(value=value, applicable=True, condition=cond, source=source)


def hm_cycle_size(n: int, r: int) -> OracleValue:
    """Maximum size of a non-star intersecting family of r-paths on the
    n-cycle: 3r - n inside the admissible window."""
    source = "cycle-nonstar-max"
    cond = f"(n+3)/3 <= r <= n/2 [n={n} r={r}]"
    if r not in hm_window(n):
        return OracleValue.out_of_range(cond, source)
    return OracleValue(value=3 * r - n, applicable=True, condition=cond, source=source)


def theta_f(k: int, a1: int, r: int, a2: int | None = None) -> OracleValue:
    """Hub-star size f_k(r) for a theta graph with k strands of minimum
    length a1; the second branch needs a2 for its range check."""
    source = "theta-hub-star"
    if 3 <= r <= a1 + 1:
        value = k + comb(k, 2) * (r - 2)
        return OracleValue(value=value, applicable=True,
                           condition=f"3 <= r <= a1+1 [k={k} a1={a1} r={r}]",
                           source=source)
    if a2 is not None and a1 + 2 <= r <= a2 - 1:
        value = (r - a1 - 2) * (k - 1) ** 2 + (a1 + 2) * (k - 1) \
            + (r - 2) * comb(k - 1, 2)
        return OracleValue(value=value, applicable=True,
                           condition=f"a1+2 <= r <= a2-1 [k={k} a1={a1} a2={a2} r={r}]",
                           source=source)
    return OracleValue.out_of_range(
        f"r={r} outside both branches (3..a1+1={a1 + 1}, "
        f"a1+2..a2-1={'?' if a2 is None else a2 - 1})", source)


def theta_interior_star_size(a: tuple[int, ...] | list[int], i: int, j: int,
                             r: int) -> OracleValue:
    """Star size at the interior strand vertex w_{i,j} (i 1-based,
    0 < j < a_i), strictly below the hub star in every covered case.

    The position is symmetric in j and a_i - j, so j normalizes to the
    nearer hub before the case dispatch.

    In the case j+1 < r <= a_i-j+1 a path through w leaves strand i at
    the near hub and runs r-j-1-x vertices into another strand l, where
    x >= 0 is its extension from w away from that hub.  When this run
    exceeds a_l the path crosses all of strand l, reaches the far hub and
    continues into any of the k-1 strands other than l rather than one,
    which adds the far-hub term (k-2) * sum_{l != i} max(0, r-j-1-a_l).
    """
    a = tuple(a)
    k = len(a)
    source = "theta-interior-star"
    if not (1 <= i <= k) or not (0 < j < a[i - 1]):
        raise GraphError(f"w_({i},{j}) is not an interior strand vertex")
    ai = a[i - 1]
    j = min(j, ai - j)
    a1, a2 = a[0], a[1]
    if 3 <= r <= j + 1:
        return OracleValue(value=r, applicable=True,
                           condition=f"3 <= r <= j+1 [j={j}]", source=source)
    if j + 1 < r <= ai - j + 1:
        far_hub = (k - 2) * sum(max(0, r - j - 1 - al)
                                for idx, al in enumerate(a, start=1) if idx != i)
        return OracleValue(value=(r - j - 1) * (k - 1) + (j + 1) + far_hub,
                           applicable=True,
                           condition=f"j+1 < r <= a_i-j+1 [a_i={ai} j={j}]",
                           source=source)
    if ai - j + 1 < r <= a1 + 1:
        return OracleValue(value=(2 * r - ai - 2) * (k - 1) + (ai + 2 - r),
                           applicable=True,
                           condition=f"a_i-j+1 < r <= a1+1 [a_i={ai} a1={a1}]",
                           source=source)
    if ai == a1 and a1 + 2 <= r and 2 * r <= a1 + a2 + 1:
        return OracleValue(value=(r - a1 - 2) * (k - 1) ** 2 + (a1 + 2) * (k - 1),
                           applicable=True,
                           condition=f"a1+2 <= r <= (a1+a2+1)/2 on a shortest strand",
                           source=source)
    return OracleValue.out_of_range(
        f"no case covers r={r} at w_({i},{j}) with a={a}", source)


def sun_allpaths_counts(n: int, t: int) -> dict[str, int]:
    """Key sizes in the family of all paths of a sun: total lift count
    over cycle paths, the best star, and the larger non-star family.

    A cycle path with an edge lifts (t+1)^2 ways (optional pendant at
    each end); a singleton lifts binom(t+1,2)+1 ways.
    """
    if n < 3 or t < 0:
        raise GraphError(f"need n >= 3, t >= 0, got n={n} t={t}")
    single = comb(t + 1, 2) + 1
    double = (t + 1) ** 2
    half = n * (n + 1) // 2
    return {
        "total": n * single + (n * n - n) * double,
        "star": single + (half - 1) * double,
        "hm": half * double,
    }


def _sun_path_mask(n: int, t: int, start: int, length: int,
                   pend_start: int, pend_end: int) -> int:
    """Vertex mask of a sun path: cycle window [start, start+length-1]
    with optional pendant index at each end (0 means none)."""
    mask = 0
    for d in range(length):
        mask |= 1 << sun_vertex((start + d) % n, 0, t)
    if pend_start:
        mask |= 1 << sun_vertex(start % n, pend_start, t)
    if pend_end:
        mask |= 1 << sun_vertex((start + length - 1) % n, pend_end, t)
    return mask


def build_sun_star_family(n: int, t: int, r: int, s: int) -> SetFamily:
    """The explicit maximum s-star on the sun: every r-vertex path whose
    cycle window covers the s consecutive cycle vertices r-s .. r-1,
    over all four pendant classes."""
    probe = sun_bound(n, t, r, s, variant="squared")
    if not probe.applicable:
        raise GraphError(f"hypothesis violated: {probe.condition}")
    center = set(range(r - s, r))
    masks: set[int] = set()
    for pend_a in (0, 1):
        for pend_b in (0, 1):
            length = r - pend_a - pend_b
            if length < s:
                continue
            for y in range(n):
                window = {(y + d) % n for d in range(length)}
                if not center <= window:
                    continue
                if length == 1 and pend_a and pend_b:
                    # both pendants hang off the same cycle vertex
                    for j in range(1, t + 1):
                        for kk in range(j + 1, t + 1):
                            masks.add(_sun_path_mask(n, t, y, 1, j, kk))
                else:
                    for j in (range(1, t + 1) if pend_a else (0,)):
                        for kk in (range(1, t + 1) if pend_b else (0,)):
                            masks.add(_sun_path_mask(n, t, y, length, j, kk))
    return SetFamily(ground=n * (t + 1), sets=tuple(sorted(masks)),
                     name=f"sun-star(n={n},t={t},r={r},s={s})")


def build_cycle_hm_family(n: int, r: int, s_vertices: tuple[int, int, int]) -> SetFamily:
    """The structured non-star family on the n-cycle: all r-windows
    meeting the 3-vertex anchor set in exactly two vertices."""
    anchors = sorted(v % n for v in s_vertices)
    if len(set(anchors)) != 3:
        raise GraphError(f"anchor set must be 3 distinct vertices, got {s_vertices}")
    probe = hm_cycle_size(n, r)
    if not probe.applicable:
        raise GraphError(f"hypothesis violated: {probe.condition}")
    smask = mask_of(anchors)
    masks = []
    for y in range(n):
        window = mask_of((y + d) % n for d in range(r))
        if (window & smask).bit_count() == 2:
            masks.append(window)
    return SetFamily(ground=n, sets=tuple(sorted(masks)),
                     name=f"cycle-hm(n={n},r={r},S={tuple(anchors)})")


def build_sun_hm_family(n: int, t: int) -> SetFamily:
    """The larger intersecting non-star family of all paths of a sun:
    lift every member of the cycle-level family H, where H is the star
    at cycle vertex 0 with the singleton swapped for its complement."""
    if n < 3 or t < 0:
        raise GraphError(f"need n >= 3, t >= 0, got n={n} t={t}")
    # cycle-level members as (start, length) windows; spanning paths are
    # distinct subgraphs sharing one vertex set, kept once per start
    windows: list[tuple[int, int]] = []
    for length in range(2, n):
        for y in range(n):
            window = {(y + d) % n for d in range(length)}
            if 0 in window:
                windows.append((y, length))
    windows.extend((y, n) for y in range(n))       # spanning paths, all contain 0
    windows.append((1, n - 1))                     # complement of the singleton
    masks = []
    for y, length in windows:
        for j in range(0, t + 1):
            for kk in range(0, t + 1):
                masks.append(_sun_path_mask(n, t, y, length, j, kk))
    masks.sort()
    return SetFamily(ground=n * (t + 1), sets=tuple(masks),
                     name=f"sun-hm(n={n},t={t})", note=duplicate_note(masks))


def subdivided_complete_graph(base: int, strand: int) -> Graph:
    """K_base with every edge replaced by a path of the given length;
    girth is 3*strand."""
    if base < 3 or strand < 1:
        raise GraphError("need base >= 3 and strand >= 1")
    n = base
    edges = set()
    for u in range(base):
        for v in range(u + 1, base):
            prev = u
            for _ in range(strand - 1):
                edges.add((min(prev, n), max(prev, n)))
                prev = n
                n += 1
            edges.add((min(prev, v), max(prev, v)))
    return Graph(n=n, edges=frozenset(edges), kind="custom",
                 meta={"base": base, "strand": strand})
