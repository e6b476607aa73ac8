"""Independent brute-force oracles and instance generators for tests.

Everything here deliberately avoids the package's search code paths:
path counting walks raw sequences, maximum intersecting subfamilies come
from an all-subsets scan or Bron-Kerbosch, transversals from a
combinations sweep, the Hilton-Milner anchor families from a scan over
every anchor triple.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from ekrlab.families import SetFamily, mask_of
from ekrlab.graphs import Graph


def naive_path_count(g: Graph, r: int) -> int:
    """Count r-vertex paths by enumerating raw sequences and halving."""
    if r == 1:
        return g.n
    total = 0

    def walk(seq: list[int], used: set[int]) -> None:
        nonlocal total
        if len(seq) == r:
            total += 1
            return
        for w in g.neighbors[seq[-1]]:
            if w not in used:
                used.add(w)
                seq.append(w)
                walk(seq, used)
                seq.pop()
                used.remove(w)

    for start in range(g.n):
        walk([start], {start})
    assert total % 2 == 0
    return total // 2


def naive_girth(g: Graph) -> float:
    """Shortest cycle by walking every simple closed sequence."""
    best = float("inf")

    def walk(seq: list[int], used: set[int]) -> None:
        nonlocal best
        u = seq[-1]
        for w in g.neighbors[u]:
            if w == seq[0] and len(seq) >= 3:
                best = min(best, len(seq))
            elif w not in used and len(seq) < best:
                used.add(w)
                seq.append(w)
                walk(seq, used)
                seq.pop()
                used.remove(w)

    for start in range(g.n):
        walk([start], {start})
    return best


def naive_max_s_intersecting(fam: SetFamily, s: int) -> int:
    """All-subsets scan; only workable for small families."""
    sets = fam.sets
    m = len(sets)
    assert m <= 18, "naive scan limited to small families"
    best = 0
    for mask in range(1 << m):
        if mask.bit_count() <= best:
            continue
        members = [sets[i] for i in range(m) if (mask >> i) & 1]
        if all((a & b).bit_count() >= s
               for i, a in enumerate(members) for b in members[i + 1:]):
            best = mask.bit_count()
    return best


def bron_kerbosch_max(adj: list[int], m: int) -> int:
    """Pivotless Bron-Kerbosch over member index masks."""
    best = 0

    def bk(r_count: int, p: int, x: int) -> None:
        nonlocal best
        if p == 0 and x == 0:
            best = max(best, r_count)
            return
        pp = p
        while pp:
            low = pp & -pp
            v = low.bit_length() - 1
            pp ^= low
            bk(r_count + 1, p & adj[v], x & adj[v])
            p ^= low
            x |= low
    bk(0, (1 << m) - 1, 0)
    return best


def bk_max_s_intersecting(fam: SetFamily, s: int) -> int:
    sets = fam.sets
    m = len(sets)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if (sets[i] & sets[j]).bit_count() >= s:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return bron_kerbosch_max(adj, m)


def naive_all_max_s_intersecting(fam: SetFamily, s: int,
                                 nonstar: bool = False) -> tuple[int, set[tuple[int, ...]]]:
    """All-subsets scan for the largest s-intersecting subfamilies: the
    size and the set of every optimum as sorted member-index tuples.
    With nonstar, only nonempty subfamilies whose members share fewer
    than s elements count; (0, set()) means none does."""
    sets = fam.sets
    m = len(sets)
    assert m <= 16, "naive scan limited to small families"
    # meets[i]: the members that meet member i in >= s elements, and i
    meets = [mask_of(j for j in range(m) if j == i or (sets[i] & sets[j]).bit_count() >= s)
             for i in range(m)]
    best, optima = (-1, set()) if nonstar else (0, {()})
    for mask in range(1, 1 << m):
        size = mask.bit_count()
        if size < best:
            continue
        members = [i for i in range(m) if (mask >> i) & 1]
        if any(mask & ~meets[i] for i in members):
            continue
        if nonstar:
            common = sets[members[0]]
            for i in members[1:]:
                common &= sets[i]
            if common.bit_count() >= s:
                continue
        if size > best:
            best, optima = size, set()
        optima.add(tuple(members))
    return (0, set()) if best < 0 else (best, optima)


def random_family(seed: int) -> SetFamily:
    """Distinct random subsets of a small ground set, with no
    intersection condition imposed."""
    rng = random.Random(seed)
    ground = rng.randint(4, 9)
    m = rng.randint(1, 14)
    sets: set[int] = set()
    while len(sets) < m:
        sets.add(mask_of(rng.sample(range(ground), rng.randint(1, ground - 1))))
    return SetFamily(ground=ground, sets=tuple(sorted(sets)), name=f"random({seed})")


def twin_family(seed: int) -> SetFamily:
    """Random cores over a small ground set, each taken once, repeated,
    or extended by private pendant elements, one per copy (like path
    families whose paths differ only in the pendant they end at).
    Repeats and pendant copies of a core with at least s elements are
    true twins of the s-compatibility graph."""
    rng = random.Random(seed)
    core_ground = rng.randint(4, 7)
    m = rng.randint(4, 14)
    pendant = core_ground
    sets: list[int] = []
    while len(sets) < m:
        core = mask_of(rng.sample(range(core_ground), rng.randint(1, core_ground - 1)))
        copies = rng.randint(2, 3)
        shape = rng.randrange(3)
        if shape == 0:
            sets.append(core)
        elif shape == 1:
            sets += [core] * copies
        else:
            for _ in range(copies):
                sets.append(core | 1 << pendant)
                pendant += 1
    sets = sets[:m]
    return SetFamily(ground=pendant, sets=tuple(sorted(sets)), name=f"twins({seed})")


def naive_matches_hm_structure(n: int, r: int, member_masks: list[int]) -> bool:
    """Anchor scan: does the family equal, for some 3 cycle vertices, the
    set of all r-windows meeting them in exactly two vertices?"""
    return tuple(sorted(member_masks)) in naive_hm_families(n, r)


@lru_cache(maxsize=1)
def naive_hm_families(n: int, r: int) -> frozenset[tuple[int, ...]]:
    """Every three-anchor family on the n-cycle as a sorted mask tuple."""
    windows = [mask_of((y + d) % n for d in range(r)) for y in range(n)]
    out = set()
    for anchors in combinations(range(n), 3):
        smask = mask_of(anchors)
        out.add(tuple(sorted(w for w in windows if (w & smask).bit_count() == 2)))
    return frozenset(out)


def naive_lex_least_transversal(fam: SetFamily) -> tuple[int, ...]:
    """Lex-least smallest hitting set, scanning element subsets of
    growing size in lexicographic order."""
    universe = sorted({e for mask in fam.sets for e in _bits(mask)})
    for size in range(0, len(universe) + 1):
        for combo in combinations(universe, size):
            cm = mask_of(combo)
            if all(mask & cm for mask in fam.sets):
                return combo
    raise AssertionError("no transversal found")


def naive_is_triangular(fam: SetFamily) -> bool:
    sets = fam.sets
    for a, b, c in combinations(sets, 3):
        if a & b & c:
            return False
    return True


def random_intersecting_family(seed: int, ground: int, m: int) -> SetFamily:
    """Rejection-sample an intersecting family of m distinct sets."""
    rng = random.Random(seed)
    sets: list[int] = []
    attempts = 0
    while len(sets) < m and attempts < 10_000:
        attempts += 1
        size = rng.randint(2, max(2, ground // 2))
        cand = mask_of(rng.sample(range(ground), size))
        if cand in sets:
            continue
        if all(cand & other for other in sets):
            sets.append(cand)
    return SetFamily(ground=ground, sets=tuple(sorted(sets)), name=f"rand({seed})")


def general_position_family(m: int) -> SetFamily:
    """m pairwise-intersecting sets meeting in private points: the
    line-arrangement picture, triangular with tau = ceil(m/2)."""
    pairs = list(combinations(range(m), 2))
    ground = len(pairs)
    sets = []
    for i in range(m):
        sets.append(mask_of(idx for idx, pair in enumerate(pairs) if i in pair))
    return SetFamily(ground=ground, sets=tuple(sorted(sets)), name=f"lines({m})")


def mixed_intersecting_family(seed: int) -> SetFamily:
    """Generator mixing shapes: random intersecting, stars, sunflowers,
    general-position triangular, rotations."""
    rng = random.Random(seed)
    kind = seed % 5
    if kind == 0:
        return random_intersecting_family(seed, rng.randint(6, 16), rng.randint(2, 14))
    if kind == 1:
        m = rng.randint(3, 5)
        return general_position_family(m)
    if kind == 2:
        # star: common element plus random tails
        ground = rng.randint(6, 16)
        m = rng.randint(2, min(14, 2 ** (ground - 1)))
        sets = set()
        while len(sets) < m:
            extra = rng.sample(range(1, ground), rng.randint(1, ground // 2))
            sets.add(mask_of([0] + extra))
        return SetFamily(ground=ground, sets=tuple(sorted(sets)), name=f"star({seed})")
    if kind == 3:
        from ekrlab.projective import rotational_family
        h = rng.choice([4, 5, 6, 7, 8])
        width = rng.randint(h // 2 + 1, h - 1)
        start = rng.randrange(h)
        s = {(start + i) % h for i in range(width)}
        return rotational_family(h, s)
    ground = rng.randint(8, 16)
    m = rng.randint(3, 10)
    return random_intersecting_family(seed * 7 + 1, ground, m)


def connected_graphs_upto(max_n: int):
    """Yield every connected labeled graph on 1..max_n vertices."""
    from ekrlab.graphs import is_connected

    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = frozenset(pairs[i] for i in range(len(pairs)) if (bits >> i) & 1)
            g = Graph(n=n, edges=edges)
            if is_connected(g):
                yield g


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
