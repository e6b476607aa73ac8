"""Graph constructors and inspectors for the families under study.

Vertex ids are always dense integers 0..n-1; structured labels (sun
coordinates v_i^j, theta hubs and strand positions w_{i,j}) are metadata
only and never used for identity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property


class GraphError(ValueError):
    """Invalid construction parameters."""


class ParseError(ValueError):
    """Malformed graph text, with the offending line number in the message."""


@dataclass(frozen=True)
class Graph:
    """Labeled simple undirected graph.

    edges holds normalized pairs (u, v) with u < v.  kind tags how the
    graph was generated (cycle | sun | theta | tree | custom) and meta
    carries the generator parameters so downstream code can dispatch
    closed-form oracles.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    kind: str = "custom"
    labels: dict[int, object] | None = None
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
        if self.labels is not None and self.kind != "custom":
            if sorted(self.labels) != list(range(self.n)):
                raise GraphError("label map must be a bijection onto the vertex set")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Adjacency as one bit mask per vertex."""
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists; the deterministic iteration order."""
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            lists[u].append(v)
            lists[v].append(u)
        return tuple(tuple(sorted(l)) for l in lists)

    @cached_property
    def families(self) -> dict:
        """The path families built on this graph, by (mode, size) with
        size None for all paths; filled by verdicts.build_family, so each
        family is walked once per graph whatever the s asked of it."""
        return {}

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def make_cycle(n: int) -> Graph:
    """Cycle with vertices 0..n-1 and edges {i, i+1 mod n}."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    edges = frozenset(_edge(i, (i + 1) % n) for i in range(n))
    return Graph(n=n, edges=edges, kind="cycle", meta={"n": n})


def sun_vertex(i: int, j: int, t: int) -> int:
    """Dense id of v_i^j under the fixed layout i*(t+1)+j."""
    return i * (t + 1) + j


def make_sun(n: int, t: int) -> Graph:
    """Cycle on n vertices with t pendants attached to every cycle vertex.

    Vertex v_i^j maps to id i*(t+1)+j, so cycle vertices are the ids
    divisible by t+1.
    """
    if n < 3:
        raise GraphError(f"sun needs n >= 3, got {n}")
    if t < 0:
        raise GraphError(f"sun needs t >= 0, got {t}")
    edges = set()
    labels: dict[int, object] = {}
    for i in range(n):
        edges.add(_edge(sun_vertex(i, 0, t), sun_vertex((i + 1) % n, 0, t)))
        labels[sun_vertex(i, 0, t)] = (i, 0)
        for j in range(1, t + 1):
            edges.add(_edge(sun_vertex(i, 0, t), sun_vertex(i, j, t)))
            labels[sun_vertex(i, j, t)] = (i, j)
    return Graph(n=n * (t + 1), edges=frozenset(edges), kind="sun",
                 labels=labels, meta={"n": n, "t": t})


def make_theta(a: tuple[int, ...] | list[int]) -> Graph:
    """Two hubs u=0, v=1 joined by k internally disjoint strands.

    Strand i (1-based) has length a_i: a_i - 1 interior vertices numbered
    strand-major after the hubs.
    """
    a = tuple(a)
    k = len(a)
    if k < 2:
        raise GraphError(f"theta needs at least 2 strands, got {k}")
    if any(x < 1 for x in a):
        raise GraphError("strand lengths must be positive")
    if list(a) != sorted(a):
        raise GraphError("strand lengths must be sorted ascending")
    if k >= 2 and a[1] < 2:
        raise GraphError("two strands of length 1 would form a multigraph")
    n = 2 + sum(x - 1 for x in a)
    edges = set()
    labels: dict[int, object] = {0: "u", 1: "v"}
    nxt = 2
    for i, length in enumerate(a, start=1):
        prev = 0
        for j in range(1, length):
            edges.add(_edge(prev, nxt))
            labels[nxt] = (i, j)
            prev = nxt
            nxt += 1
        edges.add(_edge(prev, 1))
    return Graph(n=n, edges=frozenset(edges), kind="theta",
                 labels=labels, meta={"a": a})


def make_random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree from a random Pruefer sequence; fixed by seed."""
    if n < 1:
        raise GraphError(f"tree needs n >= 1, got {n}")
    if n == 1:
        return Graph(n=1, edges=frozenset(), kind="tree", meta={"n": 1, "seed": seed})
    if n == 2:
        return Graph(n=2, edges=frozenset({(0, 1)}), kind="tree",
                     meta={"n": 2, "seed": seed})
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = set()
    # classic decode: repeatedly join the smallest current leaf to the
    # next sequence entry
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.add(_edge(leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.add(_edge(u, v))
    return Graph(n=n, edges=frozenset(edges), kind="tree",
                 meta={"n": n, "seed": seed})


def make_graph(kind: str, n: int = 6, t: int = 0, a: tuple[int, ...] = (),
               seed: int = 0) -> Graph:
    """The generated graph of a kind (cycle | sun | theta | tree) from
    its parameters; a kind ignores the parameters it does not take."""
    if kind == "cycle":
        return make_cycle(n)
    if kind == "sun":
        return make_sun(n, t)
    if kind == "theta":
        return make_theta(a)
    if kind == "tree":
        return make_random_tree(n, seed)
    raise GraphError(f"unknown kind {kind!r}")


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Generators of the known symmetry group of a generated graph, as
    vertex permutations (perm[v] is the image of v).

    cycle: rotation by one and reflection.  sun: rotation by one cycle
    step and reflection of the cycle positions, pendant index kept; the
    rest of a sun's group, the swaps of pendants at one cycle vertex,
    comes from pendant_swaps, since a search reads their stabilisers off
    directly.  theta: the hub swap, which reverses every strand, and the
    transposition of each adjacent pair of equal strands.  Trees and
    custom graphs get none."""
    if g.kind == "cycle":
        n = g.n
        return (tuple((v + 1) % n for v in range(n)), tuple(-v % n for v in range(n)))
    if g.kind == "sun":
        n, step = g.meta["n"], g.meta["t"] + 1
        total = n * step
        return (tuple((v + step) % total for v in range(total)),
                tuple(-(v // step) % n * step + v % step for v in range(total)))
    if g.kind == "theta":
        # strand i's interior runs from starts[i], hub u's side first
        a = g.meta["a"]
        starts = [2]
        swap = [1, 0]
        for length in a:
            swap.extend(starts[-1] + length - 2 - j for j in range(length - 1))
            starts.append(starts[-1] + length - 1)
        gens = [tuple(swap)]
        for i in range(len(a) - 1):
            if a[i] == a[i + 1]:
                lo, hi, width = starts[i], starts[i + 1], a[i] - 1
                perm = list(range(g.n))
                perm[lo:hi] = range(hi, hi + width)
                perm[hi:hi + width] = range(lo, hi)
                gens.append(tuple(perm))
        return tuple(gens)
    return ()


def pendant_swaps(g: Graph) -> tuple[tuple[int, int], ...]:
    """The vertex pairs whose transposition is an automorphism that only
    swaps two pendants of one sun cycle vertex: v_i^j and v_i^j+1 for
    every cycle vertex i and 1 <= j < t, n(t-1) pairs.  They generate the
    normal subgroup S_t^n of the sun's group S_t wr D_n (the rotation and
    reflection of automorphism_generators permute the pairs), which the
    dihedral part completes.  Other graphs get none."""
    if g.kind != "sun":
        return ()
    n, t = g.meta["n"], g.meta["t"]
    return tuple((sun_vertex(i, j, t), sun_vertex(i, j + 1, t))
                 for i in range(n) for j in range(1, t))


def girth(g: Graph) -> int | float:
    """Length of the shortest cycle; math.inf for forests."""
    best = math.inf
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.neighbors[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif v != parent[u] and dist[v] >= dist[u]:
                        best = min(best, dist[u] + dist[v] + 1)
            frontier = nxt
    return best


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in g.neighbors[u]:
            if not (seen >> v) & 1:
                seen |= 1 << v
                count += 1
                stack.append(v)
    return count == g.n


def parse_graph(text: str) -> Graph:
    """Read the 'n m' + edge-list text format, rejecting malformed input."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ParseError("line 1: missing header")
    header = lines[idx].split()
    if len(header) != 2:
        raise ParseError(f"line {idx + 1}: header must be 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"line {idx + 1}: header must be two integers") from None
    if n < 0 or m < 0:
        raise ParseError(f"line {idx + 1}: negative header values")
    edges: set[tuple[int, int]] = set()
    lineno = idx + 1
    read = 0
    for raw in lines[idx + 1:]:
        lineno += 1
        if not raw.strip():
            continue
        if read == m:
            raise ParseError(f"line {lineno}: more than {m} edges")
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: edge must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: edge must be two integers") from None
        if u == v:
            raise ParseError(f"line {lineno}: loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: endpoint out of range (n={n})")
        e = _edge(u, v)
        if e in edges:
            raise ParseError(f"line {lineno}: duplicate edge {e[0]} {e[1]}")
        edges.add(e)
        read += 1
    if read != m:
        raise ParseError(f"line {lineno}: expected {m} edges, found {read}")
    return Graph(n=n, edges=frozenset(edges), kind="custom")


def emit_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"
