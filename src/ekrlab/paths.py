"""Enumeration of simple paths as canonical, deduplicated subgraphs.

A path is identified by its subgraph (vertex set plus edge set); the
canonical form of a sequence is the lexicographically smaller of itself
and its reversal.  Intersection semantics downstream is always on vertex
sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import SetFamily, duplicate_note
from .graphs import Graph, GraphError, automorphism_generators, pendant_swaps

MAX_GROUND = 128


@dataclass(frozen=True)
class PathSubgraph:
    """A simple path: canonical vertex sequence plus vertex bit mask."""

    seq: tuple[int, ...]
    mask: int

    @classmethod
    def from_seq(cls, seq: tuple[int, ...]) -> "PathSubgraph":
        rev = seq[::-1]
        canon = seq if seq <= rev else rev
        mask = 0
        for v in canon:
            mask |= 1 << v
        return cls(seq=canon, mask=mask)

    @property
    def r(self) -> int:
        return len(self.seq)


@dataclass(frozen=True)
class PathFamily:
    """Deduplicated path subgraphs of one host graph, in sorted order."""

    host: Graph
    paths: tuple[PathSubgraph, ...]
    r: int | None = None
    upto: int | None = None

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def name(self) -> str:
        host = self.host.kind
        if self.host.meta:
            host += str(tuple(self.host.meta.values()))
        if self.r is not None:
            return f"paths[r={self.r}]({host})"
        if self.upto is not None:
            return f"paths[r<={self.upto}]({host})"
        return f"paths[all]({host})"


def _check_ground(g: Graph) -> None:
    if g.n > MAX_GROUND:
        raise GraphError(f"ground set capped at {MAX_GROUND} vertices, got {g.n}")


def _walk(g: Graph, lo: int, hi: int) -> tuple[PathSubgraph, ...]:
    """Every simple path on lo..hi vertices, one per subgraph, sorted by
    sequence.

    One depth-first search from every start vertex, cut at hi vertices.
    A path is kept only as the walk that starts at its smaller end (a
    single vertex as it is): that sequence is already its canonical
    form, and the mask of used vertices is its vertex set.
    """
    neighbors = g.neighbors
    found: list[PathSubgraph] = []

    def extend(seq: list[int], used: int) -> None:
        if len(seq) >= lo and (len(seq) == 1 or seq[0] < seq[-1]):
            found.append(PathSubgraph(seq=tuple(seq), mask=used))
        if len(seq) == hi:
            return
        for w in neighbors[seq[-1]]:
            if not (used >> w) & 1:
                seq.append(w)
                extend(seq, used | (1 << w))
                seq.pop()

    for start in range(g.n):
        extend([start], 1 << start)
    found.sort(key=lambda p: p.seq)
    return tuple(found)


def enumerate_paths_r(g: Graph, r: int) -> PathFamily:
    """All simple paths on exactly r vertices, one per subgraph: the
    walk cut at r vertices."""
    _check_ground(g)
    if not 1 <= r <= g.n:
        raise GraphError(f"need 1 <= r <= {g.n}, got r={r}")
    return PathFamily(host=g, paths=_walk(g, r, r), r=r)


def enumerate_paths_upto(g: Graph, k: int) -> PathFamily:
    """All simple paths on 1..k vertices (k may exceed |V|), from one
    walk over every length."""
    _check_ground(g)
    if k < 1:
        raise GraphError(f"need k >= 1, got {k}")
    return PathFamily(host=g, paths=_walk(g, 1, min(k, g.n)), upto=k)


def enumerate_paths_all(g: Graph) -> PathFamily:
    """Every simple path of the graph, any number of vertices; a
    GraphError on a graph with no vertices."""
    fam = enumerate_paths_upto(g, g.n)
    return PathFamily(host=g, paths=fam.paths)


def to_setfamily(pf: PathFamily) -> SetFamily:
    """Project paths to their vertex sets.

    Distinct subgraphs sharing a vertex set (spanning paths of a cycle do
    this) are all kept as members, and the collision is recorded in the
    family's note.  The host's automorphism generators map paths to
    paths, so they become the family's symmetry, and a sun's pendant
    swaps its swaps.
    """
    masks = sorted(p.mask for p in pf.paths)
    return SetFamily(ground=pf.host.n, sets=tuple(masks), name=pf.name,
                     note=duplicate_note(masks), symmetry=automorphism_generators(pf.host),
                     swaps=pendant_swaps(pf.host))


def image_on_cycle(p: PathSubgraph, g: Graph) -> PathSubgraph | None:
    """Restriction of a sun path to the cycle: a path, or None when empty."""
    if g.kind != "sun":
        raise GraphError(f"image is defined on suns, got kind={g.kind!r}")
    t = g.meta["t"]
    for a, b in zip(p.seq, p.seq[1:]):
        if not g.has_edge(a, b):
            raise GraphError("path does not live on this host graph")
    if any(v >= g.n for v in p.seq):
        raise GraphError("path does not live on this host graph")
    core = tuple(v for v in p.seq if v % (t + 1) == 0)
    if not core:
        return None
    return PathSubgraph.from_seq(core)
