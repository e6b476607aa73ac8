"""Enumeration of simple paths as vertex masks.

A path is one subgraph (vertex set plus edge set), walked once from its
smaller end; downstream code compares paths only through their vertex
sets, so the walk keeps each path as its vertex mask.  Distinct paths
may share a vertex set (the spanning paths of a cycle do), and each is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import SetFamily, duplicate_note
from .graphs import Graph, GraphError, automorphism_generators, pendant_swaps

MAX_GROUND = 128


@dataclass(frozen=True)
class PathFamily:
    """The vertex masks of one host graph's paths, one per path, sorted."""

    host: Graph
    paths: tuple[int, ...]
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


def _walk(g: Graph, lo: int, hi: int) -> tuple[int, ...]:
    """The vertex mask of every simple path on lo..hi vertices, one per
    path, sorted.

    One depth-first search from every start vertex, cut at hi vertices.
    A path is kept only as the walk that starts at its smaller end (a
    single vertex as it is), and the mask of used vertices is its vertex
    set.
    """
    neighbors = g.neighbors
    found: list[int] = []

    def extend(start: int, last: int, length: int, used: int) -> None:
        if length >= lo and (length == 1 or start < last):
            found.append(used)
        if length == hi:
            return
        for w in neighbors[last]:
            if not (used >> w) & 1:
                extend(start, w, length + 1, used | (1 << w))

    for start in range(g.n):
        extend(start, start, 1, 1 << start)
    found.sort()
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

    Distinct paths sharing a vertex set (spanning paths of a cycle do
    this) are all kept as members, and the collision is recorded in the
    family's note.  The host's automorphism generators map paths to
    paths, so they become the family's symmetry, and a sun's pendant
    swaps its swaps.
    """
    return SetFamily(ground=pf.host.n, sets=pf.paths, name=pf.name,
                     note=duplicate_note(pf.paths), symmetry=automorphism_generators(pf.host),
                     swaps=pendant_swaps(pf.host))


def image_on_cycle(seq: tuple[int, ...], g: Graph) -> tuple[int, ...] | None:
    """Restriction of a sun path, given by its vertex sequence, to the
    cycle: the canonical sequence min(core, core[::-1]) of the path that
    is left, or None when it is empty."""
    if g.kind != "sun":
        raise GraphError(f"image is defined on suns, got kind={g.kind!r}")
    if any(not 0 <= v < g.n for v in seq) or len(set(seq)) < len(seq) \
            or not all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
        raise GraphError("sequence is not a path of this host graph")
    t = g.meta["t"]
    core = tuple(v for v in seq if v % (t + 1) == 0)
    return min(core, core[::-1]) if core else None
