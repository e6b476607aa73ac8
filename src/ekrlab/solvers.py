"""Exact optimizers over subfamilies of a set family.

One clique core runs every clique-shaped search: branch and bound on the
compatibility graph (members adjacent when they meet in >= s elements)
with a greedy coloring bound, in one of three modes:

- plain: maximum s-intersecting and intersecting Sperner subfamilies;
- non-star: a hook carries the running intersection and counts a clique
  only when its members share fewer than s elements;
- degree <= 2 (triangular): a hook drops every candidate that would put
  an element in a third member.

One recursive loop does the branching in every mode: a collecting pass,
of which a maximum search is the run that keeps no ties and the
certification's decision (does a clique of the maximum weight that
counts extend the classes taken so far?) the run that stops at its first
clique.  It carries the hook's state and the symmetry generators in
force at the node (see below); a plain search's hook keeps every
candidate and counts every clique.

The plain and non-star searches run on the twin quotient of the graph:
members with equal closed neighbourhoods (N[u] = N[v], e.g. paths that
differ only in the pendant they end at) form one vertex weighted by the
class size.  A maximum clique, plain or non-star, that holds u also
holds v (adding v keeps it a clique, makes it larger and only shrinks
the common intersection), so the optima are exactly the maximum-weight
cliques of the quotient, where the coloring bound sums the heaviest
weight in each color class.  A degree cap can split a twin class, so the
triangular search keeps one vertex per member.  Node counts count
quotient vertices.

The same argument gives the forced takes of those two searches.  When
some candidate v of a node is adjacent to every other candidate, any
clique through the node that leaves v out can take v as well: it stays
a clique, grows heavier and its common intersection only shrinks, so a
non-star clique stays non-star.  So every maximum clique or optimum
through the node holds v, and a decision pass's clique of the maximum
weight never leaves it out (it would grow past the maximum).  So the
least such v is the node's only branch (a forced take, the universal-
vertex exchange rule of branch-and-reduce solvers: Fomin, Grandoni and
Kratsch, J. ACM 56(5), 2009; Akiba and Iwata, Theor. Comput. Sci. 609,
2016).  It covers
containment and more: when N[u] is inside N[x] for some u on the stack
(u a strict subset of x with |u| >= s, say), the candidates lie in
N(u), inside N[x], so a candidate x is adjacent to every other one.  A
forced take computes no coloring and, like an orbit-skipped vertex, is
not a node; it still passes the dominance check, the ceiling and the
hook.  The triangular search takes none, since a universal candidate
can break the degree cap; the Sperner search none, since there they
cost more time than the nodes they save (max_intersecting_sperner).

Graphs are built from holder masks, not pair tests (meet_rows,
_sperner_rows): holders[e] masks the members that hold element e
(SetFamily.holders, once per family), so a graph on m members of |A|
elements costs O(m * |A| * s) mask operations, not m^2 / 2 pair tests
(the Sperner relation: O(m * |A|), and one step per pair of nested
members).
The twin quotient's rows are the same relation over one member of each
class, in quotient order; where the quotient is the graph itself, it
keeps the graph's rows.

The plain and non-star searches, maxima and enumerations alike, order
the quotient vertices by descending degree (dense compatibility graphs
are near-trivial in that order and pathological in member order; the
Sperner search keeps member order).  A maximum search's witness is
recomputed in family order by a deterministic certification pass that
takes or drops a whole class at a time, so it is the lex-least optimum.
Optima enumeration is a single pass: it starts from the weight of a
known clique and collects every maximum clique while its threshold
rises, so it runs no separate maximum search (its witness is certified
when the list is capped).  An enumeration with an optima cap of 0 is
the maximum search.  One routine (_solved) runs either pass and builds the result
of every clique solver, overruns and certification included.

Every clique search also uses the family's known symmetry.  Path
families carry the generators of their host's automorphism group (cycle:
rotation and reflection; sun: rotation and reflection of the cycle
positions; theta: the hub swap and the transpositions of adjacent equal
strands; trees and generator-free families: none), and the solvers turn
them into permutations of quotient vertices.  At a node whose group is
non-trivial the search branches on orbits (orbital branching): after
branching on v, v's whole orbit leaves the candidates, since an optimum
through any vertex of it has an image through v, and the child searches
under v's stabiliser, whose generators come from Schreier's lemma.

Sun families also carry their pendant swaps (SetFamily.swaps): the
transpositions of two pendants of one cycle vertex, which with the
dihedral part generate the whole group S_t wr D_n, of order
(t!)^n * 2n.  Each becomes a permutation of quotient vertices; a swap of
twins acts trivially and is dropped (every pendant swap at s = 1, where
paths that differ in an end pendant are twins).  A node's orbits are
taken under its generators and its swaps together, and its child keeps
the swaps that fix the vertex branched on, one AND with a mask of the
swaps that move that vertex.  They generate a subgroup of its
stabiliser, not always all of it, and orbital branching is sound under
any subgroup of the stabiliser (Ostrowski, Linderoth, Rossi and
Smriglio, Orbital branching, 2011).  Swaps never enter Schreier's lemma
or the listing below, so a sun's listed group stays its dihedral part.

Once the stabiliser is trivial, orbital branching would find images of
cliques it already holds.  So the search also lists the group its
generators generate, when its order is at most m^2 for m quotient
vertices (every dihedral group of a cycle or sun and small theta groups
such as theta(3,3,3,3)'s, of order 48; theta((2,)*7)'s, of order 10,080,
is not listed), and skips a candidate below the root when some element
maps the branch to one already searched (symmetry breaking by dominance,
SBDS): with the branch p_1..p_k and U_j the vertices the nodes on
p_1..p_j were done with (branched, orbit-skipped or skipped this way;
a forced take is done with nothing) when the path went on, v is
skipped when some listed g and j <= k have p_1..p_j in g(p_1..p_k, v)
and g(p_1..p_k, v) meeting U_j.
Every clique through p_1..p_j and a vertex of U_j has an image, under
the whole group, that an earlier branch collected, or proved lighter
than best, under a threshold no higher than the current one: a vertex
of U_j was branched on, or skipped as the image of one under an
automorphism that fixes p_1..p_j (a listed element or a product of the
node's generators and swaps), or skipped this way; a forced take drops
only cliques lighter than one it keeps.  So every clique through the
skipped branch has such an image too.  That holds with the hooks, which
the group and the swaps preserve, and in a maximum search, which keeps
no ties.  The root removes whole orbits under its
generators and swaps, which are unions of orbits of the listed group,
so U_0 is one too, as the check needs.

A maximum found that way is a maximum.  An enumeration adds all images
of each clique it collects under the whole group: a breadth-first
closure under the swaps (and the generators too, with the group
unlisted), then each listed element once on each of those images, which
reaches every image because the swaps generate a normal subgroup.  So it
still lists every optimum, and the optima cap still counts optima; a
capped list is a sample drawn by the group-free pass, so no answer
depends on the group.  The certification pass stays symmetry-free, so
witnesses are unchanged.  A node is one branched vertex: the vertices
skipped as orbit images or by the dominance check, and forced takes,
are not counted.

Transversals use one hitting-set decision routine ("can k elements of
an allowed set hit every uncovered member?") for both the minimum and
the certification of the lex-least witness.  It branches on the
uncovered member with the fewest allowed elements and drops each
element from the allowed set of the later siblings once its own branch
has failed, so the branches partition the hitting sets (exclusion
branching, as in exact cover), trying the pivot's elements in
descending order of the uncovered members they hit.  Two lower bounds
prune it: a greedy packing of uncovered members whose allowed elements
are pairwise disjoint, and a fractional packing read off the same hit
counts (each member weighs 1/d for d the hit count of its first allowed
element in descending order), a lower bound on the fractional
transversal number, which carries the search on intersecting families,
where the packing bound is 1 until elements are excluded.

The Helly check takes the same holder masks: for a meeting pair i < j,
the later members that meet both and none of their common elements are
one AND of meet_rows and one AND-NOT per common element.

Everything is single-threaded in a fixed order, so values and witnesses
are reproducible; node budgets make partial results an explicit error
state rather than a silent answer.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import partial, reduce
from math import lcm
from operator import and_

from .families import SetFamily, best_full_star, elems_of, holder_masks

sys.setrecursionlimit(100_000)


@dataclass(frozen=True)
class Limits:
    node_budget: int = 50_000_000
    optima_cap: int = 10_000

    def __post_init__(self) -> None:
        # 0 is legal for both; below 0 a search would report from no data
        for name in ("node_budget", "optima_cap"):
            if getattr(self, name) < 0:
                raise ValueError(f"need {name} >= 0, got {getattr(self, name)}")


DEFAULT_LIMITS = Limits()


class _BudgetExceeded(Exception):
    pass


class _Budget:
    __slots__ = ("left", "initial")

    def __init__(self, budget: int) -> None:
        self.left = budget
        self.initial = budget

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _BudgetExceeded

    @property
    def used(self) -> int:
        # the node that overran the budget was never searched
        return self.initial - max(self.left, 0)


def meet_rows(elems: Sequence[tuple[int, ...]], holders: list[int],
              s: int) -> tuple[int, ...]:
    """Per member i, given by its ascending elements, the mask of the
    other members that meet it in at least s elements; holders[e] masks
    the members that hold e (families.holder_masks).

    A row counts: after each element of member i, level j (j < s) holds
    the members met in more than j of its elements so far, and element
    e moves the members of holders[e] one level up (level j gains level
    j-1 & holders[e]; level 0 gains holders[e]).  Level j is the j-th
    m-bit field of one integer, so one shift, one OR and one AND move
    every level at once, against holders[e] repeated in each field; at
    s = 1 the row is the union of its elements' holder masks.  A row
    costs O(|A_i| * s) bit operations instead of m pair tests."""
    m = len(elems)
    everyone = (1 << m) - 1
    spread = sum(1 << (j * m) for j in range(s))
    repeated = [h * spread for h in holders]
    top = (s - 1) * m
    rows = []
    for i, el in enumerate(elems):
        levels = 0
        for e in el:
            # field j takes field j-1 (field 0: everyone) met again at e
            levels |= (levels << m | everyone) & repeated[e]
        rows.append(levels >> top & ~(1 << i))
    return tuple(rows)


def _sperner_rows(elems: Sequence[tuple[int, ...]], holders: list[int]) -> tuple[int, ...]:
    """Per member, the mask of the members that meet it while neither
    holds the other (the relation of an intersecting antichain), from
    holder masks as in meet_rows: the members it meets, minus its
    supersets (those holding all of its elements, itself and its
    duplicates among them), minus its subsets (the members whose
    supersets include it).  O(m * |A|) mask operations, plus one step
    per pair of nested members."""
    m = len(elems)
    meets, sups = [], []
    for el in elems:
        meet, sup = 0, (1 << m) - 1
        for e in el:
            h = holders[e]
            meet |= h
            sup &= h
        meets.append(meet)
        sups.append(sup)
    subs = [0] * m
    for j, sup in enumerate(sups):
        for i in elems_of(sup):
            subs[i] |= 1 << j
    return tuple(meet & ~(sup | sub) for meet, sup, sub in zip(meets, sups, subs))


@dataclass(frozen=True)
class CompatibilityGraph:
    """Member-level adjacency: bit j of adj[i] set iff |A_i & A_j| >= s."""

    m: int
    adj: tuple[int, ...]

    @classmethod
    def build(cls, fam: SetFamily, s: int) -> "CompatibilityGraph":
        return cls(m=len(fam), adj=meet_rows(fam.elems, fam.holders, s))


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: tuple[int, ...]
    all_optima: tuple[tuple[int, ...], ...] | None = None
    nodes: int = 0
    limits_hit: bool = False
    infeasible: bool = False
    value_exact: bool = True
    uniform_optima: bool | None = None


def _color_order(adj: tuple[int, ...], cand: int, floor: int) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; same-class members pairwise
    non-adjacent, so the class count bounds any clique inside cand.
    Every candidate is colored, but the positions whose bound is below
    floor are not recorded (Tomita's k_min): the branching loop would
    stop at the first of them."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        keep = color >= floor
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            if keep:
                order.append(v)
                bounds.append(color)
            rest ^= low
            avail &= ~adj[v]
            avail ^= low
    return order, bounds


def _weighted_color_order(adj: tuple[int, ...], cand: int, weight: list[int],
                          floor: int) -> tuple[list[int], list[int]]:
    """The coloring of _color_order with weighted bounds: a clique takes
    at most one vertex per class, so the bound at a position is the sum
    of the heaviest weight in each class so far (in the class being
    built, among its vertices so far).  Positions whose bound is below
    floor are not recorded."""
    order: list[int] = []
    bounds: list[int] = []
    total = 0
    rest = cand
    while rest:
        top = 0
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            w = weight[v]
            if w > top:
                top = w
            if total + top >= floor:
                order.append(v)
                bounds.append(total + top)
            rest ^= low
            avail &= ~adj[v]
            avail ^= low
        total += top
    return order, bounds


def _forced_take(adj: tuple[int, ...], cand: int) -> int:
    """The least candidate adjacent to every other candidate, as a
    one-bit mask; 0 when there is none.  The candidates are tried in
    ascending order, and each one tried leaves only its neighbours to
    try: the others are not adjacent to it."""
    rest = cand
    while rest:
        low = rest & -rest
        row = adj[low.bit_length() - 1]
        if cand & ~row == low:
            return low
        rest &= row
    return 0


class _Quotient:
    """A graph with each class of true twins (vertices with equal closed
    neighbourhoods) contracted to one weighted vertex.

    members[q] is the class of quotient vertex q, ascending, rows[q] its
    adjacency and degree[q] the degree of each member in the graph;
    pos[v] is the quotient vertex of member v.  weight[q] is the class
    size; weight is None when every class has one member, so the search
    runs unweighted.  identity: quotient vertex q is member q, and rows
    are the graph's."""

    __slots__ = ("rows", "members", "degree", "pos", "weight", "identity")

    def __init__(self, rows: tuple[int, ...], members: list[list[int]],
                 degree: list[int]) -> None:
        m = len(degree)
        self.rows = rows
        self.members = members
        self.degree = [degree[cls[0]] for cls in members]
        self.pos = pos = [0] * m
        for q, cls in enumerate(members):
            for v in cls:
                pos[v] = q
        self.weight = [len(cls) for cls in members] if len(members) < m else None
        self.identity = self.weight is None and pos == list(range(m))

    def lex(self) -> list[int]:
        """The quotient vertices by least member."""
        return sorted(range(len(self.members)), key=lambda q: self.members[q][0])

    def expand(self, clique) -> tuple[int, ...]:
        """Ascending quotient vertices -> the sorted indices of their
        members."""
        if self.identity:
            return tuple(clique)
        return tuple(sorted([v for q in clique for v in self.members[q]]))

    def contract(self, mask: int) -> tuple[int, int]:
        """A clique as a member mask -> (weight, quotient mask) of the
        classes it touches, also a clique: a twin of a clique member is
        adjacent to every member of the clique."""
        out = 0
        for v in elems_of(mask):
            out |= 1 << self.pos[v]
        return sum(len(self.members[q]) for q in elems_of(out)), out


def _twin_quotient(adj: tuple[int, ...], elems: Sequence[tuple[int, ...]],
                   relation: Callable[[Sequence[tuple[int, ...]], list[int]], tuple[int, ...]],
                   by_degree: bool = True) -> _Quotient:
    """Contract the true twins of adj, the rows relation(elems,
    holder_masks(elems)) gives over the members elems (meet_rows at some
    s, or _sperner_rows).  Every optimum is a union of whole twin
    classes, so the quotient's maximum-weight cliques are the optima.
    With by_degree the quotient vertices are ordered by descending degree
    (ties: least member), the order in which dense compatibility graphs
    are near-trivial and member order is pathological; otherwise by least
    member.  Twins have the same neighbours outside their class, so the
    quotient's rows are relation's rows over one member of each class, in
    quotient order; when those are the members in their own order, the
    quotient is the graph and its rows are adj."""
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(adj):
        classes.setdefault(row | 1 << v, []).append(v)
    members = list(classes.values())
    degree = [row.bit_count() for row in adj]
    if by_degree:
        members.sort(key=lambda c: (-degree[c[0]], c[0]))
    reps = [cls[0] for cls in members]
    if reps == list(range(len(adj))):
        rows = adj
    else:
        rep_elems = [elems[v] for v in reps]
        rows = relation(rep_elems, holder_masks(rep_elems))
    return _Quotient(rows, members, degree)


def _compat_quotient(fam: SetFamily, s: int) -> _Quotient:
    """The twin quotient of fam's s-compatibility graph, in degree order."""
    return _twin_quotient(CompatibilityGraph.build(fam, s).adj, fam.elems,
                          partial(meet_rows, s=s))


def _quotient_group(graph: _Quotient, fam: SetFamily) -> tuple[Perm, ...]:
    """The family's member symmetry acting on quotient vertices, as
    permutation tables.  A permutation of members that preserves the
    compatibility graph maps twin classes onto twin classes of the same
    size."""
    if not fam.member_symmetry:
        return ()
    pos, members = graph.pos, graph.members
    gens = {tuple([pos[perm[cls[0]]] for cls in members]) for perm in fam.member_symmetry}
    gens.discard(tuple(range(len(members))))
    if len(members) > 256:
        return tuple(sorted(gens))
    return tuple(sorted(bytes(g) + _BYTE_IDENTITY[len(g):] for g in gens))


# A permutation of range(m) as a lookup table, perm[x] the image of x: for
# m <= 256 a 256-byte table (identity past m), which bytes.translate
# composes in one call; otherwise a tuple.
Perm = bytes | tuple[int, ...]
_BYTE_IDENTITY = bytes(range(256))


# A family's swaps acting on quotient vertices (_quotient_swaps), as
# (tables, moves, images): tables[k] permutes the quotient vertices as
# swap k does; per quotient vertex q, moves[q] masks the swaps that move q
# (bit k for swap k) and images[q] lists (bit, image of q) for each of them.
_Swaps = tuple[tuple[Perm, ...], list[int], list[list[tuple[int, int]]]]
_NO_SWAPS: _Swaps = ((), [], [])


def _quotient_swaps(graph: _Quotient, fam: SetFamily) -> _Swaps:
    """The family's member swaps acting on quotient vertices, those that
    move some quotient vertex.  A swap of twins acts trivially (every
    pendant swap at s = 1) and is dropped; each costs only the members
    it moves."""
    if not fam.member_swaps:
        return _NO_SWAPS
    pos = graph.pos
    m = len(graph.members)
    tables: list[Perm] = []
    moves = [0] * m
    images: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for members, member_images in fam.member_swaps:
        sources = list(map(pos.__getitem__, members))
        targets = list(map(pos.__getitem__, member_images))
        if sources == targets:
            continue
        bit = 1 << len(tables)
        table = bytearray(_BYTE_IDENTITY) if m <= 256 else list(range(m))
        for q, image in zip(sources, targets):
            if q != image:
                # a swap is an involution: q and its image trade places
                table[q], table[image] = image, q
                moves[q] |= bit
                moves[image] |= bit
                images[q].append((bit, image))
                images[image].append((bit, q))
        tables.append(bytes(table) if m <= 256 else tuple(table))
    return (tuple(tables), moves, images) if tables else _NO_SWAPS


def _compose(a: Perm, b: Perm) -> Perm:
    """The permutation a after b; with b a sequence of points, their
    images under a."""
    return b.translate(a) if type(b) is bytes else tuple(map(a.__getitem__, b))


def _inverse(perm: Perm) -> Perm:
    if type(perm) is bytes:
        return bytes.maketrans(perm, _BYTE_IDENTITY)
    inverse = [0] * len(perm)
    for x, image in enumerate(perm):
        inverse[image] = x
    return tuple(inverse)


def _orbit(gens: tuple[Perm, ...], v: int, swaps: int = 0,
           images: list[list[tuple[int, int]]] | None = None) -> int:
    """v's orbit under the group generated by gens and the swaps whose
    bits the mask swaps holds, as a mask; images[u] lists (bit, image of
    u) for the swaps that move u (the images of _Swaps), so only those are
    tried at u."""
    orbit = 1 << v
    queue = [v]
    for u in queue:
        for g in gens:
            w = g[u]
            if not (orbit >> w) & 1:
                orbit |= 1 << w
                queue.append(w)
        if swaps:
            for bit, w in images[u]:
                if swaps & bit and not (orbit >> w) & 1:
                    orbit |= 1 << w
                    queue.append(w)
    return orbit


def _stabilizer(gens: tuple[Perm, ...], v: int) -> tuple[Perm, ...]:
    """Generators of v's stabiliser in the group generated by gens: its
    Schreier generators, duplicates dropped; the group itself is never
    listed."""
    if all(g[v] == v for g in gens):
        return gens
    return tuple(sorted(set(_schreier_generators(gens, v))))


def _schreier_generators(gens: tuple[Perm, ...], v: int) -> Iterator[Perm]:
    """Schreier's lemma: with t_u a group element taking v to u (a
    transversal built while walking the orbit), the elements
    t_g(u)^-1 g t_u, over every orbit point u and generator g, fix v and
    generate the stabiliser.  Yields those that are not the identity,
    as the walk finds them."""
    trans = {v: _BYTE_IDENTITY if type(gens[0]) is bytes else tuple(range(len(gens[0])))}
    queue = [v]
    for u in queue:
        t = trans[u]
        for g in gens:
            w = g[u]
            gt = _compose(g, t)
            if w not in trans:
                trans[w] = gt
                queue.append(w)
            elif gt != trans[w]:
                yield _compose(_inverse(trans[w]), gt)


def _list_group(gens: tuple[Perm, ...], m: int) -> tuple[Perm, ...]:
    """Every non-identity element of the group gens generate, by a
    breadth-first closure over the generators; () when the group is
    trivial or its order passes m * m (m the number of points).

    The closure decides that by itself for groups of order up to 4m
    (the dihedral groups of cycles and suns have order 2m at most), and
    for a larger group _order_exceeds decides it then, before the rest is
    built."""
    if not gens:
        return ()
    check = min(4 * m, m * m)
    # compose m-long lists of images, cheaper than 256-byte tables; pad at the end
    ident = (bytes if type(gens[0]) is bytes else tuple)(range(m))
    elements = {ident}
    queue = [ident]
    for h in queue:
        for g in gens:
            gh = _compose(g, h)
            if gh not in elements:
                if len(elements) == check and _order_exceeds(gens, m * m):
                    return ()
                elements.add(gh)
                queue.append(gh)
    if type(ident) is tuple:
        return tuple(queue[1:])
    return tuple(h + _BYTE_IDENTITY[m:] for h in queue[1:])


def _order_exceeds(gens: tuple[Perm, ...], limit: int) -> bool:
    """Whether the group gens generate has order above limit, down a
    chain of point stabilisers: |G| = |orbit(v)| * |G_v|, with G_v
    generated by its Schreier generators, and so on.  Once a
    non-trivial stabiliser (of order >= 2) would pass limit, one
    non-identity Schreier generator settles it; a trivial one makes the
    product the order."""
    bound = 1
    while gens:
        v = next(x for x, y in enumerate(gens[0]) if x != y)
        bound *= _orbit(gens, v).bit_count()
        if bound > limit:
            return True
        if 2 * bound > limit:
            return next(_schreier_generators(gens, v), None) is not None
        gens = _stabilizer(gens, v)
    return False


class _Capped(Exception):
    """A collecting pass under a group holds more than cap optima, or a
    decision pass found its clique."""


class _Hook:
    """A per-node rule of a constrained clique search: step(state, v,
    cand) adds v to a clique whose hook state is state, with cand its
    candidates cut to v's neighbours, and returns the candidates that
    stay feasible, the new state and whether the grown clique counts.
    sets[q] is the meet of quotient vertex q's members, holders[e] the
    quotient vertices whose meet holds element e."""

    def __init__(self, graph: _Quotient, sets: tuple[int, ...]) -> None:
        self.sets = [reduce(and_, [sets[v] for v in cls]) for cls in graph.members]
        self.holders = holder_masks([elems_of(mask) for mask in self.sets])


class _NonStarHook(_Hook):
    """A clique counts when its members share fewer than s elements; the
    state is their running intersection.  Once every candidate holds the
    whole running intersection, no extension drops below s, so the
    candidates go."""

    root = -1

    def __init__(self, graph: _Quotient, sets: tuple[int, ...], s: int) -> None:
        super().__init__(graph, sets)
        self.s = s

    def step(self, common: int, v: int, cand: int) -> tuple[int, int, bool]:
        meet = common & self.sets[v]
        if meet.bit_count() < self.s:
            return cand, meet, True
        held = cand
        for e in elems_of(meet):
            held &= self.holders[e]
        return (0 if held == cand else cand), meet, False


class _DegreeCapHook(_Hook):
    """Every clique counts, but each element lies in at most two of its
    members.  The state is the elements in at least one chosen member;
    an element that v puts in a second one is full, so its holders leave
    the candidates, and no candidate ever meets a full element."""

    root = 0

    def step(self, once: int, v: int, cand: int) -> tuple[int, int, bool]:
        mask = self.sets[v]
        for e in elems_of(once & mask):
            cand &= ~self.holders[e]
        return cand, once | mask, True


class _PlainHook:
    """The hook of an unconstrained search: every candidate stays and
    every clique counts."""

    root = None

    @staticmethod
    def step(state: None, v: int, cand: int) -> tuple[int, None, bool]:
        return cand, state, True


_PLAIN = _PlainHook()


# A dominance-check entry for a listed element g at a node with stack
# p_1..p_k: (g, mask of g(stack), the largest j <= k with p_1..p_j in it).
_Lead = tuple[Perm, int, int]


class _CliqueSearch:
    """Branch and bound core shared by the clique-shaped operations.

    It runs on a quotient: sizes are weights (class sizes), with weighted
    coloring bounds when some class has more than one member, and
    cliques are sets of quotient vertices.  The hook trims the candidates
    and says which cliques count (the plain hook keeps every candidate
    and counts every clique); the coloring bound stays valid for those.
    group holds generators of automorphisms of the quotient that keep
    the hook's verdicts; elements lists the group they generate without
    the identity, or is () when its order passes m^2.  swaps holds more
    such automorphisms (_Swaps): they generate a normal subgroup of the
    whole group, and are never listed.  forcing: a node whose candidates
    hold one adjacent to all the others takes it as its only branch (a
    forced take), as the plain and non-star searches do.

    One recursive loop, _collect, branches for maximum(),
    enumerate_exact() and the decision passes of lex_least().  maximum()
    starts from a floor clique that its caller gives, a budget overrun
    propagates out of every pass, and _solved turns the passes into a
    solver's result.  _collect
    carries the hook's state, the generators of the group in force at
    the node and the mask of its swaps: while there are any it branches
    on orbits, and a node whose group is trivial gets () and 0.  With
    the group listed it also runs the dominance check (_dominating) at
    every candidate below the root, in every pass but the group-free
    one that draws a capped sample.  A node is one branched vertex."""

    def __init__(self, graph: _Quotient, budget: _Budget,
                 hook: _Hook | _PlainHook = _PLAIN, group: tuple[Perm, ...] = (),
                 swaps: _Swaps = _NO_SWAPS, forcing: bool = False) -> None:
        self.graph = graph
        self.adj = graph.rows
        self.weight = graph.weight
        self.m = len(self.adj)
        self.budget = budget
        self.hook = hook
        self.forcing = forcing
        self.gens = group
        self.elements = _list_group(group, self.m)
        self.swap_tables, self.moves, self.swap_images = swaps
        self.swaps = (1 << len(self.swap_tables)) - 1

    def _start(self, best: int, found: list, cap: int, closing: bool) -> None:
        """Set up a collecting pass: threshold best, the cliques of that
        weight held, the cap (capped once more are held), and whether
        collected cliques are closed under the group."""
        self.best = best
        self.found: list[Sequence[int]] = found
        self._seen: set[Sequence[int]] = set()
        self._cap = cap
        self._capped = len(found) > cap
        self._closing = closing
        # the dominance check's state: the elements it tries (none in a
        # group-free pass) and U_-1..U_k-1 along the stack
        self._listed = self.elements
        self._done = [0]
        # no clique that counts weighs more, so none is grown past it
        self._ceiling = len(self.graph.pos)

    def maximum(self, floor: tuple[int, int]) -> tuple[int, tuple[int, ...]]:
        """(weight, clique as ascending quotient vertices) of a heaviest
        clique that counts, from a known clique floor (weight, quotient
        mask) held as a warm lower bound.  The collecting pass with cap 0,
        holding the floor clique and closing nothing: it prunes on <= best,
        and only a heavier clique replaces the one held.  A budget overrun
        propagates, with the heaviest clique so far in found[0]."""
        self._start(floor[0], [elems_of(floor[1])], 0, False)
        self._collect([], 0, (1 << self.m) - 1, self.hook.root, self.gens, self.swaps)
        return self.best, self.found[0]

    def _greedy_seed(self, seed: tuple[int, int] | None = None) -> tuple[int, int]:
        """The heavier of seed and a degree-greedy clique (degrees
        counting members) as (weight, quotient mask); a floor for the
        search.  The greedy takes only candidates the hook keeps,
        and its clique is its heaviest prefix that counts ((0, 0) when
        none does)."""
        adj, weight, degree, hook = self.adj, self.weight, self.graph.degree, self.hook
        order = sorted(range(self.m), key=lambda v: (-degree[v], v))
        mask = 0
        size = 0
        best = (0, 0)
        cand = (1 << self.m) - 1
        state = hook.root
        for v in order:
            if (cand >> v) & 1:
                mask |= 1 << v
                size += 1 if weight is None else weight[v]
                cand, state, counts = hook.step(state, v, cand & adj[v])
                if counts:
                    best = (size, mask)
        return seed if seed is not None and seed[0] > best[0] else best

    def lex_least(self, size: int) -> tuple[int, ...]:
        """Deterministic certification pass: the lexicographically least
        clique of weight size that counts, under the family's index
        order, as sorted member indices.

        Every optimum is a union of whole quotient classes, and the least
        member of the first class where two optima differ decides their
        order, so the pass tries the quotient vertices by least member
        and takes or drops a whole class at once.  Whether some clique of
        weight size that counts extends the classes taken is a decision
        pass of _collect: group-free, with threshold and ceiling size, and
        stopped (by _Capped) at the first such clique."""
        adj, weight, hook = self.adj, self.weight, self.hook
        chosen: list[int] = []
        cand = (1 << self.m) - 1
        state = hook.root
        taken = 0
        for q in self.graph.lex():
            if taken >= size:
                break
            if not (cand >> q) & 1:
                continue
            grown = taken + (1 if weight is None else weight[q])
            nxt, inner, counts = hook.step(state, q, cand & adj[q])
            if grown == size:
                extends = counts
            else:
                # a copy: _Capped unwinds without popping the stack
                extends = grown < size and self._extends(chosen + [q], grown, nxt, inner, size)
            if extends:
                chosen.append(q)
                cand, taken, state = nxt, grown, inner
            else:
                cand ^= 1 << q
        if taken < size:
            raise AssertionError("certification pass lost the optimum")
        return self.graph.expand(chosen)

    def _extends(self, stack: list[int], weight: int, cand: int, state, size: int) -> bool:
        """The certification's decision: does a clique of weight size
        that counts extend the clique on stack (of weight weight, with
        candidates cand and hook state state)?  A group-free collecting
        pass with threshold and ceiling size, stopped by _Capped at the
        first such clique.  Such a clique is maximum, so it holds every
        forced take of the pass."""
        self._start(size, [], 0, True)
        self._listed = ()
        self._ceiling = size
        try:
            self._collect(stack, weight, cand, state, (), 0)
        except _Capped:
            return True
        return False

    def enumerate_exact(self, floor: int, cap: int) -> tuple[list[tuple[int, ...]], bool]:
        """Every maximum clique that counts, as sorted member indices, in
        one pass; capped.

        floor is the weight of a known clique (0 when none is known).  The
        threshold moves up as heavier cliques turn up: cliques of the
        current best weight are collected, and a heavier one resets the
        list.  Once more than cap are held, only a heavier clique can
        matter, so the search prunes on <= best until one turns up, as
        maximum() does from the start; with cap 0 the enumeration is
        maximum(), which _solved runs instead.  On a budget overrun the
        partial state stays in best and found (quotient vertices).

        With a group the pass branches on orbits and closes what it
        collects under the group.  Once that holds more than cap optima
        the list is a sample, and the group-free pass draws it from the
        weight reached, so that no answer depends on the group.  held
        keeps one clique of that weight from the closing pass, outside
        the sample, for an overrun before the group-free pass finds its
        first."""
        self._start(floor, [], cap, bool(self.gens or self.swaps))
        self.held: Sequence[int] = ()
        if self.m == 0:
            return [()], False
        full = (1 << self.m) - 1
        if self._closing:
            try:
                self._collect([], 0, full, self.hook.root, self.gens, self.swaps)
                return sorted(self.graph.expand(c) for c in self.found), False
            except _Capped:
                self._closing = False
                self._listed = ()
                self.held = self.found[0]
                self.found = []
        self._collect([], 0, full, self.hook.root, (), 0)
        return sorted(self.graph.expand(c) for c in self.found[:cap]), self._capped

    def _collect(self, stack: list[int], size: int, cand: int, state,
                 gens: tuple[Perm, ...], swaps: int,
                 lead: list[_Lead] | None = None) -> None:
        """Every clique search: branch on the candidates in reverse
        coloring order, pruned by the coloring bound against best, and
        hand each clique that counts to _record; the hook trims each
        child's candidates.  With gens or swaps (a mask of swap indices;
        the group they generate fixes the clique on stack and maps cand
        onto itself) it branches on orbits: an optimum through any vertex
        of v's orbit has an image through v, so after v its whole orbit
        leaves the candidates, and the child searches under a subgroup of
        v's stabiliser: the Schreier generators of gens' stabiliser (()
        once trivial) and the swaps that fix v, which moves[v] gives in
        one AND.  Orbital branching is sound under any subgroup of the
        stabiliser.

        With the group listed, a candidate below the root whose clique
        has an image in a searched branch (see _dominating) is skipped
        and leaves the candidates with its orbit, as if branched on; it
        is not a node.  lead holds an entry for each listed g with
        g^-1(p_1) on the stack.

        With forcing, the node first looks for the least candidate
        adjacent to every other one (_forced_take).  Every optimum through
        the node holds it, so it is a forced take: the node's only branch,
        bounded by the ceiling alone, with no coloring and no budget
        spent.

        No clique that counts weighs more than the ceiling (the member
        count, or the decision pass's weight), so a vertex that would
        grow the clique past it is a node that leaves the candidates
        unsearched, and a clique at the ceiling gets no child."""
        adj, weight, hook = self.adj, self.weight, self.hook
        listed, ceiling = self._listed, self._ceiling
        forced = _forced_take(adj, cand) if self.forcing else 0
        if forced:
            order, bounds = [forced.bit_length() - 1], [ceiling - size]
        else:
            # best only rises within a pass, so no position below this is branched on
            floor = self.best - size + self._capped
            order, bounds = _color_order(adj, cand, floor) if weight is None \
                else _weighted_color_order(adj, cand, weight, floor)
        moves, images = self.moves, self.swap_images
        # a forced take's one branch leaves no sibling for its orbit to skip
        symmetric = (gens or swaps) and not forced
        start = cand
        for i in range(len(order) - 1, -1, -1):
            reach = size + bounds[i]
            if reach < self.best or (self._capped and reach == self.best):
                return
            v = order[i]
            if not (cand >> v) & 1:
                continue
            if listed:
                # U_k: U_k-1 and the vertices this node is done with
                done = self._done[-1] | (start & ~cand)
                child_lead = self._dominating(stack, v, lead, done)
                if child_lead is None:
                    cand &= ~_orbit(gens, v, swaps, images) if symmetric else ~(1 << v)
                    continue
            if not forced:
                self.budget.spend()
            grown = size + (1 if weight is None else weight[v])
            if grown > ceiling:
                cand &= ~_orbit(gens, v, swaps, images) if symmetric else ~(1 << v)
                continue
            stack.append(v)
            nxt, inner, counts = hook.step(state, v, cand & adj[v])
            if counts:
                self._record(stack, grown)
            if nxt and grown < ceiling:
                stab = _stabilizer(gens, v) if gens else ()
                kept = swaps & ~moves[v] if swaps else 0
                if listed:
                    self._done.append(done)
                    self._collect(stack, grown, nxt, inner, stab, kept, child_lead)
                    self._done.pop()
                else:
                    self._collect(stack, grown, nxt, inner, stab, kept)
            stack.pop()
            cand &= ~_orbit(gens, v, swaps, images) if symmetric else ~(1 << v)

    def _dominating(self, stack: list[int], v: int, lead: list[_Lead] | None,
                    done: int) -> list[_Lead] | None:
        """The dominance check of a candidate v at depth k = len(stack),
        with stack p_1..p_k and done U_k: None when some listed g and
        some j <= k have p_1..p_j in g(stack + v) and g(stack + v)
        meeting U_j, where U_j holds the vertices the nodes on p_1..p_j
        were done with when the path went on.  Every clique through
        p_1..p_j and a vertex of U_j has an image that an earlier branch
        collected (or proved too light) under a threshold no higher than
        best, so then every clique through stack + v does too.
        Otherwise the lead of v's child.

        U_0 is a union of whole orbits and misses stack + v, so only the
        g with g^-1(p_1) in stack + v can qualify: those carried in lead
        and those with g(v) = p_1.  At the root (k = 0) nothing is
        skipped and lead is None; the table of the latter is built for
        p_1 = v.

        U_j only grows with j, so the test is on the largest j.  A lead
        entry passed this test at the parent, so its image of the stack
        misses U_j (U_j is done when j = k: then g maps the stack onto
        itself), and only g(v) can meet it, unless g(v) = p_j+1 makes j
        larger."""
        k = len(stack)
        if not k:
            to_root: dict[int, list[Perm]] = {}
            for g in self._listed:
                to_root.setdefault(g.index(v), []).append(g)
            # per root branch p_1, the elements taking each vertex to p_1
            self._to_root = to_root
            return [(g, 1 << v, 1) for g in to_root.get(v, ())]
        prefix = self._done
        child: list[_Lead] = []
        for g, mask, j in lead:
            w = g[v]
            mask |= 1 << w
            if j < k and w == stack[j]:
                # g(v) = p_j+1 extends the prefix that the image holds
                j += 1
                while j < k and (mask >> stack[j]) & 1:
                    j += 1
                if mask & (done if j == k else prefix[j + 1]):
                    return None
            elif (done if j == k else prefix[j + 1]) >> w & 1:
                return None
            child.append((g, mask, j + 1 if j == k and (mask >> v) & 1 else j))
        for g in self._to_root.get(v, ()):
            # g(v) = p_1: a new image of the stack
            mask = 1 << stack[0]
            for u in stack:
                mask |= 1 << g[u]
            j = 1
            while j < k and (mask >> stack[j]) & 1:
                j += 1
            if mask & (done if j == k else prefix[j + 1]):
                return None
            child.append((g, mask, j + 1 if j == k and (mask >> v) & 1 else j))
        return child

    def _record(self, stack: list[int], size: int) -> None:
        if size > self.best:
            self.best = size
            self.found = []
            self._seen = set()
            self._capped = False
        if size == self.best and not self._capped:
            if self._closing:
                self._close(stack)
                return
            self.found.append(tuple(sorted(stack)))
            if len(self.found) > self._cap:
                self._capped = True

    def _close(self, stack: list[int]) -> None:
        """Add the clique on stack and its images under the whole group
        to found, unless an earlier clique's images hold it; _Capped once
        more than cap are held.  First a breadth-first closure under the
        swaps (and the generators too, with the group unlisted); the
        swaps generate a normal subgroup, so each listed element applied
        once to each of those images then gives the rest.  found holds
        them ascending, as bytes when the tables are bytes (translate
        maps them).  A decision pass (cap 0) stops at its first clique,
        before any image."""
        seen, found, cap = self._seen, self.found, self._cap
        listed = self.elements
        perms = self.swap_tables if listed else self.swap_tables + self.gens
        as_seq = bytes if (listed or perms) and self.m <= 256 else tuple
        clique = as_seq(sorted(stack))
        if clique in seen:
            return
        seen.add(clique)
        found.append(clique)
        if len(found) > cap:
            raise _Capped
        queue = [clique]
        for perms, grow in ((perms, True), (listed, False)):
            for c in queue:
                for g in perms:
                    image = as_seq(sorted(_compose(g, c)))
                    if image not in seen:
                        seen.add(image)
                        found.append(image)
                        if grow:
                            queue.append(image)
                if len(found) > cap:
                    raise _Capped


def _search(graph: _Quotient, fam: SetFamily, limits: Limits,
            hook: _Hook | _PlainHook = _PLAIN, forcing: bool = False) -> _CliqueSearch:
    """A clique search on graph, a quotient of fam's members, with the
    node budget of limits and fam's symmetry and swaps; forcing: it takes
    forced takes."""
    return _CliqueSearch(graph, _Budget(limits.node_budget), hook,
                         _quotient_group(graph, fam), _quotient_swaps(graph, fam), forcing)


def _star_seed(fam: SetFamily, s: int) -> int:
    """The largest full s-star is an s-intersecting subfamily, so it
    warm-starts the clique search: its member mask, 0 when it is empty."""
    size, center = best_full_star(fam, s)
    if size == 0:
        return 0
    mask = 0
    for i, m in enumerate(fam.sets):
        if m & center == center:
            mask |= 1 << i
    return mask


def _cut(budget: _Budget, value: int, witness: tuple[int, ...],
         value_exact: bool = False, **fields) -> SolveResult:
    """The result of a search that the node budget cut short: the value
    reached (exact only when proven before the cut) and the witness
    held."""
    return SolveResult(value=value, witness=witness, nodes=budget.used, limits_hit=True,
                       value_exact=value_exact, **fields)


def _solved(search: _CliqueSearch, floor: tuple[int, int], cap: int | None = None,
            exact_floor: bool = False) -> SolveResult:
    """Every clique solver's result, from a known clique floor (weight,
    quotient mask).  Without a cap, or with cap 0, the search is
    maximum(); with a cap above 0 it is enumerate_exact() from the
    floor's weight, after maximum() when exact_floor asks for an exact
    floor.  A witness not read off a complete optima list is the
    lex-least optimum, certified by lex_least().

    A budget overrun keeps the clique held: the maximum's clique once
    maximum() has returned (the value is then exact); before that the
    first clique collected, then the floor while it weighs best, then
    the clique enumerate_exact() held from its closing pass; in the
    certification of a capped sample, its least clique."""
    graph, budget = search.graph, search.budget
    weight, clique = floor[0], None
    try:
        if exact_floor or not cap:
            weight, clique = search.maximum(floor)
        if cap:
            optima, capped = search.enumerate_exact(weight, cap)
    except _BudgetExceeded:
        exact = clique is not None
        if not exact:
            clique = search.found[0] if search.found else \
                elems_of(floor[1]) if search.best == weight else search.held
        return _cut(budget, search.best, graph.expand(clique), exact)
    value = search.best
    listed = None if cap is None else tuple(optima) if cap else ()
    if cap and not capped:
        return SolveResult(value=value, witness=optima[0] if optima else (),
                           all_optima=listed, nodes=budget.used)
    # a capped sample: the first cap of the sorted optima, and one more
    held = min(optima[:1] + [graph.expand(search.found[-1])]) if cap else graph.expand(clique)
    try:
        witness = search.lex_least(value)
    except _BudgetExceeded:
        return _cut(budget, value, held, True, all_optima=listed)
    return SolveResult(value=value, witness=witness, all_optima=listed, nodes=budget.used,
                       limits_hit=cap is not None)


def max_s_intersecting(fam: SetFamily, s: int,
                       limits: Limits = DEFAULT_LIMITS) -> SolveResult:
    """Largest s-intersecting subfamily, with a lex-least witness."""
    return _s_intersecting(fam, s, limits, None)


def enumerate_maximum_s_intersecting(fam: SetFamily, s: int,
                                     limits: Limits = DEFAULT_LIMITS) -> SolveResult:
    """All maximum s-intersecting subfamilies (capped), sorted; with
    optima cap 0 it is max_s_intersecting, listing none."""
    return _s_intersecting(fam, s, limits, limits.optima_cap)


def _s_intersecting(fam: SetFamily, s: int, limits: Limits, cap: int | None) -> SolveResult:
    """The s-intersecting search, from the largest full s-star or the
    greedy clique."""
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    # the star's scan runs before the graph is built, so the collector
    # passes it triggers do not walk the graph's fresh rows
    star = _star_seed(fam, s)
    graph = _compat_quotient(fam, s)
    search = _search(graph, fam, limits, forcing=True)
    return _solved(search, search._greedy_seed(graph.contract(star)), cap)


def max_nonstar_s_intersecting(fam: SetFamily, s: int,
                               limits: Limits = DEFAULT_LIMITS,
                               enumerate_optima: bool = False) -> SolveResult:
    """Largest s-intersecting subfamily whose common intersection has
    fewer than s elements, with a lex-least witness.

    The clique search runs with the non-star hook.  Any nonempty
    s-intersecting family of at most two members is an s-star, so
    infeasible means no subfamily qualifies at all.  Both modes start
    from the greedy clique.  With enumerate_optima the value and the
    optima come from one collecting pass, so the optima cap counts
    non-star optima.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    graph = _compat_quotient(fam, s)
    search = _search(graph, fam, limits, _NonStarHook(graph, fam.sets, s), forcing=True)
    cap = limits.optima_cap if enumerate_optima else None
    res = _solved(search, search._greedy_seed(), cap)
    if res.value == 0 and res.value_exact:
        return SolveResult(value=0, witness=(), nodes=res.nodes, infeasible=True)
    return res


def min_transversal(fam: SetFamily, limits: Limits = DEFAULT_LIMITS) -> SolveResult:
    """Exact minimum hitting set; the witness is the lex-least minimum
    hitting set.

    Both come from one branching routine (see _HittingSearch): the
    minimum asks it for a hitting set one smaller than the best known,
    from a greedy one down, until it finds none, and the certification
    asks it, element by element, whether the elements after the one just
    taken still complete a hitting set of the minimum size (unless the
    last set found already does).  The routine's child order decides
    which hitting set each question returns, so it moves node counts and
    the sets held along the way, but never the value or the lex-least
    witness, which is unique.  An overrun in the minimum search leaves
    the best set found so far with an inexact value; one in the
    certification leaves the exact value with the minimum search's
    witness."""
    sets = fam.sets
    if any(s == 0 for s in sets):
        return SolveResult(value=0, witness=(), infeasible=True)
    if not sets:
        return SolveResult(value=0, witness=())
    budget = _Budget(limits.node_budget)
    search = _HittingSearch(sets, budget)
    try:
        search.minimum()
    except _BudgetExceeded:
        return _cut(budget, search.best, search.best_set)
    try:
        witness = search.lex_least()
    except _BudgetExceeded:
        return _cut(budget, search.best, search.best_set, True)
    return SolveResult(value=search.best, witness=witness, nodes=budget.used)


class _HittingSearch:
    """Hitting-set search over member-index bitmasks, with one branching
    routine for the minimum and its certification.

    The routine asks whether k elements of an allowed mask can hit every
    uncovered member.  It branches on the uncovered member with the
    fewest allowed elements (a member with none prunes the node), one
    child per such element.  When the child that took e fails, e leaves
    the allowed mask of the later siblings: a hitting set that holds e
    was searched under that child, so the siblings partition the hitting
    sets instead of meeting each once per pivot element it holds (the
    exclusion branching of exact cover, with the fewest-options pivot of
    Knuth's Algorithm X).  Since the siblings partition the hitting sets
    in any order, the children go in descending order of their degree,
    the number of uncovered members an element hits (lowest element on
    ties), which reaches a hitting set sooner and changes only which one
    the routine returns.  Members are indexed smallest first (by size,
    then mask), so ties between pivots go to a smallest member.

    A node with uncovered members is also pruned by two lower bounds on
    the allowed elements still needed (cover/packing duality).  A greedy
    packing takes the lowest uncovered member and drops every member
    that holds one of its allowed elements, until none is left: the
    members it takes have pairwise-disjoint allowed elements, so each
    needs an element of its own, even where two share an excluded one.
    A member with no allowed element is never dropped, so it is taken
    and prunes the node.

    When the packing does not prune, a fractional packing does.  The
    allowed elements, in descending order of degree, each claim the
    uncovered members that no earlier one claimed, and a member claimed
    by an element of degree d gets y = 1/d.  Its claimer is its
    highest-degree allowed element, so an allowed element f holds
    deg(f) members of y at most 1/deg(f) each: the sum of y over the
    members holding f is at most 1.  So y is a fractional packing of the
    members against the allowed elements, and its total is at most the
    fractional transversal number, which is at most the number of
    allowed elements needed (LP duality; Lovasz, Discrete Math. 13,
    1975); a total above k prunes the node.  The y are kept exact as
    multiples of 1/L, L = lcm(1..D) for D the largest degree an element
    can have (unit[d] = L / d), and the sum stops as soon as it passes
    k * L.

    This bound prunes every node the degree-sum bound (the k largest
    degrees must add up to the uncovered count) would, so the search
    has no such bound.  Let the claimers be e_1, e_2, ... with degrees
    d_1 >= d_2 >= ..., e_t claiming c_t <= d_t members, and let
    a_1 >= ... >= a_k be the k largest allowed degrees, so d_t <= a_t.
    When a_1 + ... + a_k < |U|, for U the uncovered members, there are
    more than k claimers, each of the first k falls short of weight 1 by
    (d_t - c_t) / d_t <= (d_t - c_t) / d_k, and each later member weighs
    at least 1 / d_k, so the total is at least
    k + (|U| - (d_1 + ... + d_k)) / d_k > k.  The allowed degrees are at
    most the all-element degrees that bound sums, so its condition
    implies this one.  One degree list per node serves the bound and the
    child order."""

    def __init__(self, sets: tuple[int, ...], budget: _Budget) -> None:
        self.sets = sorted(sets, key=lambda m: (m.bit_count(), m))
        self.holders = holder_masks([elems_of(mask) for mask in self.sets])
        self.full = (1 << len(self.sets)) - 1
        top = max((h.bit_count() for h in self.holders), default=0)
        self.scale = lcm(*range(1, top + 1))
        self.unit = [0] + [self.scale // d for d in range(1, top + 1)]
        self.budget = budget
        self.best = 0
        self.best_set: tuple[int, ...] = ()

    def minimum(self) -> None:
        """Sets best and best_set.  A greedy hitting set (a highest-degree
        element at a time, lowest on ties) is the first upper bound; then
        the routine is asked for a hitting set of size best - 1 until it
        finds none.  The last one found survives a budget overrun."""
        holders = self.holders
        unhit = self.full
        greedy = []
        while unhit:
            e = max(range(len(holders)), key=lambda x: (holders[x] & unhit).bit_count())
            greedy.append(e)
            unhit &= ~holders[e]
        self.best, self.best_set = len(greedy), tuple(sorted(greedy))
        while (found := self._hit(self.full, self.best - 1, -1)) is not None:
            self.best, self.best_set = len(found), tuple(sorted(found))

    def lex_least(self) -> tuple[int, ...]:
        """Certification pass after minimum(): the lexicographically least
        hitting set of size best.  Each element in turn is taken when the
        members it leaves uncovered can still be hit by the elements after
        it; otherwise it is dropped for the rest of the pass.  The elements
        before it are spent either way: a dropped one is out, and a taken
        one hits no member still uncovered.  The pass keeps a completion
        of the elements taken so far to a hitting set of size best (at the
        start best_set, then the last set the routine returned), so when it
        reaches the completion's least element it takes it without asking
        the routine."""
        size = self.best
        chosen: list[int] = []
        unhit = self.full
        completion = sorted(self.best_set, reverse=True)
        for e in range(len(self.holders)):
            if len(chosen) == size:
                break
            rest = unhit & ~self.holders[e]
            if completion and completion[-1] == e:
                completion.pop()
            elif (found := self._hit(rest, size - len(chosen) - 1, -1 << (e + 1))) is not None:
                completion = sorted(found, reverse=True)
            else:
                continue
            chosen.append(e)
            unhit = rest
        if len(chosen) != size or unhit:
            raise AssertionError("certification pass lost the optimum")
        return tuple(chosen)

    def _hit(self, unhit: int, k: int, allowed: int) -> list[int] | None:
        """At most k elements of the allowed mask that hit every member of
        unhit, or None when there are none."""
        if not unhit:
            return []
        sets, holders = self.sets, self.holders
        packed, rest = 0, unhit
        while rest:
            mine = sets[(rest & -rest).bit_length() - 1] & allowed
            packed += 1
            if not mine or packed > k:
                return None
            while mine:
                low = mine & -mine
                rest &= ~holders[low.bit_length() - 1]
                mine ^= low
        degrees = [(h & unhit).bit_count() for h in holders]
        order = sorted(range(len(holders)), key=degrees.__getitem__, reverse=True)
        unit, limit, dual, rest = self.unit, k * self.scale, 0, unhit
        for e in order:
            if (claimed := holders[e] & rest) and allowed >> e & 1:
                dual += claimed.bit_count() * unit[degrees[e]]
                if dual > limit:
                    return None
                rest ^= claimed
                if not rest:
                    break
        fewest, options = len(holders) + 1, 0
        rest = unhit
        while rest:
            low = rest & -rest
            mine = sets[low.bit_length() - 1] & allowed
            if (count := mine.bit_count()) < fewest:
                fewest, options = count, mine
            rest ^= low
        for e in order:
            if not options >> e & 1:
                continue
            self.budget.spend()
            if (found := self._hit(unhit & ~holders[e], k - 1, allowed)) is not None:
                found.append(e)
                return found
            allowed &= ~(1 << e)
        return None


def max_triangular_intersecting(fam: SetFamily, s: int = 1,
                                limits: Limits = DEFAULT_LIMITS) -> SolveResult:
    """Largest subfamily that is pairwise s-intersecting with every
    element in at most two members, with a lex-least witness.

    The clique search runs with the degree-cap hook.  A cap can split a
    twin class, so the search keeps one vertex per member.  It takes no
    forced takes: a candidate adjacent to every other one can still put
    an element in a third member, so an optimum may leave it out."""
    adj = CompatibilityGraph.build(fam, s).adj
    graph = _Quotient(adj, [[v] for v in range(len(adj))],
                      [row.bit_count() for row in adj])
    search = _search(graph, fam, limits, _DegreeCapHook(graph, fam.sets))
    return _solved(search, search._greedy_seed())


def max_intersecting_sperner(fam: SetFamily,
                             limits: Limits = DEFAULT_LIMITS) -> SolveResult:
    """Largest subfamily that is intersecting and an antichain; reports
    whether every optimum is uniform.  The optima are enumerated from
    the maximum as an exact floor: from the greedy floor the closing pass
    overflows the cap, and all paths of sun(8,1) take 50,697 nodes, not
    1,402.  Forced takes would be sound here too, but they do not pay:
    on the set-systems benchmark workload they cut the Sperner search's
    nodes per pass from 4,038 to 3,049 but raised its time from 129 to
    160 ms."""
    sets = fam.sets
    graph = _twin_quotient(_sperner_rows(fam.elems, fam.holders), fam.elems, _sperner_rows,
                           by_degree=False)
    search = _search(graph, fam, limits)
    res = _solved(search, search._greedy_seed(), limits.optima_cap, exact_floor=True)
    if res.limits_hit:
        return res
    uniform = all(len({sets[i].bit_count() for i in opt}) <= 1 for opt in res.all_optima)
    return replace(res, uniform_optima=uniform)


def helly_triple_check(fam: SetFamily) -> tuple[bool, tuple[int, int, int] | None]:
    """True iff every pairwise-intersecting triple has a common element;
    otherwise returns the lexicographically first counterexample (i, j, k)
    as member indices.

    From holder masks: for a meeting pair i < j, the members k > j that
    meet both but none of the elements of A_i & A_j are rows[i] & rows[j]
    (meet_rows at s = 1) minus the holders of those elements, so the scan
    costs O(m^2 * |A|) mask operations instead of m^3 / 6 triple tests."""
    sets, holders = fam.sets, fam.holders
    rows = meet_rows(fam.elems, holders, 1)
    for i, row in enumerate(rows):
        for j in elems_of(row & -2 << i):
            bad = row & rows[j] & -2 << j
            meet = sets[i] & sets[j]
            while bad and meet:
                low = meet & -meet
                bad &= ~holders[low.bit_length() - 1]
                meet ^= low
            if bad:
                return False, (i, j, (bad & -bad).bit_length() - 1)
    return True, None
