"""Exact optimizers over subfamilies of a set family.

Maximum s-intersecting subfamily search is a maximum clique problem on
the compatibility graph (members adjacent when they meet in >= s
elements), solved by branch and bound with a greedy coloring bound.
Transversals use hitting-set branch and bound on a minimum uncovered
member with two lower bounds: a greedy packing of pairwise-disjoint
uncovered members, and a degree-sum bound (the fewest elements whose
largest hit counts add up to the uncovered count), which carries the
search on intersecting families, where the packing bound is 1.  Clique
searches run over a degree-descending reordering (dense compatibility
graphs are near-trivial in that order and pathological in member
order); default witnesses are recomputed in family order by a
deterministic certification pass.  Optima enumeration is a single pass:
it starts from the size of a known clique and collects every maximum
clique while its threshold rises, so the maximum s-intersecting and
maximum non-star enumerations run no separate maximum search, and their
witness is the least optimum (certified when the list is capped).
Everything is single-threaded in a fixed order, so values and witnesses
are reproducible; node budgets make partial results an explicit error
state rather than a silent answer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .families import SetFamily, best_full_star, elems_of

sys.setrecursionlimit(100_000)


@dataclass(frozen=True)
class Limits:
    node_budget: int = 50_000_000
    optima_cap: int = 10_000


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
        return max(self.initial - self.left, 0)


@dataclass(frozen=True)
class CompatibilityGraph:
    """Member-level adjacency: bit j of adj[i] set iff |A_i & A_j| >= s."""

    m: int
    adj: tuple[int, ...]

    @classmethod
    def build(cls, fam: SetFamily, s: int) -> "CompatibilityGraph":
        sets = fam.sets
        m = len(sets)
        rows = [0] * m
        for i in range(m):
            for j in range(i + 1, m):
                if (sets[i] & sets[j]).bit_count() >= s:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        return cls(m=m, adj=tuple(rows))


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

    def witness_sets(self, fam: SetFamily) -> list[tuple[int, ...]]:
        return [fam.member(i) for i in self.witness]


def _color_order(adj: tuple[int, ...], cand: int) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; same-class members pairwise
    non-adjacent, so the class count bounds any clique inside cand."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append(v)
            bounds.append(color)
            rest ^= low
            avail &= ~adj[v]
            avail ^= low
    return order, bounds


def _degree_reorder(adj: tuple[int, ...]) -> tuple[tuple[int, ...], list[int], list[int]]:
    """Rows permuted so position 0 has the highest degree; returns
    (rows, perm, pos) with perm[new] = old and pos[old] = new."""
    m = len(adj)
    perm = sorted(range(m), key=lambda v: (-adj[v].bit_count(), v))
    pos = [0] * m
    for i, v in enumerate(perm):
        pos[v] = i
    rows = [0] * m
    for old in range(m):
        row = adj[old]
        translated = 0
        while row:
            low = row & -row
            translated |= 1 << pos[low.bit_length() - 1]
            row ^= low
        rows[pos[old]] = translated
    return tuple(rows), perm, pos


def _translate_mask(mask: int, pos: list[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << pos[low.bit_length() - 1]
        mask ^= low
    return out


def _holder_masks(sets: tuple[int, ...] | list[int]) -> list[int]:
    """Per element, the member-index mask of the members containing it."""
    holders = [0] * max((m.bit_length() for m in sets), default=0)
    for i, mask in enumerate(sets):
        for e in elems_of(mask):
            holders[e] |= 1 << i
    return holders


class _CliqueSearch:
    """Branch and bound core shared by the clique-shaped operations.

    sets and s switch on the non-star hook of enumerate_exact: sets[i]
    is the member at search position i, and a clique counts only when
    its members share fewer than s elements."""

    def __init__(self, adj: tuple[int, ...], budget: _Budget,
                 sets: tuple[int, ...] | None = None, s: int = 0) -> None:
        self.adj = adj
        self.m = len(adj)
        self.budget = budget
        self.best = 0
        self.best_mask = 0
        self.sets = sets
        self.s = s
        if sets is not None:
            self.members_of = _holder_masks(sets)

    def maximum(self, stop_at: int | None = None,
                seed: tuple[int, int] | None = None) -> tuple[int, int, bool]:
        """(size, member mask, limits_hit); partial best survives a
        budget overrun.  seed is a known clique (size, mask) used as a
        warm lower bound."""
        self.best, self.best_mask = self._greedy_seed()
        if seed is not None and seed[0] > self.best:
            self.best, self.best_mask = seed
        self._stop_at = stop_at
        full = (1 << self.m) - 1
        hit = False
        try:
            if full:
                self._expand(0, 0, full)
        except _BudgetExceeded:
            hit = True
        return self.best, self.best_mask, hit

    def _greedy_seed(self) -> tuple[int, int]:
        """Degree-greedy clique; a warm lower bound for the search."""
        adj = self.adj
        order = sorted(range(self.m), key=lambda v: (-adj[v].bit_count(), v))
        mask = 0
        size = 0
        cand = (1 << self.m) - 1
        for v in order:
            if (cand >> v) & 1:
                mask |= 1 << v
                size += 1
                cand &= adj[v]
        return size, mask

    def _expand(self, rmask: int, rsize: int, cand: int) -> None:
        adj = self.adj
        order, bounds = _color_order(adj, cand)
        for i in range(len(order) - 1, -1, -1):
            if rsize + bounds[i] <= self.best:
                return
            if self._stop_at is not None and self.best >= self._stop_at:
                return
            v = order[i]
            bit = 1 << v
            self.budget.spend()
            if rsize + 1 > self.best:
                self.best = rsize + 1
                self.best_mask = rmask | bit
            nxt = cand & adj[v]
            if nxt:
                self._expand(rmask | bit, rsize + 1, nxt)
            cand ^= bit

    def exists(self, cand: int, need: int) -> bool:
        """Decision variant: is there a clique of size need inside cand?"""
        if need <= 0:
            return True
        adj = self.adj
        order, bounds = _color_order(adj, cand)
        for i in range(len(order) - 1, -1, -1):
            if bounds[i] < need:
                return False
            v = order[i]
            self.budget.spend()
            if need == 1 or self.exists(cand & adj[v], need - 1):
                return True
            cand ^= 1 << v
        return False

    def lex_least(self, size: int, orig_adj: tuple[int, ...] | None = None,
                  pos: list[int] | None = None) -> tuple[int, ...]:
        """Deterministic certification pass: lexicographically least
        clique of the given size under the family's index order.

        When the search rows are a reordering, orig_adj/pos translate
        family-order candidate sets into search space."""
        if orig_adj is None:
            orig_adj = self.adj
        chosen: list[int] = []
        cand = (1 << self.m) - 1
        while len(chosen) < size:
            picked = False
            rest = cand
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                nxt = cand & orig_adj[v]
                probe = nxt if pos is None else _translate_mask(nxt, pos)
                if self.exists(probe, size - len(chosen) - 1):
                    chosen.append(v)
                    cand = nxt
                    picked = True
                    break
                cand ^= low
            if not picked:
                raise AssertionError("certification pass lost the optimum")
        return tuple(chosen)

    def enumerate_exact(self, floor: int, cap: int) -> tuple[list[tuple[int, ...]], bool]:
        """Every maximum clique, sorted, in one pass; capped.

        floor is the size of a known clique (0 when none is known).  The
        threshold moves up as larger cliques turn up: cliques of the
        current best size are collected, and a larger one resets the
        list.  Once more than cap are held, only a larger clique can
        matter, so the search prunes on <= best until one turns up.
        With the non-star hook on, only cliques whose members share
        fewer than s elements count.  On a budget overrun the partial
        state stays in best and found."""
        self.best = floor
        self.found: list[tuple[int, ...]] = []
        self._cap = cap
        self._capped = False
        if self.m == 0:
            return [()], False
        self._collect([], (1 << self.m) - 1, -1)
        return sorted(self.found[:cap]), self._capped

    def _collect(self, stack: list[int], cand: int, common: int) -> None:
        adj = self.adj
        sets = self.sets
        order, bounds = _color_order(adj, cand)
        for i in range(len(order) - 1, -1, -1):
            reach = len(stack) + bounds[i]
            if reach < self.best or (self._capped and reach == self.best):
                return
            v = order[i]
            self.budget.spend()
            stack.append(v)
            nxt = cand & adj[v]
            meet = common
            if sets is None:
                self._record(stack)
            else:
                meet = common & sets[v]
                if meet.bit_count() < self.s:
                    self._record(stack)
                elif nxt & ~self._holders(meet) == 0:
                    # every candidate contains the whole running
                    # intersection, so no extension drops below s
                    nxt = 0
            if nxt:
                self._collect(stack, nxt, meet)
            stack.pop()
            cand ^= 1 << v

    def _record(self, stack: list[int]) -> None:
        size = len(stack)
        if size > self.best:
            self.best = size
            self.found = []
            self._capped = False
        if size == self.best and not self._capped:
            self.found.append(tuple(sorted(stack)))
            if len(self.found) > self._cap:
                self._capped = True

    def _holders(self, meet: int) -> int:
        """Members that contain every element of meet."""
        out = (1 << self.m) - 1
        for e in elems_of(meet):
            out &= self.members_of[e]
        return out


def _star_seed(fam: SetFamily, s: int) -> tuple[int, int] | None:
    """The largest full s-star is an s-intersecting subfamily, so its
    member set warm-starts the clique search."""
    size, center = best_full_star(fam, s)
    if size == 0:
        return None
    mask = 0
    for i, m in enumerate(fam.sets):
        if m & center == center:
            mask |= 1 << i
    return size, mask


def max_s_intersecting(fam: SetFamily, s: int,
                       limits: Limits = DEFAULT_LIMITS) -> SolveResult:
    """Largest s-intersecting subfamily, with a lex-least witness."""
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    cg = CompatibilityGraph.build(fam, s)
    rows, perm, pos = _degree_reorder(cg.adj)
    budget = _Budget(limits.node_budget)
    search = _CliqueSearch(rows, budget)
    seed = _star_seed(fam, s)
    if seed is not None:
        seed = (seed[0], _translate_mask(seed[1], pos))
    value, mask, hit = search.maximum(seed=seed)
    partial = tuple(sorted(perm[i] for i in elems_of(mask)))
    if hit:
        return SolveResult(value=value, witness=partial, nodes=budget.used,
                           limits_hit=True, value_exact=False)
    try:
        witness = search.lex_least(value, orig_adj=cg.adj, pos=pos)
    except _BudgetExceeded:
        return SolveResult(value=value, witness=partial, nodes=budget.used,
                           limits_hit=True)
    return SolveResult(value=value, witness=witness, nodes=budget.used)


def enumerate_maximum_s_intersecting(fam: SetFamily, s: int,
                                     limits: Limits = DEFAULT_LIMITS) -> SolveResult:
    """All maximum s-intersecting subfamilies (capped), sorted."""
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    cg = CompatibilityGraph.build(fam, s)
    rows, perm, pos = _degree_reorder(cg.adj)
    budget = _Budget(limits.node_budget)
    search = _CliqueSearch(rows, budget)
    floor, floor_mask = search._greedy_seed()
    seed = _star_seed(fam, s)
    if seed is not None and seed[0] > floor:
        floor, floor_mask = seed[0], _translate_mask(seed[1], pos)
    try:
        raw, capped = search.enumerate_exact(floor, limits.optima_cap)
    except _BudgetExceeded:
        best = search.found[0] if search.found else elems_of(floor_mask)
        return SolveResult(value=search.best, witness=tuple(sorted(perm[i] for i in best)),
                           nodes=budget.used, limits_hit=True, value_exact=False)
    optima = sorted(tuple(sorted(perm[i] for i in clique)) for clique in raw)
    if not capped:
        return SolveResult(value=search.best, witness=optima[0], all_optima=tuple(optima),
                           nodes=budget.used)
    # a capped list is a sample, so the lex-least optimum is certified
    try:
        witness = search.lex_least(search.best, orig_adj=cg.adj, pos=pos)
    except _BudgetExceeded:
        witness = min(tuple(sorted(perm[i] for i in clique)) for clique in search.found)
    return SolveResult(value=search.best, witness=witness, all_optima=tuple(optima),
                       nodes=budget.used, limits_hit=True)


def max_nonstar_s_intersecting(fam: SetFamily, s: int,
                               limits: Limits = DEFAULT_LIMITS,
                               enumerate_optima: bool = False,
                               upper_hint: int | None = None) -> SolveResult:
    """Largest s-intersecting subfamily whose common intersection has
    fewer than s elements.

    The plain clique bound is a valid relaxation; the non-star condition
    is checked as the subfamily grows, and once the running intersection
    drops below s elements every extension stays feasible.  Any nonempty
    s-intersecting family of at most two members is automatically an
    s-star, so infeasible means no subfamily qualifies at all.  With
    enumerate_optima the value and the optima come from one collecting
    pass that counts non-star cliques only, so the optima cap counts
    non-star optima.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    cg = CompatibilityGraph.build(fam, s)
    sets = fam.sets
    budget = _Budget(limits.node_budget)
    adj = cg.adj
    if enumerate_optima:
        search = _CliqueSearch(adj, budget, sets=sets, s=s)
        try:
            optima, capped = search.enumerate_exact(0, limits.optima_cap)
        except _BudgetExceeded:
            witness = search.found[0] if search.found else ()
            return SolveResult(value=search.best, witness=witness, nodes=budget.used,
                               limits_hit=True, value_exact=False)
        if search.best == 0:
            return SolveResult(value=0, witness=(), nodes=budget.used, infeasible=True)
        # the least clique collected, before the list is cut to the cap
        return SolveResult(value=search.best, witness=min(search.found),
                           all_optima=tuple(optima), nodes=budget.used, limits_hit=capped)
    ground_full = (1 << fam.ground) - 1
    state = {"best": 0, "best_stack": ()}

    def expand(stack: list[int], common: int, cand: int) -> None:
        order, bounds = _color_order(adj, cand)
        for i in range(len(order) - 1, -1, -1):
            if len(stack) + bounds[i] <= state["best"]:
                return
            if upper_hint is not None and state["best"] >= upper_hint:
                return
            v = order[i]
            budget.spend()
            stack.append(v)
            new_common = common & sets[v]
            if new_common.bit_count() < s and len(stack) > state["best"]:
                state["best"] = len(stack)
                state["best_stack"] = tuple(sorted(stack))
            expand(stack, new_common, cand & adj[v])
            stack.pop()
            cand ^= 1 << v

    try:
        expand([], ground_full, (1 << cg.m) - 1)
    except _BudgetExceeded:
        return SolveResult(value=state["best"], witness=state["best_stack"],
                           nodes=budget.used, limits_hit=True, value_exact=False)
    best = state["best"]
    if best == 0:
        return SolveResult(value=0, witness=(), nodes=budget.used, infeasible=True)
    return SolveResult(value=best, witness=state["best_stack"], nodes=budget.used)


def min_transversal(fam: SetFamily, limits: Limits = DEFAULT_LIMITS) -> SolveResult:
    """Exact minimum hitting set, branching on a smallest uncovered member;
    the witness is the lex-least minimum hitting set."""
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
        return SolveResult(value=search.best, witness=search.best_set,
                           nodes=budget.used, limits_hit=True, value_exact=False)
    try:
        witness = search.lex_least(search.best)
    except _BudgetExceeded:
        return SolveResult(value=search.best, witness=search.best_set,
                           nodes=budget.used, limits_hit=True)
    return SolveResult(value=search.best, witness=witness, nodes=budget.used)


def _degrees_fall_short(holders: list[int], unhit: int, k: int) -> bool:
    """Degree-sum bound: an element hits (holder & unhit) members, so k
    elements hit at most the k largest of those counts together.  True
    when that sum is below |unhit|, i.e. more than k elements are needed."""
    degrees = sorted([(h & unhit).bit_count() for h in holders], reverse=True)
    return sum(degrees[:k]) < unhit.bit_count()


class _HittingSearch:
    """Hitting-set branch and bound over member-index bitmasks.

    Members are indexed smallest first (by size, then mask), so the
    pivot of the search, a smallest uncovered member, is the lowest
    uncovered bit.  A node with uncovered members is pruned by two lower
    bounds on the elements still needed: a greedy packing of pairwise
    disjoint uncovered members, each of which needs its own element, and,
    when the packing does not prune, the degree-sum bound."""

    def __init__(self, sets: tuple[int, ...], budget: _Budget) -> None:
        self.sets = sorted(sets, key=lambda m: (m.bit_count(), m))
        self.holders = _holder_masks(self.sets)
        # meets[i]: the members sharing an element with member i, and i
        self.meets = []
        for mask in self.sets:
            meet = 0
            for e in elems_of(mask):
                meet |= self.holders[e]
            self.meets.append(meet)
        self.full = (1 << len(self.sets)) - 1
        self.budget = budget
        self.best = 0
        self.best_set: tuple[int, ...] = ()

    def _packing_exceeds(self, unhit: int, k: int) -> bool:
        """True when more than k pairwise-disjoint members of unhit turn
        up, taking each lowest member disjoint from those already taken."""
        count = 0
        while unhit:
            count += 1
            if count > k:
                return True
            unhit &= ~self.meets[(unhit & -unhit).bit_length() - 1]
        return False

    def minimum(self) -> None:
        """Sets best and best_set; a greedy hitting set (a highest-degree
        element at a time, lowest on ties) is the warm upper bound, and
        the partial best survives a budget overrun."""
        holders = self.holders
        unhit = self.full
        greedy = []
        while unhit:
            e = max(range(len(holders)), key=lambda x: (holders[x] & unhit).bit_count())
            greedy.append(e)
            unhit &= ~holders[e]
        self.best, self.best_set = len(greedy), tuple(sorted(greedy))
        self._branch([], self.full)

    def _branch(self, chosen: list[int], unhit: int) -> None:
        if not unhit:
            if len(chosen) < self.best:
                self.best = len(chosen)
                self.best_set = tuple(sorted(chosen))
            return
        room = self.best - len(chosen) - 1
        if self._packing_exceeds(unhit, room) or \
                _degrees_fall_short(self.holders, unhit, room):
            return
        for e in elems_of(self.sets[(unhit & -unhit).bit_length() - 1]):
            self.budget.spend()
            chosen.append(e)
            self._branch(chosen, unhit & ~self.holders[e])
            chosen.pop()

    def lex_least(self, size: int) -> tuple[int, ...]:
        """Certification pass: the lexicographically least hitting set of
        the given size.  Each element in turn is taken when the members it
        leaves uncovered can still be hit by the elements left; otherwise
        it is forbidden for the rest of the pass."""
        chosen: list[int] = []
        unhit = self.full
        self._forbid(0)
        forbidden = 0
        for e in range(len(self.holders)):
            if len(chosen) == size:
                break
            rest = unhit & ~self.holders[e]
            if self._can_hit(rest, size - len(chosen) - 1):
                chosen.append(e)
                unhit = rest
            else:
                forbidden |= 1 << e
                self._forbid(forbidden)
        if len(chosen) != size or unhit:
            raise AssertionError("certification pass lost the optimum")
        return tuple(chosen)

    def _forbid(self, forbidden: int) -> None:
        """Rebuild what _can_hit needs about the elements still allowed."""
        self.allowed = ~forbidden
        self.allowed_holders = [h for e, h in enumerate(self.holders)
                                if not (forbidden >> e) & 1]
        self.cover = 0
        for h in self.allowed_holders:
            self.cover |= h

    def _can_hit(self, unhit: int, k: int) -> bool:
        """Can k allowed elements hit every member of unhit?"""
        if not unhit:
            return True
        if unhit & ~self.cover or self._packing_exceeds(unhit, k) or \
                _degrees_fall_short(self.allowed_holders, unhit, k):
            return False
        sets, allowed = self.sets, self.allowed
        pivot = min(elems_of(unhit), key=lambda i: (sets[i] & allowed).bit_count())
        for e in elems_of(sets[pivot] & allowed):
            self.budget.spend()
            if self._can_hit(unhit & ~self.holders[e], k - 1):
                return True
        return False


def max_triangular_intersecting(fam: SetFamily, s: int = 1,
                                limits: Limits = DEFAULT_LIMITS) -> SolveResult:
    """Largest subfamily that is pairwise s-intersecting with every
    element in at most two members (degree cap enforced incrementally)."""
    cg = CompatibilityGraph.build(fam, s)
    sets = fam.sets
    m = cg.m
    budget = _Budget(limits.node_budget)
    state = {"best": 0, "best_stack": ()}

    def branch(start: int, stack: list[int], once: int, twice: int, cand: int) -> None:
        if len(stack) > state["best"]:
            state["best"] = len(stack)
            state["best_stack"] = tuple(stack)
        for v in range(start, m):
            if not (cand >> v) & 1:
                continue
            if len(stack) + (cand >> v).bit_count() <= state["best"]:
                return
            if sets[v] & twice:
                continue
            budget.spend()
            stack.append(v)
            branch(v + 1, stack, once | sets[v], twice | (once & sets[v]),
                   cand & cg.adj[v])
            stack.pop()

    try:
        branch(0, [], 0, 0, (1 << m) - 1)
    except _BudgetExceeded:
        return SolveResult(value=state["best"], witness=state["best_stack"],
                           nodes=budget.used, limits_hit=True, value_exact=False)
    return SolveResult(value=state["best"], witness=state["best_stack"],
                       nodes=budget.used)


def max_intersecting_sperner(fam: SetFamily,
                             limits: Limits = DEFAULT_LIMITS) -> SolveResult:
    """Largest subfamily that is intersecting and an antichain; reports
    whether every optimum is uniform."""
    sets = fam.sets
    m = len(sets)
    rows = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            meet = sets[i] & sets[j]
            if meet and meet != sets[i] and meet != sets[j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    adj = tuple(rows)
    budget = _Budget(limits.node_budget)
    search = _CliqueSearch(adj, budget)
    value, mask, hit = search.maximum()
    if hit:
        return SolveResult(value=value, witness=elems_of(mask),
                           nodes=budget.used, limits_hit=True, value_exact=False)
    try:
        optima, capped = search.enumerate_exact(value, limits.optima_cap)
    except _BudgetExceeded:
        return SolveResult(value=value, witness=elems_of(mask),
                           nodes=budget.used, limits_hit=True)
    uniform = None
    if not capped:
        uniform = all(
            len({sets[i].bit_count() for i in opt}) <= 1 for opt in optima
        )
    witness = optima[0] if optima else ()
    return SolveResult(value=value, witness=witness, all_optima=tuple(optima),
                       nodes=budget.used, limits_hit=capped,
                       uniform_optima=uniform)


def helly_triple_check(fam: SetFamily) -> tuple[bool, tuple[int, int, int] | None]:
    """True iff every pairwise-intersecting triple has a common element;
    otherwise returns one counterexample as member indices."""
    sets = fam.sets
    m = len(sets)
    for i in range(m):
        for j in range(i + 1, m):
            meet = sets[i] & sets[j]
            if not meet:
                continue
            for k in range(j + 1, m):
                if meet & sets[k] == 0 and sets[i] & sets[k] and sets[j] & sets[k]:
                    return False, (i, j, k)
    return True, None

