"""Bit-vector set families and the intersection-structure predicates.

Sets are Python ints used as bit masks over a ground set 0..ground-1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Sequence


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def elems_of(mask: int) -> tuple[int, ...]:
    # a negative mask has infinitely many set bits; the loop below would
    # never end on one
    if mask < 0:
        raise ValueError(f"need a mask >= 0, got {mask}")
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return tuple(out)


def holder_masks(elems: Sequence[tuple[int, ...]]) -> list[int]:
    """Per element, the mask of the indices of the members (given by
    their ascending elements) that hold it; one entry per element up to
    the largest one any member holds."""
    holders = [0] * (max([el[-1] for el in elems if el], default=-1) + 1)
    for i, el in enumerate(elems):
        bit = 1 << i
        for e in el:
            holders[e] |= bit
    return holders


def duplicate_note(masks: Sequence[int]) -> str | None:
    """The note of a family of path vertex sets (sorted masks): how many
    members repeat the vertex set of the one before, or None."""
    dup = sum(a == b for a, b in zip(masks, masks[1:]))
    return (f"{dup} member(s) duplicate another member's vertex set; "
            "distinct path subgraphs kept as distinct members") if dup else None


@dataclass(frozen=True)
class SetFamily:
    """Sorted list of bit-vector sets over a fixed ground size.

    Generic constructions are duplicate-free; families projected from
    path subgraphs may carry duplicates, flagged in note.

    symmetry holds permutations of the ground set (perm[e] is the image
    of e) that map the members onto themselves, e.g. the generators of a
    host graph's automorphism group; it plays no part in equality.
    member_symmetry is derived from it: the same permutations acting on
    member indices, with the copies of a duplicated set mapped to the
    copies of its image in order, identities dropped.

    swaps holds pairs of ground elements whose transposition also maps
    the members onto themselves, e.g. two pendants of one sun cycle
    vertex; each symmetry entry must map every pair to a pair, so the
    swaps generate a normal subgroup of the whole group.  Kept apart from
    symmetry, they let a search read a swap's stabiliser off directly.
    member_swaps is derived from them: for each distinct pair that moves
    a member, the indices of the members holding one element of the pair
    but not the other and the indices of their images, copies mapped in
    order as in member_symmetry (the images go back).  Neither plays a
    part in equality.
    """

    ground: int
    sets: tuple[int, ...]
    name: str = ""
    note: str | None = None
    symmetry: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)
    member_symmetry: tuple[tuple[int, ...], ...] = field(
        init=False, default=(), compare=False, repr=False)
    swaps: tuple[tuple[int, int], ...] = field(default=(), compare=False, repr=False)
    member_swaps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = field(
        init=False, default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        full = (1 << self.ground) - 1
        for s in self.sets:
            if s & ~full:
                raise ValueError("set exceeds ground range")
        if list(self.sets) != sorted(self.sets):
            raise ValueError("sets must be sorted")
        if self.symmetry:
            object.__setattr__(self, "member_symmetry", self._member_permutations())
        if self.swaps:
            object.__setattr__(self, "member_swaps", self._member_swaps())

    def _member_permutations(self) -> tuple[tuple[int, ...], ...]:
        """symmetry acting on member indices; a ValueError unless each
        entry is a bijection of the ground set that maps the multiset of
        members onto itself.  A stable sort of the members by image puts
        the copies of a duplicated image in member order."""
        sets = list(self.sets)
        m = len(sets)
        perms = set()
        for perm in self.symmetry:
            if sorted(perm) != list(range(self.ground)):
                raise ValueError("symmetry entry is not a permutation of the ground set")
            bits = [1 << e for e in perm]
            images = [sum(map(bits.__getitem__, elems)) for elems in self.elems]
            by_image = sorted(range(m), key=images.__getitem__)
            if list(map(images.__getitem__, by_image)) != sets:
                raise ValueError("symmetry entry does not map the members onto themselves")
            perms.add(tuple(sorted(range(m), key=by_image.__getitem__)))
        perms.discard(tuple(range(m)))
        return tuple(sorted(perms))

    def _member_swaps(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """swaps acting on member indices, one entry per distinct pair
        that moves a member: the indices of the members holding one
        element of the pair but not the other, and of their images.  A
        swap is an involution, so the images go back, and every other
        member stays.  A ValueError unless each entry is a pair of
        distinct ground elements whose transposition maps the multiset of
        members onto itself and every symmetry entry maps each pair to a
        pair.

        The transposition of a < b adds 2**b - 2**a to every mask holding
        a but not b, which keeps their order; the members are sorted, so
        it maps them in index order onto the members holding b but not a
        exactly when it maps the members onto themselves, and then the
        k-th copy of a set goes to the k-th copy of its image."""
        keys = list(dict.fromkeys((min(a, b), max(a, b)) for a, b in self.swaps))
        for a, b in keys:
            if not 0 <= a < b < self.ground:
                raise ValueError("swap entry is not a pair of distinct ground elements")
        known = set(keys)
        for perm in self.symmetry:
            for a, b in keys:
                u, v = perm[a], perm[b]
                if ((u, v) if u < v else (v, u)) not in known:
                    raise ValueError("symmetry entry does not map the swaps onto swaps")
        sets = self.sets
        holders = self.holders + [0] * (self.ground - len(self.holders))
        out = []
        for a, b in keys:
            members = elems_of(holders[a] & ~holders[b])
            images = elems_of(holders[b] & ~holders[a])
            step = (1 << b) - (1 << a)
            if [sets[i] + step for i in members] != list(map(sets.__getitem__, images)):
                raise ValueError("swap entry does not map the members onto themselves")
            if members:
                out.append((members, images))
        return tuple(out)

    @classmethod
    def from_masks(cls, ground: int, masks: Iterable[int], name: str = "") -> "SetFamily":
        return cls(ground=ground, sets=tuple(sorted(set(masks))), name=name)

    @classmethod
    def from_vertex_sets(cls, ground: int, sets: Iterable[Iterable[int]],
                         name: str = "") -> "SetFamily":
        return cls.from_masks(ground, (mask_of(s) for s in sets), name)

    def __len__(self) -> int:
        return len(self.sets)

    def member(self, i: int) -> tuple[int, ...]:
        return self.elems[i]

    @cached_property
    def elems(self) -> tuple[tuple[int, ...], ...]:
        """Each member's elements, ascending; computed once per family."""
        return tuple(map(elems_of, self.sets))

    @cached_property
    def holders(self) -> list[int]:
        """holders[e]: the member-index mask of the members holding e
        (holder_masks of elems); computed once per family."""
        return holder_masks(self.elems)

    @cached_property
    def _stars(self) -> dict[int, tuple[int, int]]:
        """best_full_star's answers by s, so a family is scanned once per s."""
        return {}


@dataclass(frozen=True)
class FamilyStats:
    m: int
    delta: int
    delta_s: dict[int, int]
    min_size: int
    common: int


class StarCheck(NamedTuple):
    is_star: bool
    common: int | None
    empty_family: bool


def is_s_intersecting(fam: SetFamily, s: int) -> bool:
    """Every pair of members meets in at least s elements."""
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    sets = fam.sets
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if (sets[i] & sets[j]).bit_count() < s:
                return False
    return True


def is_exactly_s_intersecting(fam: SetFamily, s: int) -> bool:
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    sets = fam.sets
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if (sets[i] & sets[j]).bit_count() != s:
                return False
    return True


def full_star(fam: SetFamily, center: int) -> SetFamily:
    """Members containing the fixed set (a bit mask)."""
    kept = tuple(s for s in fam.sets if s & center == center)
    return SetFamily(ground=fam.ground, sets=kept,
                     name=f"{fam.name}|star@{elems_of(center)}", note=fam.note)


def stats(fam: SetFamily, s_max: int = 1) -> FamilyStats:
    """Exact degree statistics; Delta_s is the size of the largest full
    s-star (best_full_star, one scan of the s-subsets per family and s)."""
    if s_max < 1:
        raise ValueError(f"need s_max >= 1, got {s_max}")
    if not fam.sets:
        return FamilyStats(m=0, delta=0, delta_s={s: 0 for s in range(1, s_max + 1)},
                           min_size=0, common=0)
    delta_s = {s: best_full_star(fam, s)[0] for s in range(1, s_max + 1)}
    common = fam.sets[0]
    for mask in fam.sets[1:]:
        common &= mask
    return FamilyStats(m=len(fam.sets), delta=delta_s[1], delta_s=delta_s,
                       min_size=min(m.bit_count() for m in fam.sets), common=common)


def best_full_star(fam: SetFamily, s: int) -> tuple[int, int]:
    """(size, center mask) of the largest full s-star, lex-least center.

    Any candidate center with a nonempty star is an s-subset of some
    member, so only those are scanned, once per family and s.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if s not in fam._stars:
        counts = Counter(chain.from_iterable(combinations(elems, s) for elems in fam.elems))
        size = max(counts.values(), default=0)
        center = min((sub for sub, c in counts.items() if c == size), default=())
        fam._stars[s] = size, mask_of(center)
    return fam._stars[s]


def is_triangular(fam: SetFamily) -> bool:
    """Every three members have empty common intersection."""
    return best_full_star(fam, 1)[0] <= 2


def is_sperner(fam: SetFamily) -> bool:
    """No member contains another (duplicates count as containment)."""
    sets = fam.sets
    for i in range(len(sets)):
        for j in range(len(sets)):
            if i != j and sets[i] & sets[j] == sets[i]:
                return False
    return True


def is_s_star(fam: SetFamily, s: int) -> StarCheck:
    """Whether all members share at least s common elements.

    The common intersection of an empty family is undefined, so the
    empty family reports not-a-star with the empty_family flag set.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if not fam.sets:
        return StarCheck(is_star=False, common=None, empty_family=True)
    common = fam.sets[0]
    for mask in fam.sets[1:]:
        common &= mask
    return StarCheck(is_star=common.bit_count() >= s, common=common, empty_family=False)


def _header_int(fields: dict[str, str], key: str) -> int:
    try:
        return int(fields[key])
    except ValueError:
        raise ValueError(f"family header needs an integer, got '{key}={fields[key]}'") from None


def parse_family(text: str) -> SetFamily:
    """Read the '# ground=n count=m' + one-set-per-line text format."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing '# ground=n count=m' header")
    fields = {}
    for token in lines[0].lstrip("# ").split():
        pair = token.split("=")
        if len(pair) != 2:
            raise ValueError(f"family header token {token!r} is not 'key=value'")
        if pair[0] in fields:
            raise ValueError(f"family header repeats key {pair[0]!r}")
        fields[pair[0]] = pair[1]
    for key in ("ground", "count"):
        if key not in fields:
            raise ValueError(f"family header lacks '{key}='")
    ground = _header_int(fields, "ground")
    if ground < 0:
        raise ValueError(f"family header needs ground >= 0, got 'ground={ground}'")
    count = _header_int(fields, "count")
    body = lines[1:]
    if len(body) != count:
        raise ValueError(f"expected {count} sets, found {len(body)}")
    masks = []
    for ln in body:
        try:
            elems = [int(x) for x in ln.split()]
        except ValueError:
            raise ValueError(f"set line holds a non-integer element: {ln!r}") from None
        if elems != sorted(elems):
            raise ValueError(f"set line not ascending: {ln!r}")
        if len(set(elems)) < len(elems):
            raise ValueError(f"set line repeats an element: {ln!r}")
        if any(not 0 <= e < ground for e in elems):
            raise ValueError(f"element out of range: {ln!r}")
        masks.append(mask_of(elems))
    return SetFamily(ground=ground, sets=tuple(sorted(masks)), name="parsed")


def emit_family(fam: SetFamily) -> str:
    out = [f"# ground={fam.ground} count={len(fam.sets)}"]
    out.extend(" ".join(str(e) for e in elems_of(mask)) for mask in fam.sets)
    return "\n".join(out) + "\n"
