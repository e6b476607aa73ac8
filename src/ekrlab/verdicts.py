"""Verdict engine: brute force versus closed form on one instance.

A verdict pairs the exact solver value with the applicable oracle, the
best full star, an all-optima structure classification, and the explicit
construction when one exists.  _closed_form holds each instance type's
oracle and construction, and _verdict builds every Verdict from a
check's solver result and the labels the check computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_

from . import oracles
from .families import SetFamily, best_full_star, elems_of, is_s_intersecting, \
    is_s_star
from .graphs import Graph, GraphError
from .oracles import OracleValue
from .paths import enumerate_paths_all, enumerate_paths_r, enumerate_paths_upto, \
    to_setfamily
from .solvers import DEFAULT_LIMITS, Limits, SolveResult, \
    enumerate_maximum_s_intersecting, max_nonstar_s_intersecting

MODES = ("uniform", "upto", "all-paths")

EXIT_CLEAN = 0
EXIT_MISMATCH = 2
EXIT_LIMITS = 3


@dataclass(frozen=True)
class Verdict:
    instance: dict
    family_size: int
    max_star: dict
    brute_value: int
    oracle: OracleValue | None
    is_ekr: bool | None
    is_strict: bool | None
    classification: str
    witnesses: dict
    construction_ok: bool | None
    runtime_ms: float
    limits_hit: bool
    value_exact: bool = True

    def to_dict(self) -> dict:
        """The fields in declaration order, the order in which the
        dataclass sets them, with the oracle's fields as a dict too."""
        out = dict(vars(self))
        if self.oracle is not None:
            out["oracle"] = dict(vars(self.oracle))
        return out

    @property
    def oracle_match(self) -> bool | None:
        """True/False when an applicable oracle was compared against an
        exact value; None when no oracle applies or the search was cut
        short (a partial value is reported, never silently compared)."""
        if self.oracle is None or not self.oracle.applicable or not self.value_exact:
            return None
        return self.oracle.value == self.brute_value

    @property
    def exit_code(self) -> int:
        """EXIT_MISMATCH (2) on an oracle mismatch or a failed
        construction, otherwise EXIT_LIMITS (3) when a search hit its
        limits, otherwise EXIT_CLEAN (0)."""
        if self.oracle_match is False or self.construction_ok is False:
            return EXIT_MISMATCH
        return EXIT_LIMITS if self.limits_hit else EXIT_CLEAN


def build_family(g: Graph, mode: str, size: int | None) -> SetFamily:
    """The path family of a mode on g, built on the first call and taken
    from g.families after; only a successful build is kept."""
    key = (mode, None if mode == "all-paths" else size)
    if key in g.families:
        return g.families[key]
    if mode == "uniform":
        if size is None:
            raise GraphError("uniform mode needs r")
        fam = to_setfamily(enumerate_paths_r(g, size))
    elif mode == "upto":
        if size is None:
            raise GraphError("upto mode needs k")
        fam = to_setfamily(enumerate_paths_upto(g, size))
    elif mode == "all-paths":
        fam = to_setfamily(enumerate_paths_all(g))
    else:
        raise GraphError(f"unknown mode {mode!r}; expected one of {MODES}")
    g.families[key] = fam
    return fam


@lru_cache(maxsize=1)
def _hm_table(n: int, r: int) -> tuple[dict[int, int], frozenset[int]]:
    """Window mask -> window start, and the start masks of the
    three-anchor families with an anchor at vertex 0, from C(n-1, 2)
    anchor pairs.  The starts whose window contains vertex a are
    a - r + 1, ..., a, so cover[a] is the mask of window a - r + 1, and
    the windows meeting anchors 0, b, c in exactly two vertices are the
    starts covered twice but not three times."""
    full = (1 << n) - 1
    window = [((1 << r) - 1) << y for y in range(n)]
    window = [(w | w >> n) & full for w in window]
    cover = [window[(a - r + 1) % n] for a in range(n)]
    c0 = cover[0]
    families = set()
    for b, c in combinations(range(1, n), 2):
        cb, cc = cover[b], cover[c]
        families.add((c0 & cb | c0 & cc | cb & cc) & ~(c0 & cb & cc))
    return {w: y for y, w in enumerate(window)}, frozenset(families)


def matches_hm_structure(n: int, r: int, member_masks: list[int]) -> bool:
    """Does the family equal, for some 3 cycle vertices, the set of all
    r-windows meeting them in exactly two vertices?

    The family is read as the mask S of its window starts.  Turning the
    cycle by c maps the family of anchors A to that of A - c, and S to
    S - c, so S belongs to anchors A with c in A exactly when S - c is
    in the table of anchors at 0.  Which c to try: take a start y0 in
    S with y0 - 1 not in S.  Window y0 is window y0 - 1 without vertex
    y0 - 1 and with vertex y0 + r - 1 (distinct, as r < n), and its
    count of anchors goes from not 2 to 2, so exactly one of those two
    vertices is an anchor; turning each onto 0 covers every A.  An S
    with no such start is empty or holds all n starts, so every turn
    leaves it as it is and one lookup stands for all n."""
    windows, families = _hm_table(n, r)
    starts = 0
    for mask in member_masks:
        y = windows.get(mask)
        if y is None or (starts >> y) & 1:
            return False
        starts |= 1 << y
    left_ends = starts & ~(starts << 1 | starts >> (n - 1))
    if not left_ends:
        return starts in families
    y0 = (left_ends & -left_ends).bit_length() - 1
    full = (1 << n) - 1
    for c in ((y0 + r - 1) % n, (y0 - 1) % n):
        if (starts >> c | starts << (n - c)) & full in families:
            return True
    return False


def _sun_params(g: Graph) -> tuple[int, int] | None:
    """(n, t) of a sun, with a cycle the sun with t = 0; None otherwise."""
    if g.kind == "cycle":
        return g.meta["n"], 0
    if g.kind == "sun":
        return g.meta["n"], g.meta["t"]
    return None


def _closed_form(g: Graph, mode: str, size: int | None, s: int, fam: SetFamily,
                 solved: SolveResult, star_size: int,
                 sun_variant: str = "squared") -> tuple[OracleValue | None, bool | None]:
    """(oracle, construction_ok) of the closed form that covers the
    instance, one branch per instance type: uniform paths on a sun or
    cycle, all paths of a sun or cycle at s = 1, uniform paths on a
    theta at s = 1, and the non-star maximum on a cycle (mode
    'nonstar').  (None, None) when none does.

    The explicit extremal family is checked only when the oracle applies
    and the value is exact: it must satisfy its claimed predicates and
    match the search value (sun stars), the oracle (Hilton-Milner
    families), or the best full star (the theta hub star).  Inside the
    oracle's window no builder raises."""
    sun = _sun_params(g)
    if mode == "uniform" and sun is not None:
        oracle = oracles.sun_bound(*sun, size, s, variant=sun_variant)
        check = lambda: _construction_ok(oracles.build_sun_star_family(*sun, size, s),
                                         s, True, solved.value)
    elif mode == "all-paths" and sun is not None and s == 1:
        n, t = sun
        oracle = OracleValue(value=oracles.sun_allpaths_counts(n, t)["hm"], applicable=True,
                             condition=f"all paths of a sun [n={n} t={t}]",
                             source="sun-allpaths-max")
        check = lambda: _construction_ok(oracles.build_sun_hm_family(n, t),
                                         1, False, oracle.value)
    elif mode == "uniform" and g.kind == "theta" and s == 1:
        a = g.meta["a"]
        oracle = oracles.theta_f(len(a), a[0], size, a2=a[1])
        if a == (1, 2):
            oracle = OracleValue.out_of_range("theta(1,2) is the triangle", oracle.source)
        elif oracle.applicable and size not in oracles.theta_window(a):
            oracle = OracleValue.out_of_range(f"r={size} beyond (a1+a2+1)/2", oracle.source)
        check = lambda: sum(1 for m in fam.sets if m & 1) == star_size
    elif mode == "nonstar" and g.kind == "cycle":
        n = g.meta["n"]
        oracle = oracles.hm_cycle_size(n, size)
        anchors = (0, size - 1, 2 * (size - 1) % n)
        check = lambda: _construction_ok(oracles.build_cycle_hm_family(n, size, anchors),
                                         1, False, oracle.value)
    else:
        return None, None
    return oracle, check() if oracle.applicable and solved.value_exact else None


def _construction_ok(built: SetFamily, s: int, star: bool, size: int) -> bool:
    """Is the built family s-intersecting, an s-star exactly when it
    claims to be, and of the given size?  An s-star is s-intersecting,
    so only a non-star needs the pair test."""
    is_star = is_s_star(built, s).is_star
    return is_star == star and len(built) == size and (is_star or is_s_intersecting(built, s))


def star_flags_of(fam: SetFamily, optima, s: int) -> list[bool]:
    """Per optimum (member indices), whether its members share at least
    s elements; an empty optimum is not a star."""
    sets = fam.sets
    return [bool(opt) and reduce(and_, map(sets.__getitem__, opt)).bit_count() >= s
            for opt in optima]


def _verdict(start: float, g: Graph, mode: str, size: int | None, s: int, fam: SetFamily,
             solved: SolveResult, is_strict: bool | None, classification: str,
             sun_variant: str = "squared", **witnesses) -> Verdict:
    """The verdict of a finished check, from its labels and extra witness
    keys.  is_ekr: no family searched beats the best full star (for an
    s-intersecting maximum, which that star bounds below, equality)."""
    star_size, star_center = best_full_star(fam, s)
    oracle, construction_ok = _closed_form(g, mode, size, s, fam, solved, star_size,
                                           sun_variant)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return Verdict(
        instance=_instance_tag(g, mode, size, s),
        family_size=len(fam),
        max_star={"size": star_size, "center": list(elems_of(star_center))},
        brute_value=solved.value,
        oracle=oracle,
        is_ekr=solved.value <= star_size if solved.value_exact else None,
        is_strict=is_strict,
        classification=classification,
        witnesses={"optimum": [list(fam.member(i)) for i in solved.witness], **witnesses},
        construction_ok=construction_ok,
        runtime_ms=runtime_ms,
        limits_hit=solved.limits_hit,
        value_exact=solved.value_exact,
    )


def check_ekr(g: Graph, mode: str, size: int | None, s: int,
              limits: Limits = DEFAULT_LIMITS, sun_variant: str = "squared") -> Verdict:
    """Full brute-force verdict for one instance.

    Star centers are searched over the s-subsets of family members only,
    which covers every center with a nonempty full star.  Labels that
    need the exact value (is_ekr, construction_ok) are None when the
    search was cut short; the classification is 'unknown' unless the
    optima list is complete.  A complete list of star optima makes the
    value a full star's size, so EKR holds and is_strict is True.
    """
    start = time.perf_counter()
    fam = build_family(g, mode, size)
    solved = enumerate_maximum_s_intersecting(fam, s, limits)
    is_strict: bool | None = None
    classification = "unknown"
    if solved.all_optima is not None:
        star_flags = star_flags_of(fam, solved.all_optima, s)
        if solved.limits_hit:
            is_strict = False if not all(star_flags) else None
        else:
            is_strict = all(star_flags)
            classification = "star" if is_strict else "other"
            if not is_strict and g.kind == "cycle" and mode == "uniform":
                nonstars = [opt for opt, ok in zip(solved.all_optima, star_flags) if not ok]
                if all(matches_hm_structure(g.meta["n"], size,
                                            [fam.sets[i] for i in opt])
                       for opt in nonstars):
                    classification = "hm-structure"
    return _verdict(start, g, mode, size, s, fam, solved, is_strict, classification,
                    sun_variant)


def check_hm(g: Graph, r: int, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Maximum non-star intersecting verdict on a cycle, with the
    two-of-three-anchors structure check on every optimum.  As in
    check_ekr, is_ekr and construction_ok are None when the value is
    inexact, and the classification is 'unknown' when the optima list
    is incomplete."""
    if g.kind != "cycle":
        raise GraphError(f"non-star verdicts run on cycles, got {g.kind!r}")
    start = time.perf_counter()
    fam = build_family(g, "uniform", r)
    solved = max_nonstar_s_intersecting(fam, 1, limits, enumerate_optima=True)
    classification = "other"
    if solved.limits_hit:
        classification = "unknown"
    elif not solved.infeasible and all(
            matches_hm_structure(g.meta["n"], r, [fam.sets[i] for i in opt])
            for opt in solved.all_optima):
        classification = "hm-structure"
    return _verdict(start, g, "nonstar", r, 1, fam, solved, None, classification,
                    infeasible=solved.infeasible)


def host_tag(g: Graph) -> dict:
    """The host graph of a report entry: its kind and parameters, tuples
    as lists."""
    return {"kind": g.kind, **{key: list(val) if isinstance(val, tuple) else val
                               for key, val in g.meta.items()}}


def _instance_tag(g: Graph, mode: str, size: int | None, s: int) -> dict:
    tag = {"kind": g.kind, "mode": mode, "s": s} | host_tag(g)
    if mode == "uniform" or mode == "nonstar":
        tag["r"] = size
    elif mode == "upto":
        tag["k"] = size
    return tag
