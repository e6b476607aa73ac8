"""The benchmark's four workloads.

A workload function builds its inputs from the seed and returns the
items of one pass.  An item's run() is the timed call into ekrlab;
examine() turns its output into outcomes.  An outcome carries the answer
(only the fields that state the mathematical result, so fields a later
schema adds do not count as a change), the problems found by checks that
do not trust the library, and the item's latency.

ekrlab is reached through module attributes at call time (V.check_ekr,
not a name bound at import), so the probes in probes.py see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable


@dataclass
class Outcome:
    id: str
    answer: object
    problems: list[str] = field(default_factory=list)
    latency_ms: float | None = None       # None: not a latency sample
    seeded: bool = False                  # depends on the seed, not recorded for others


@dataclass
class Item:
    id: str
    run: Callable[[], object]
    # (output, solver results of the call, measured ms) -> outcomes
    examine: Callable[[object, list, float], list[Outcome]]


def _mask(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def _elems(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if (mask >> e) & 1]


def _meet_problems(masks: list[int], s: int) -> list[str]:
    for (i, a), (j, b) in combinations(enumerate(masks), 2):
        if (a & b).bit_count() < s:
            return [f"witness members {i} and {j} meet in fewer than {s} elements"]
    return []


def _common(masks: list[int]) -> int:
    common = -1
    for m in masks:
        common &= m
    return common


def _degree_problems(masks: list[int], cap: int) -> list[str]:
    degree: dict[int, int] = {}
    for m in masks:
        for e in _elems(m):
            degree[e] = degree.get(e, 0) + 1
    worst = max(degree.values(), default=0)
    return [f"an element lies in {worst} members, more than {cap}"] if worst > cap else []


def _hits_problems(family_sets, points) -> list[str]:
    hit = _mask(points)
    missed = sum(1 for m in family_sets if m & hit == 0)
    return [f"transversal misses {missed} members"] if missed else []


# -- verdicts ---------------------------------------------------------------

def exit_code(d: dict) -> int:
    """The command line's exit code for one verdict dict."""
    oracle = d["oracle"]
    match = None
    if oracle is not None and oracle["applicable"] and d["value_exact"]:
        match = oracle["value"] == d["brute_value"]
    if match is False or d["construction_ok"] is False:
        return 2
    return 3 if d["limits_hit"] else 0


def verdict_answer(d: dict) -> dict:
    oracle = d["oracle"]
    return {
        "instance": d["instance"],
        "family_size": d["family_size"],
        "max_star": d["max_star"],
        "value": d["brute_value"],
        "value_exact": d["value_exact"],
        "oracle": None if oracle is None else [oracle["value"], oracle["applicable"]],
        "is_ekr": d["is_ekr"],
        "is_strict": d["is_strict"],
        "classification": d["classification"],
        "witnesses": d["witnesses"],
        "construction_ok": d["construction_ok"],
        "limits_hit": d["limits_hit"],
        "exit": exit_code(d),
    }


def verdict_problems(d: dict) -> list[str]:
    inst = d["instance"]
    value = d["brute_value"]
    witness = [_mask(m) for m in d["witnesses"]["optimum"]]
    if d["limits_hit"]:
        return ["hit a search limit"]
    if len(witness) != value:
        return [f"witness has {len(witness)} members, value is {value}"]
    problems = _meet_problems(witness, inst["s"])
    if "r" in inst and any(m.bit_count() != inst["r"] for m in witness):
        problems.append(f"a witness member does not have {inst['r']} vertices")
    if inst["mode"] == "nonstar":
        if witness and _common(witness):
            problems.append("non-star witness has a common vertex")
    else:
        star = d["max_star"]["size"]
        if value < star:
            problems.append(f"value {value} is below the best full star {star}")
        if d["is_ekr"] != (value == star):
            problems.append("is_ekr disagrees with value and star size")
    return problems


def _verdict_item(item_id: str, run: Callable[[], object]) -> Item:
    def examine(out, solved, ms):
        d = out.to_dict()
        answer = verdict_answer(d)
        answer["optima"] = [None if r.all_optima is None else len(r.all_optima)
                            for _, r in solved]
        return [Outcome(item_id, answer, verdict_problems(d), ms)]
    return Item(item_id, run, examine)


def _check_ekr(ekr, g, label: str, mode: str, size, s: int) -> Item:
    V = ekr.verdicts
    where = f"r={size} " if mode == "uniform" else ""
    return _verdict_item(f"check_ekr {label} {mode} {where}s={s}",
                         lambda: V.check_ekr(g, mode, size, s))


def dense_search(ekr, seed: int) -> list[Item]:
    """check_ekr on dense suns: the clique search does the work.

    sun(12,4) r=6 is left out: at 16-22 s it would be a run's only pass,
    and a single pass cannot be timed steadily on a shared host."""
    G = ekr.graphs
    items = [_check_ekr(ekr, G.make_sun(n, t), f"sun({n},{t})", "uniform", r, s)
             for n, t, r, s in ((10, 4, 5, 1), (11, 4, 5, 1), (12, 4, 5, 1), (14, 3, 7, 2),
                                (16, 3, 8, 2), (12, 3, 6, 1), (13, 3, 6, 1))]
    items.append(_check_ekr(ekr, G.make_sun(8, 1), "sun(8,1)", "all-paths", None, 1))
    items.append(_check_ekr(ekr, G.make_cycle(11), "cycle(11)", "all-paths", None, 1))
    random.Random(seed).shuffle(items)
    return items


def optima_structure(ekr, seed: int) -> list[Item]:
    """Few nodes, many optima: classification and enumeration dominate."""
    G, V = ekr.graphs, ekr.verdicts
    items = []
    for n in range(10, 27):
        g = G.make_cycle(n)
        for r in range(3, n // 2 + 1):
            if 3 * r >= n + 3:
                items.append(_verdict_item(f"check_hm cycle({n}) r={r}",
                                           lambda g=g, r=r: V.check_hm(g, r)))
    for n in (18, 20, 22, 24):
        items.append(_check_ekr(ekr, G.make_cycle(n), f"cycle({n})", "uniform", n // 2, 1))
    random.Random(seed).shuffle(items)
    return items


# -- campaigns --------------------------------------------------------------

TREE_COUNT = 14


def _campaign_item(ekr, name: str, seeded: bool, **config) -> Item:
    C = ekr.campaign

    def run():
        report = C.run_campaign(C.CampaignConfig(**config))
        return report, C.emit_report(report, "json"), C.emit_report(report, "csv")

    def examine(out, solved, ms):
        report, as_json, as_csv = out
        outcomes = []
        for v in report["verdicts"]:
            tag = " ".join(f"{k}={v['instance'][k]}" for k in sorted(v["instance"]))
            outcomes.append(Outcome(f"{name} {tag}", verdict_answer(v), verdict_problems(v),
                                    v["runtime_ms"], seeded))
        summary = report["summary"]
        problems = []
        if json.loads(as_json) != report:
            problems.append("JSON report does not read back as the report")
        if as_csv.count("\n") != summary["points"] + 1:
            problems.append("CSV report does not have one row per point")
        expected = 2 if summary["oracle_mismatches"] or summary["construction_failures"] \
            else 3 if summary["limits_hit"] else 0
        if summary["exit_code"] != expected or summary["limits_hit"]:
            problems.append(f"exit code {summary['exit_code']}, limits hit {summary['limits_hit']}")
        answer = {"summary": summary, "skipped": report["skipped"]}
        outcomes.append(Outcome(f"{name} summary", answer, problems, None, seeded))
        return outcomes

    return Item(f"campaign {name}", run, examine)


def campaign_sweep(ekr, seed: int) -> list[Item]:
    """Thousands of cheap grid points: fixed per-point costs and report
    emission dominate, the search adds little."""
    thetas = [(2, 3, 3), (2, 7, 7), (3, 4, 5), (2, 4, 6), (3, 3, 3, 3), (4, 11, 11, 11)]
    # one campaign per tree size, each with its own TREE_COUNT seeds, so that
    # no two workload seeds share a tree
    items = [_campaign_item(ekr, f"trees-n{n}", True, kind="tree", n=[n],
                            tree_count=TREE_COUNT, s=[1, 2, 3],
                            seed=(seed * 5 + n - 10) * TREE_COUNT)
             for n in range(10, 15)]
    items += [
        _campaign_item(ekr, "cycles", False, kind="cycle", n=list(range(6, 17)), s=[1, 2]),
        _campaign_item(ekr, "suns-binomial", False, kind="sun", n=list(range(6, 11)),
                       t=[1, 2], s=[1, 2], sun_variant="binomial"),
        _campaign_item(ekr, "suns-squared", False, kind="sun", n=list(range(6, 11)),
                       t=[1, 2], s=[1, 2], sun_variant="squared"),
        _campaign_item(ekr, "thetas", False, kind="theta", a=thetas, s=[1]),
    ]
    random.Random(seed).shuffle(items)
    return items


# -- set systems ------------------------------------------------------------

PRIME_POWERS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                (13, 1), (2, 4), (17, 1), (19, 1), (23, 1))
ROTATIONS = ((7, (0, 1, 3)), (13, (0, 1, 3, 9)), (21, (3, 6, 7, 12, 14)),
             (31, (1, 5, 11, 24, 25, 27)))
RANDOM_FAMILIES = 160     # uniform families for min_transversal:
RANDOM_GROUND = 24        # 40 distinct 4-sets over 24 points each
RANDOM_K = 4
RANDOM_M = 40


def _solve_answer(res, witness) -> dict:
    return {"value": res.value, "witness": witness,
            "optima": None if res.all_optima is None else len(res.all_optima),
            "limits_hit": res.limits_hit, "infeasible": res.infeasible,
            "value_exact": res.value_exact, "uniform_optima": res.uniform_optima}


def _solve_item(item_id: str, run, problems: Callable[[object], list[str]],
                seeded: bool = False, points: bool = False) -> Item:
    """An item whose output is (family, SolveResult), or (family, None)
    when the family itself is the result.  points: the witness is a set
    of ground elements, not of member indices."""
    def examine(out, solved, ms):
        fam, res = out
        if res is None:
            answer = {"sets": [_elems(m) for m in fam.sets]}
        else:
            witness = list(res.witness) if points \
                else [_elems(fam.sets[i]) for i in res.witness]
            answer = _solve_answer(res, witness)
        return [Outcome(item_id, answer, problems(out), ms, seeded)]
    return Item(item_id, run, examine)


def _plane_problems(q: int):
    def problems(out):
        fam, _ = out
        lines = fam.sets
        if len(lines) != q * q + q + 1 or fam.ground != q * q + q + 1:
            return [f"PG({q}) has {len(lines)} lines over {fam.ground} points"]
        if any(m.bit_count() != q + 1 for m in lines):
            return [f"a line of PG({q}) does not have {q + 1} points"]
        if any((a & b).bit_count() != 1 for a, b in combinations(lines, 2)):
            return [f"two lines of PG({q}) do not meet in exactly one point"]
        return []
    return problems


def _construction_problems(q: int, size: int):
    def problems(out):
        fam, _ = out
        if len(fam.sets) != size:
            return [f"construction for q={q} has {len(fam.sets)} lines, not {size}"]
        return _meet_problems(list(fam.sets), 1) + _degree_problems(list(fam.sets), 2)
    return problems


def _witness_problems(cap: int | None, antichain: bool = False, value: int | None = None):
    """Checks on a member-index witness: intersecting, at the claimed
    size, element degree <= cap, no member inside another."""
    def problems(out):
        fam, res = out
        masks = [fam.sets[i] for i in res.witness]
        if res.limits_hit:
            return ["hit a search limit"]
        if len(masks) != res.value:
            return [f"witness has {len(masks)} members, value is {res.value}"]
        if value is not None and res.value != value:
            return [f"value {res.value}, expected {value}"]
        found = _meet_problems(masks, 1)
        if cap is not None:
            found += _degree_problems(masks, cap)
        if antichain and any((a & b) in (a, b) for a, b in combinations(masks, 2)):
            found.append("a witness member contains another")
        return found
    return problems


def _transversal_problems(value: int | None = None):
    def problems(out):
        fam, res = out
        if res.limits_hit:
            return ["hit a search limit"]
        if len(res.witness) != res.value:
            return [f"witness has {len(res.witness)} points, value is {res.value}"]
        if value is not None and res.value != value:
            return [f"transversal number {res.value}, expected {value}"]
        return _hits_problems(fam.sets, res.witness)
    return problems


def _helly_item(S, item_id: str, fam) -> Item:
    def examine(out, solved, ms):
        ok, triple = out
        problems = []
        if not ok:
            a, b, c = (fam.sets[i] for i in triple)
            if not (a & b and a & c and b & c) or a & b & c:
                problems.append("Helly counterexample is not pairwise intersecting "
                                "with an empty meet")
        return [Outcome(item_id, [ok, list(triple or ())], problems, ms)]
    return Item(item_id, lambda: S.helly_triple_check(fam), examine)


def set_systems(ekr, seed: int) -> list[Item]:
    """Projective planes, their triangular constructions, and the three
    non-clique searches (transversal, triangular, Sperner) plus Helly."""
    P, S, G, Pa, F = ekr.projective, ekr.solvers, ekr.graphs, ekr.paths, ekr.families
    items = []
    for p, k in PRIME_POWERS:
        q = p ** k
        items.append(_solve_item(f"build_pg q={q}",
                                 lambda p=p, k=k: (P.build_pg(P.make_field(p, k)).lines, None),
                                 _plane_problems(q)))
        make = (lambda p=p, k=k: (P.triangular_char2(P.make_field(p, k)), None)) if p == 2 \
            else (lambda p=p, k=k: (P.triangular_odd(P.make_field(p, k)), None))
        items.append(_solve_item(f"construction q={q}", make,
                                 _construction_problems(q, q + 2 if p == 2 else q + 1)))

    pg5 = P.build_pg(P.make_field(5, 1)).lines
    pg7 = P.build_pg(P.make_field(7, 1)).lines
    corner = 7 * 7 + 7                      # dense id of (w,w)
    pencil_free = F.SetFamily(ground=pg7.ground,
                              sets=tuple(m for m in pg7.sets if not (m >> corner) & 1))
    items.append(_solve_item("min_transversal PG(5)",
                             lambda: (pg5, S.min_transversal(pg5)), _transversal_problems(6), points=True))
    items.append(_solve_item("min_transversal PG(7) minus the pencil through (w,w)",
                             lambda: (pencil_free, S.min_transversal(pencil_free)),
                             _transversal_problems(), points=True))
    rng = random.Random(seed)
    for i in range(RANDOM_FAMILIES):
        sets: set[int] = set()
        while len(sets) < RANDOM_M:
            sets.add(_mask(rng.sample(range(RANDOM_GROUND), RANDOM_K)))
        fam = F.SetFamily(ground=RANDOM_GROUND, sets=tuple(sorted(sets)))
        items.append(_solve_item(f"min_transversal random seed={seed} #{i}",
                                 lambda fam=fam: (fam, S.min_transversal(fam)),
                                 _transversal_problems(), seeded=True, points=True))

    items.append(_solve_item("max_triangular_intersecting PG(5)",
                             lambda: (pg5, S.max_triangular_intersecting(pg5)),
                             _witness_problems(2, value=6)))
    for h, base in ROTATIONS:
        def run(h=h, base=base):
            fam = P.rotational_family(h, base)
            return fam, S.max_triangular_intersecting(fam)
        items.append(_solve_item(f"max_triangular_intersecting rotations({h},{base})",
                                 run, _witness_problems(2)))

    for n, t in ((5, 1), (6, 1), (7, 1), (8, 1), (5, 2), (6, 2)):
        fam = Pa.to_setfamily(Pa.enumerate_paths_all(G.make_sun(n, t)))
        items.append(_solve_item(f"max_intersecting_sperner sun({n},{t}) all-paths",
                                 lambda fam=fam: (fam, S.max_intersecting_sperner(fam)),
                                 _witness_problems(None, antichain=True)))
        items.append(_helly_item(S, f"helly_triple_check sun({n},{t}) all-paths", fam))
    random.Random(seed).shuffle(items)
    return items


WORKLOADS = {
    "dense-search": dense_search,
    "optima-structure": optima_structure,
    "campaign-sweep": campaign_sweep,
    "set-systems": set_systems,
}
