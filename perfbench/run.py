"""ekrlab benchmark: one workload in one process, no threads.

    python3 perfbench/run.py --workload dense-search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ekrlab is imported from ./src and from
nowhere else.  Set-up (importing ekrlab afresh and generating the
workload's inputs) runs SETUP_REPEATS times, then once more before every
pass, which runs on that fresh import; setup_s is the median of all of
them.  Passes repeat while the next one is expected to end within
--seconds, with at least one.  Every answer is checked after its pass,
outside the timed region, against perfbench/answers.json and against
checks that do not trust the library.

Timing.  The host is shared, and its speed swings by up to a third,
within seconds and over whole runs alike.  So each item is timed next to
a fixed reference loop, run just before and just after it, and the gated
timings are in units of that loop ("ref").  wall_refs sums over items the
median over passes of item time / loop time; item_p50_refs is the median
over latency samples of the same ratio.  The same medians in ms (wall_s,
item_p50_ms, item_p90_ms) are printed too.

With --trace 1 untraced and traced passes alternate.  The per-layer
metrics come from the traced passes, the tracing overhead from both, and
the spans of the last traced pass go to .perfbench-out/.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Without a usable ./src/ekrlab the run exits with 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from probes import Probes, span_totals, dump_spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
ANSWERS = Path(__file__).resolve().parent / "answers.json"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5                       # at the start; one more before every pass


def load_ekrlab():
    """A fresh import of ekrlab from ./src, dropping any earlier one."""
    for name in [n for n in sys.modules if n == "ekrlab" or n.startswith("ekrlab.")]:
        del sys.modules[name]
    ekr = importlib.import_module("ekrlab")
    importlib.import_module("ekrlab.campaign")
    if Path(ekr.__file__).resolve().parent != ROOT / "src" / "ekrlab":
        raise ImportError(f"ekrlab was imported from {ekr.__file__}, not from ./src")
    return ekr


def set_up(workload: str, seed: int) -> tuple[float, list]:
    """One set-up, a fresh import of ekrlab plus the workload's items:
    (seconds it took, items)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    gc.collect()                        # a user's import starts without our garbage
    start = time.perf_counter()
    items = WORKLOADS[workload](load_ekrlab(), seed)
    return time.perf_counter() - start, items


def _reference_walk(masks: list[int], depth: int) -> int:
    if depth == 0:
        return 0
    rest = [m for m in masks if m & masks[0] == 0]
    pick = min(masks, key=lambda m: (m.bit_count(), m))
    return pick.bit_count() + _reference_walk(rest or masks[1:], depth - 1)


def reference_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes.  It does the kinds of
    work ekrlab's hot loops do: bit masks, list filters, min with a key,
    recursion and counting in a dict.  The collector is off, so the
    program's heap does not count."""
    gc.disable()
    try:
        start = time.perf_counter()
        masks = [(i * 2654435761) & 0xFFFFFFFFFFFF for i in range(1, 241)]
        counts: dict[int, int] = {}
        total = 0
        for i in range(0, 240, 16):
            total += _reference_walk(masks[i:] + masks[:i], 6)
            for m in masks:
                counts[m & 63] = counts.get(m & 63, 0) + 1
        return (time.perf_counter() - start) * 1000.0
    finally:
        gc.enable()


def run_pass(items, probes: Probes, traced: bool) -> list:
    """One timed pass: per item, (item, output, error, ms, solver results,
    mean ms of the reference loop run just before and just after it)."""
    probes.reset()
    probes.install(traced)
    records = []
    gc.collect()                        # the last pass's garbage is not this pass's cost
    try:
        ref = reference_ms()
        for i, item in enumerate(items):
            probes.item = i
            mark = len(probes.results)
            t0 = time.perf_counter()
            try:
                out, error = item.run(), None
            except Exception:           # an item that raises is a failed item
                out, error = None, traceback.format_exc(limit=4)
            ms = (time.perf_counter() - t0) * 1000.0
            after = reference_ms()
            records.append((item, out, error, ms, probes.results[mark:], (ref + after) / 2))
            ref = after
    finally:
        probes.uninstall()
    return records


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Samples:
    """Per key, the times seen over passes, in ms and as ratios to the
    reference loop run around each one."""

    def __init__(self) -> None:
        self.ms: dict[str, list[float]] = {}
        self.refs: dict[str, list[float]] = {}

    def add(self, key: str, ms: float, ref_ms: float) -> None:
        self.ms.setdefault(key, []).append(ms)
        self.refs.setdefault(key, []).append(ms / ref_ms)

    @staticmethod
    def medians(by_key: dict[str, list[float]]) -> list[float]:
        return [statistics.median(v) for v in by_key.values()]


def examine(records, latency: Samples) -> tuple[list, list[str]]:
    """(outcomes, errors) of one pass; latency samples go to latency."""
    outcomes, errors = [], []
    for item, out, error, ms, solved, ref in records:
        if error is not None:
            errors.append(f"{item.id}: raised\n{error}")
            continue
        try:
            found = item.examine(out, solved, ms)
        except Exception:               # e.g. an output whose schema lost a field
            errors.append(f"{item.id}: checking the output raised\n"
                          f"{traceback.format_exc(limit=4)}")
            continue
        for o in found:
            outcomes.append(o)
            if o.latency_ms is not None:
                latency.add(o.id, o.latency_ms, ref)
    return outcomes, errors


class Checker:
    """Compares each answer with the recorded one, and with the same
    answer in earlier passes of this run."""

    def __init__(self, workload: str, seed: int) -> None:
        recorded = json.loads(ANSWERS.read_text())
        self.recorded = recorded["answers"][workload]
        self.recorded_seed = recorded["seed"]
        self.seed = seed
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, outcomes, errors) -> None:
        self.attempted += len(outcomes) + len(errors)
        for message in errors:
            self.fail(message)
        for o in outcomes:
            got = digest(o.answer)
            problems = list(o.problems)
            want = self.recorded.get(o.id)
            if want is None and (not o.seeded or self.seed == self.recorded_seed):
                problems.append("no recorded answer")
            elif want is not None and got != want:
                problems.append("answer differs from the recorded one")
            if self.seen.setdefault(o.id, got) != got:
                problems.append("answer differs between passes")
            if problems:
                detail = json.dumps(o.answer, sort_keys=True)[:300]
                self.fail(f"{o.id}: {'; '.join(problems)} -- got {detail}")


def layer_metrics(probes: Probes) -> dict[str, float]:
    tot = span_totals(probes.spans)
    results = probes.results

    def nodes(name):
        return sum(r.nodes for n, r in results if n == name)

    optima = sum(len(r.all_optima) for _, r in results if r.all_optima is not None)
    enum_nodes = tot["solvers.enum"]["nodes"]
    return {
        "solvers.max_nodes": tot["solvers.max"]["nodes"],
        "solvers.max_ms": tot["solvers.max"]["ms"],
        "solvers.enum_nodes": enum_nodes,
        "solvers.enum_ms": tot["solvers.enum"]["ms"],
        "solvers.optima": optima,
        "solvers.optima_per_knode": optima * 1000.0 / enum_nodes if enum_nodes else 0.0,
        "solvers.nonstar_nodes": nodes("max_nonstar_s_intersecting"),
        "solvers.nonstar_ms": tot["solvers.nonstar"]["ms"],
        "verdicts.classify_ms": tot["verdicts.classify"]["ms"],
        "verdicts.classify_calls": tot["verdicts.classify"]["calls"],
        "paths.enum_ms": tot["paths.enum"]["ms"],
        "paths.members": tot["paths.enum"]["size"],
        "families.star_ms": tot["families.star"]["ms"],
        "families.star_calls": tot["families.star"]["calls"],
        "solvers.compat_ms": tot["solvers.compat"]["ms"],
        "solvers.compat_pairs": tot["solvers.compat"]["size"],
        "oracles.ms": tot["oracles"]["ms"],
        "graphs.build_ms": tot["graphs.build"]["ms"],
        "verdicts.self_ms": tot["verdicts.check"]["self_ms"],
        "campaign.self_ms": tot["campaign.run"]["self_ms"],
        "campaign.emit_ms": tot["campaign.emit"]["ms"],
        "campaign.report_bytes": tot["campaign.emit"]["size"],
        "solvers.transversal_nodes": nodes("min_transversal"),
        "solvers.transversal_ms": tot["solvers.transversal"]["ms"],
        "solvers.triangular_nodes": nodes("max_triangular_intersecting"),
        "solvers.triangular_ms": tot["solvers.triangular"]["ms"],
        "solvers.sperner_nodes": nodes("max_intersecting_sperner"),
        "solvers.sperner_ms": tot["solvers.sperner"]["ms"],
        "solvers.helly_ms": tot["solvers.helly"]["ms"],
        "projective.build_ms": tot["projective.build"]["ms"],
        "projective.construction_ms": tot["projective.construction"]["ms"],
        "solvers.limit_hits": sum(1 for _, r in results if r.limits_hit),
    }


UNITS = {"_ms": "ms", ".ms": "ms", "_s": "s", "_refs": "ref", "_mb": "MB", "_bytes": "B",
         "_pct": "%", "_per_knode": "1/knode"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setups = [set_up(args.workload, args.seed)[0] for _ in range(SETUP_REPEATS)]
    except ImportError as exc:
        print(f"run.py: cannot import ekrlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    checker = Checker(args.workload, args.seed)
    probes = Probes()
    modes = (False, True) if args.trace else (False,)
    item_times = {False: Samples(), True: Samples()}
    latency = Samples()
    layers, node_counts = [], set()
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in modes:
            # set-ups spread over the run, so that a slow spell at its start
            # does not decide setup_s; the pass runs on the fresh import
            seconds, items = set_up(args.workload, args.seed)
            setups.append(seconds)
            records = run_pass(items, probes, traced)
            for item, _, _, ms, _, ref in records:
                item_times[traced].add(item.id, ms, ref)
            outcomes, errors = examine(records, latency if not traced else Samples())
            del records
            checker.check(outcomes, errors)
            node_counts.add(sum(r.nodes for _, r in probes.results))
            if traced:
                layers.append(layer_metrics(probes))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    if len(node_counts) != 1:
        checker.fail(f"search_nodes differs between passes: {sorted(node_counts)}")
    untraced = item_times[False]
    wall_refs = sum(Samples.medians(untraced.refs))

    print(f"workload {args.workload}, seed {args.seed}: {rounds} round(s) of "
          f"{len(modes)} pass(es), {len(items)} items and {len(latency.ms)} latency "
          f"samples per pass")
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        traced_refs = sum(Samples.medians(item_times[True].refs))
        metrics["trace.wall_refs"] = traced_refs
        metrics["trace.untraced_wall_refs"] = wall_refs
        metrics["trace.overhead_pct"] = (traced_refs / wall_refs - 1.0) * 100.0
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "items": [item.id for item in items],
                                   "absent": probes.absent,
                                   "spans": dump_spans(probes.spans)}) + "\n")
        print(f"  spans of the last traced pass: {out.relative_to(ROOT)}")
        if probes.absent:
            print(f"  absent layers (reported as 0): {', '.join(probes.absent)}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_refs": wall_refs,
            "item_p50_refs": statistics.median(Samples.medians(latency.refs) or [0.0]),
            "search_nodes": max(node_counts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit_of(name)}")
    if not args.trace:
        samples = Samples.medians(latency.ms) or [0.0]
        print(f"  {'wall_s':28s} {sum(Samples.medians(untraced.ms)) / 1000.0:14.4f} s")
        print(f"  {'item_p50_ms':28s} {statistics.median(samples):14.4f} ms"
              f"   ({len(latency.ms)} samples)")
        if len(samples) >= 100:
            print(f"  {'item_p90_ms':28s} {statistics.quantiles(samples, n=10)[-1]:14.4f} ms")
    print(f"  {'fail_rate':28s} {checker.failed / max(checker.attempted, 1):14.4f} "
          f"({checker.failed} of {checker.attempted} items)")
    for message in checker.problems:
        print(f"  FAILED {message}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
