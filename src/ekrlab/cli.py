"""Command line entry points: generate instances, enumerate paths, run
solvers, and launch verdict campaigns."""

from __future__ import annotations

import argparse
import sys

from . import campaign as campaign_mod
from .campaign import to_json
from .families import emit_family, parse_family
from .graphs import GraphError, ParseError, emit_graph, make_cycle, make_graph, \
    parse_graph
from .projective import FieldError, build_pg, emit_pg_map, field_of_order, \
    triangular_char2, triangular_odd
from .oracles import SUN_VARIANTS
from .solvers import DEFAULT_LIMITS, Limits, helly_triple_check, max_intersecting_sperner, \
    max_nonstar_s_intersecting, max_s_intersecting, max_triangular_intersecting, \
    min_transversal
from .verdicts import EXIT_CLEAN, EXIT_LIMITS, MODES, Verdict, build_family, check_ekr, \
    check_hm


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _graph_from_args(args: argparse.Namespace):
    a = ()
    if args.kind == "theta":
        if not args.a:
            raise GraphError("theta needs its strand lengths, e.g. --a 2,3,3")
        a = tuple(int(x) for x in args.a.split(","))
    return make_graph(args.kind, n=args.n, t=args.t, a=a, seed=args.seed)


def _cmd_gen(args: argparse.Namespace) -> int:
    _write(emit_graph(_graph_from_args(args)), args.out)
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    """argparse takes exactly one of --r, --upto and --all."""
    with open(args.graph) as fh:
        g = parse_graph(fh.read())
    if args.all:
        mode, size = "all-paths", None
    elif args.upto is not None:
        mode, size = "upto", args.upto
    else:
        mode, size = "uniform", args.r
    _write(emit_family(build_family(g, mode, size)), args.out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    with open(args.family) as fh:
        fam = parse_family(fh.read())
    limits = _limits(args)
    if args.op == "max-intersecting":
        res = max_s_intersecting(fam, args.s, limits)
    elif args.op == "nonstar":
        res = max_nonstar_s_intersecting(fam, args.s, limits)
    elif args.op == "transversal":
        res = min_transversal(fam, limits)
    elif args.op == "triangular":
        res = max_triangular_intersecting(fam, args.s, limits)
    elif args.op == "sperner":
        res = max_intersecting_sperner(fam, limits)
    elif args.op == "helly":
        ok, counterexample = helly_triple_check(fam)
        _write(to_json({"helly": ok, "counterexample": counterexample}), args.out)
        return 0
    else:
        raise ValueError(f"unknown op {args.op!r}")
    payload = {
        "op": args.op,
        "s": args.s,
        "value": res.value,
        # a transversal witness holds ground elements, not member indices
        "witness": list(res.witness) if args.op == "transversal"
        else [list(fam.member(i)) for i in res.witness],
        "nodes": res.nodes,
        "limits_hit": res.limits_hit,
        # false when a budget cut the search before the value was proven
        "value_exact": res.value_exact,
        "infeasible": res.infeasible,
    }
    if res.uniform_optima is not None:
        payload["uniform_optima"] = res.uniform_optima
    _write(to_json(payload), args.out)
    return EXIT_LIMITS if res.limits_hit else EXIT_CLEAN


def _cmd_check_ekr(args: argparse.Namespace) -> int:
    g = _graph_from_args(args)
    size = None if args.mode == "all-paths" else (args.k if args.mode == "upto" else args.r)
    verdict = check_ekr(g, args.mode, size, args.s, _limits(args),
                        sun_variant=args.sun_variant)
    return _emit_verdict(verdict, args.out)


def _cmd_check_hm(args: argparse.Namespace) -> int:
    return _emit_verdict(check_hm(make_cycle(args.n), args.r, _limits(args)), args.out)


def _emit_verdict(verdict: Verdict, out: str | None) -> int:
    """Write the verdict as JSON and exit with its exit code."""
    _write(to_json(verdict.to_dict()), out)
    return verdict.exit_code


def _cmd_pg(args: argparse.Namespace) -> int:
    """Every family is built before any is written, so a construction
    that does not exist for q leaves nothing half written."""
    if args.construction != "none" and args.construction_out is None:
        # a second family on the plane's stream would not parse back
        raise ValueError("--construction needs --construction-out")
    spec = field_of_order(args.q)
    fam = None
    if args.construction != "none":
        fam = triangular_odd(spec) if args.construction == "odd" \
            else triangular_char2(spec)
    plane = build_pg(spec)
    _write(emit_family(plane.lines), args.out)
    if args.map_out:
        _write(emit_pg_map(plane), args.map_out)
    if fam is not None:
        _write(emit_family(fam), args.construction_out)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        with open(args.config) as fh:
            cfg = campaign_mod.parse_config(fh.read())
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"config-error: {exc}\n")
        return 1
    if args.out is not None:
        cfg.out = args.out
    report = campaign_mod.run_campaign(cfg)
    text = campaign_mod.emit_report(report, cfg.format)
    _write(text, cfg.out)
    summary = report["summary"]
    sys.stderr.write(
        f"campaign: {summary['points']} points, {summary['skipped']} skipped, "
        f"{summary['oracle_matches']} oracle matches, "
        f"{summary['oracle_mismatches']} mismatches, "
        f"{summary['construction_failures']} construction failures, "
        f"{summary['limits_hit']} limit hits\n")
    return summary["exit_code"]


def _add_limit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--limit-nodes", type=int, default=DEFAULT_LIMITS.node_budget)
    p.add_argument("--optima-cap", type=int, default=DEFAULT_LIMITS.optima_cap)


def _limits(args: argparse.Namespace) -> Limits:
    """The Limits that the flags of _add_limit_args give."""
    return Limits(node_budget=args.limit_nodes, optima_cap=args.optima_cap)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ekrlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", required=True,
                       choices=("cycle", "sun", "theta", "tree"))
        p.add_argument("--n", type=int, default=6)
        p.add_argument("--t", type=int, default=0)
        p.add_argument("--a", type=str, default="",
                       help="theta strand lengths, e.g. 2,3,3")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="write a graph in the text format")
    add_graph_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("paths", help="enumerate paths of a graph file")
    p.add_argument("--graph", required=True)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--r", type=int)
    size.add_argument("--upto", type=int)
    size.add_argument("--all", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("solve", help="run an exact solver on a family file")
    p.add_argument("--family", required=True)
    p.add_argument("--op", required=True,
                   choices=("max-intersecting", "nonstar", "transversal",
                            "triangular", "sperner", "helly"))
    p.add_argument("--s", type=int, default=1)
    _add_limit_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check-ekr", help="brute force vs oracle on one instance")
    add_graph_args(p)
    p.add_argument("--mode", default="uniform", choices=MODES)
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--sun-variant", default="squared", choices=SUN_VARIANTS)
    _add_limit_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_ekr)

    p = sub.add_parser("check-hm", help="maximum non-star verdict on a cycle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_limit_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_hm)

    p = sub.add_parser("pg", help="emit a projective plane and constructions")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--map-out")
    p.add_argument("--construction", default="none",
                   choices=("none", "odd", "char2"))
    p.add_argument("--construction-out")
    p.set_defaults(func=_cmd_pg)

    p = sub.add_parser("campaign", help="run a parameter-grid campaign")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_campaign)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, ParseError, FieldError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
