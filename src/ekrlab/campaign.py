"""Parameter-grid campaigns over the verdict engine, with reproducible
machine-readable reports.

Config files are flat key = value text; ranges use 'a..b' with a <= b,
lists use commas, theta strand tuples are comma-separated ints joined
by semicolons.  Grid points outside generator preconditions are skipped
with a recorded reason.  A campaign exits with the gravest of its
verdicts' exit codes (Verdict.exit_code): 2 when any verdict has an
oracle-vs-brute mismatch or a failed construction predicate, otherwise 3
when any search hit its limits, otherwise 0.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from math import inf

from . import __version__
from .graphs import Graph, GraphError, make_graph
from .oracles import SUN_VARIANTS, hm_window, sun_window, theta_window
from .solvers import DEFAULT_LIMITS, Limits
from .verdicts import EXIT_CLEAN, EXIT_LIMITS, EXIT_MISMATCH, MODES, Verdict, \
    _instance_tag, check_ekr, check_hm, host_tag

SCHEMA_VERSION = 1

# the keys whose value is one of a fixed set of choices
CHOICES = {"check": ("ekr", "hm"), "mode": MODES, "format": ("json", "csv"),
           "sun_variant": SUN_VARIANTS}


@dataclass
class CampaignConfig:
    kind: str = "cycle"
    check: str = "ekr"                      # ekr | hm
    mode: str = "uniform"                   # uniform | upto | all-paths
    n: list[int] = field(default_factory=lambda: [6])
    t: list[int] = field(default_factory=lambda: [0])
    a: list[tuple[int, ...]] = field(default_factory=list)
    s: list[int] = field(default_factory=lambda: [1])
    r: list[int] | str = "valid"
    seed: int = 0
    tree_count: int = 1
    limit_nodes: int = DEFAULT_LIMITS.node_budget
    optima_cap: int = DEFAULT_LIMITS.optima_cap
    sun_variant: str = "squared"
    out: str | None = None
    format: str = "json"

    @property
    def limits(self) -> Limits:
        return Limits(node_budget=self.limit_nodes, optima_cap=self.optima_cap)


def _parse_ints(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = (int(end) for end in part.split(".."))
            if hi < lo:
                # an empty range would run no point and pass as a clean campaign
                raise ValueError(f"range {part!r} is empty: {hi} < {lo}")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(int(part))
    return out


def parse_config(text: str) -> CampaignConfig:
    cfg = CampaignConfig()
    known = {f for f in vars(cfg)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in ("n", "t", "s"):
            setattr(cfg, key, _parse_ints(val))
        elif key == "a":
            cfg.a = [tuple(_parse_ints(part)) for part in val.split(";") if part.strip()]
        elif key == "r":
            cfg.r = val if val == "valid" else _parse_ints(val)
        elif key in ("seed", "tree_count", "limit_nodes", "optima_cap"):
            setattr(cfg, key, int(val))
        else:
            setattr(cfg, key, val)
    for key, allowed in CHOICES.items():
        val = getattr(cfg, key)
        if val not in allowed:
            raise ValueError(f"unknown {key} {val!r}; expected one of {', '.join(allowed)}")
    cfg.limits  # raises on a negative node budget or optima cap
    return cfg


def _instances(cfg: CampaignConfig) -> Iterator[Graph]:
    """The campaign's instance graphs, each built when the loop reaches
    it, so that a graph and the path families it keeps are freed after
    its last grid point.  The config checks raise on the call, before
    any graph is built; a generator's own precondition (a cycle with
    n < 3, say) raises when the loop reaches that instance."""
    grids = {
        "cycle": [{"n": n} for n in cfg.n],
        "sun": [{"n": n, "t": t} for n in cfg.n for t in cfg.t],
        "theta": [{"a": a} for a in cfg.a],
        "tree": [{"n": n, "seed": cfg.seed + i} for n in cfg.n for i in range(cfg.tree_count)],
    }
    if cfg.kind not in grids:
        raise ValueError(f"unknown kind {cfg.kind!r}")
    # an empty list or no tree would run no point and pass as a clean campaign
    for key in ("n", "t", "s", "r"):
        if getattr(cfg, key) == []:
            raise ValueError(f"no value under key {key!r}")
    if cfg.tree_count < 1:
        raise ValueError(f"need tree_count >= 1, got {cfg.tree_count}")
    if cfg.check == "hm":
        if cfg.kind != "cycle":
            raise ValueError(f"check hm runs on cycles only, got kind {cfg.kind!r}")
        if cfg.s != [1]:
            raise ValueError(f"check hm runs at s = 1 only, got s = {','.join(map(str, cfg.s))}")
        if cfg.mode != "uniform":
            raise ValueError(f"check hm runs in uniform mode only, got mode {cfg.mode!r}")
    if cfg.kind == "theta" and not cfg.a:
        raise ValueError("theta campaigns need strand tuples under key 'a'")
    if cfg.mode == "all-paths" and cfg.r != "valid":  # each r would repeat the point
        raise ValueError("all-paths mode takes no r")
    return (make_graph(cfg.kind, **params) for params in grids[cfg.kind])


def _valid_r(cfg: CampaignConfig, g: Graph, s: int) -> list[int | None]:
    if cfg.check == "hm":
        return list(hm_window(g.meta["n"]))
    if cfg.mode == "all-paths":
        return [None]
    if g.kind in ("cycle", "sun"):
        n = g.meta["n"]
        if cfg.mode == "upto":
            return list(range(1, n // 2 + 1))
        return list(sun_window(n, s))
    if g.kind == "theta":
        return list(theta_window(g.meta["a"]))
    return list(range(1, g.n + 1))


def run_campaign(cfg: CampaignConfig) -> dict:
    """One verdict per grid point; returns the full report dict."""
    verdicts: list[Verdict] = []
    skipped: list[dict] = []
    mode = "nonstar" if cfg.check == "hm" else cfg.mode
    for g in _instances(cfg):
        for s in cfg.s:
            r_values = _valid_r(cfg, g, s) if cfg.r == "valid" else list(cfg.r)
            if not r_values:
                skipped.append({"instance": {**host_tag(g), "s": s},
                                "reason": "no admissible r for these parameters"})
                continue
            for r in r_values:
                try:
                    verdicts.append(check_hm(g, r, cfg.limits) if mode == "nonstar" else
                                    check_ekr(g, mode, r, s, cfg.limits,
                                              sun_variant=cfg.sun_variant))
                except GraphError as exc:
                    skipped.append({"instance": _instance_tag(g, mode, r, s),
                                    "reason": str(exc)})
    mismatches = sum(1 for v in verdicts if v.oracle_match is False)
    construction_failures = sum(1 for v in verdicts if v.construction_ok is False)
    limits_hit = sum(1 for v in verdicts if v.limits_hit)
    codes = {v.exit_code for v in verdicts}
    exit_code = next((c for c in (EXIT_MISMATCH, EXIT_LIMITS) if c in codes), EXIT_CLEAN)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "ekrlab",
        "tool_version": __version__,
        "seed": cfg.seed,
        "limits": {"node_budget": cfg.limit_nodes, "optima_cap": cfg.optima_cap},
        "config": {
            "kind": cfg.kind, "check": cfg.check, "mode": cfg.mode,
            "sun_variant": cfg.sun_variant,
        },
        "verdicts": [v.to_dict() for v in verdicts],
        "skipped": skipped,
        "summary": {
            "points": len(verdicts),
            "skipped": len(skipped),
            "oracle_matches": sum(1 for v in verdicts if v.oracle_match is True),
            "oracle_mismatches": mismatches,
            "construction_failures": construction_failures,
            "limits_hit": limits_hit,
            "exit_code": exit_code,
        },
    }


CSV_COLUMNS = (
    "kind", "n", "t", "a", "mode", "s", "r", "k", "family_size", "brute_value",
    "oracle_value", "oracle_applicable", "max_star_size", "is_ekr", "is_strict",
    "classification", "construction_ok", "limits_hit", "runtime_ms",
)


_encode_str = json.encoder.encode_basestring_ascii


def _scalar_text(x) -> str | None:
    """x as json writes it when x is a str, None, a bool, an int or a
    float; None otherwise."""
    if isinstance(x, str):
        return _encode_str(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == inf:
            return "Infinity"
        if x == -inf:
            return "-Infinity"
        return float.__repr__(x)
    return None


def _key_text(key) -> str:
    """A dict key as json writes it: a scalar's text, quoted."""
    text = key if isinstance(key, str) else _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _encode_str(text)


def _json(obj, nl: str) -> str:
    """obj as json.dumps writes it with indent 2, at the nesting whose
    line break and indent is nl.  The types json takes are disjoint
    apart from bool, an int, so the order of the tests does not change
    the text.  Plain int items and str keys, most of a report's tokens,
    are written without a call."""
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [int.__repr__(x) if type(x) is int else _json(x, inner) for x in obj]) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [(_encode_str(key) if type(key) is str else _key_text(key)) + ": "
             + (int.__repr__(val) if type(val) is int else _json(val, inner))
             for key, val in obj.items()]) + nl + "}"
    text = _scalar_text(obj)
    if text is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return text


def to_json(obj) -> str:
    """json.dumps(obj, indent=2) and a newline, byte for byte, with one
    join per container.  With an indent the standard library runs its
    pure-Python encoder, which yields every token through a chain of
    generators."""
    return _json(obj, "\n") + "\n"


def emit_report(report: dict, fmt: str = "json") -> str:
    """Serialize a campaign report with a stable field order."""
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for v in report["verdicts"]:
            row = dict(v["instance"])
            if "a" in row:
                row["a"] = "-".join(str(x) for x in row["a"])
            row.update({key: v[key] for key in CSV_COLUMNS if key in v})
            oracle = v["oracle"] or {"value": "", "applicable": ""}
            row["oracle_value"] = oracle["value"]
            row["oracle_applicable"] = oracle["applicable"]
            row["max_star_size"] = v["max_star"]["size"]
            writer.writerow(row)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")
