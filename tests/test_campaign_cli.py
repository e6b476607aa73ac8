import json

import pytest

from ekrlab import campaign, graphs, verdicts
from ekrlab.campaign import CampaignConfig, emit_report, parse_config, run_campaign
from ekrlab.cli import main
from ekrlab.families import parse_family
from ekrlab.graphs import parse_graph
from ekrlab.solvers import Limits


class TestConfigParsing:
    def test_ranges_and_lists(self):
        cfg = parse_config("kind = sun\nn = 6..8\nt = 0,2\ns = 1\nr = valid\n")
        assert cfg.n == [6, 7, 8] and cfg.t == [0, 2]

    def test_theta_tuples(self):
        cfg = parse_config("kind = theta\na = 2,3,3; 2,5,5\n")
        assert cfg.a == [(2, 3, 3), (2, 5, 5)]

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nkind = cycle  # trailing\nn = 5\n")
        assert cfg.kind == "cycle" and cfg.n == [5]

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config("frobnicate = 3\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_config("kind cycle\n")

    def test_descending_range(self):
        # an empty range would run no point and exit 0 as a clean campaign
        with pytest.raises(ValueError, match="range '9..6' is empty: 6 < 9"):
            parse_config("kind = cycle\nn = 9..6\n")
        assert parse_config("kind = cycle\nn = 6..6\n").n == [6]

    def test_negative_limits(self):
        for line in ("optima_cap = -1", "limit_nodes = -1"):
            with pytest.raises(ValueError, match=">= 0"):
                parse_config(f"kind = cycle\n{line}\n")
        cfg = parse_config("optima_cap = 0\nlimit_nodes = 0\n")
        assert (cfg.limit_nodes, cfg.optima_cap) == (0, 0)


class TestRunCampaign:
    def test_cycle_sweep_clean(self):
        cfg = CampaignConfig(kind="cycle", n=[6, 7, 8], s=[1], r="valid")
        report = run_campaign(cfg)
        assert report["summary"]["exit_code"] == 0
        assert report["summary"]["oracle_mismatches"] == 0
        assert report["summary"]["points"] == 4
        assert all(v["oracle"]["applicable"] for v in report["verdicts"])

    def test_empty_grid(self):
        cfg = CampaignConfig(kind="cycle", n=[6], s=[3], r="valid")
        report = run_campaign(cfg)
        assert report["summary"]["points"] == 0
        assert report["summary"]["skipped"] == 1
        assert report["summary"]["exit_code"] == 0

    def test_theta_sweep(self):
        cfg = CampaignConfig(kind="theta", a=[(2, 3, 3), (3, 3, 3)], s=[1], r="valid")
        report = run_campaign(cfg)
        assert report["summary"]["exit_code"] == 0
        assert report["summary"]["oracle_matches"] == report["summary"]["points"]
        # r = 9 is too long for theta(2,3,3) but not for theta(2,4,4); the
        # skip names the host it was skipped on
        cfg = CampaignConfig(kind="theta", a=[(2, 3, 3), (2, 4, 4)], s=[1], r=[9])
        report = run_campaign(cfg)
        assert report["summary"]["points"] == 1
        assert report["skipped"] == [{
            "instance": {"kind": "theta", "mode": "uniform", "s": 1, "a": [2, 3, 3], "r": 9},
            "reason": "need 1 <= r <= 7, got r=9",
        }]

    def test_hm_sweep(self):
        cfg = CampaignConfig(kind="cycle", check="hm", n=[9, 12], s=[1], r="valid")
        report = run_campaign(cfg)
        assert report["summary"]["exit_code"] == 0
        assert report["summary"]["oracle_matches"] == report["summary"]["points"]
        # the anchor structure pins every optimum strictly below r = n/2;
        # at r = n/2 free-form non-star optima appear
        for v in report["verdicts"]:
            if 2 * v["instance"]["r"] < v["instance"]["n"]:
                assert v["classification"] == "hm-structure"
            else:
                assert v["classification"] == "other"

    def test_limits_exit_code(self):
        cfg = CampaignConfig(kind="cycle", n=[8], s=[1], r=[4], limit_nodes=2)
        report = run_campaign(cfg)
        assert report["summary"]["exit_code"] == 3

    def test_mismatch_exit_code(self):
        # at r = s+2 with two pendant slots on distinct cycle vertices the
        # binomial pendant-pair reading disagrees with exhaustive search
        cfg = CampaignConfig(kind="sun", n=[8], t=[1], s=[2], r=[4],
                             sun_variant="binomial")
        report = run_campaign(cfg)
        assert report["summary"]["exit_code"] == 2
        assert report["summary"]["oracle_mismatches"] == 1
        cfg.sun_variant = "squared"
        report = run_campaign(cfg)
        assert report["summary"]["exit_code"] == 0
        assert CampaignConfig().sun_variant == "squared"

    def test_mismatch_outranks_limits(self):
        # one point that both mismatches (the binomial reading at r = s+2)
        # and hits a limit (a cap of 0 optima): the mismatch decides
        cfg = CampaignConfig(kind="sun", n=[8], t=[1], s=[2], r=[4],
                             sun_variant="binomial", optima_cap=0)
        summary = run_campaign(cfg)["summary"]
        assert (summary["oracle_mismatches"], summary["limits_hit"]) == (1, 1)
        assert summary["exit_code"] == 2

    def test_upto_and_all_paths_grids(self):
        # upto runs k = 1..n//2; all-paths is one point per instance and s
        cfg = CampaignConfig(kind="cycle", mode="upto", n=[6, 7], s=[1])
        report = run_campaign(cfg)
        assert [(v["instance"]["n"], v["instance"]["k"]) for v in report["verdicts"]] == \
            [(6, 1), (6, 2), (6, 3), (7, 1), (7, 2), (7, 3)]
        assert report["summary"]["exit_code"] == 0
        cfg = CampaignConfig(kind="sun", mode="all-paths", n=[5], t=[1], s=[1, 2])
        report = run_campaign(cfg)
        assert [v["instance"] for v in report["verdicts"]] == [
            {"kind": "sun", "mode": "all-paths", "s": s, "n": 5, "t": 1} for s in (1, 2)]
        assert [v["brute_value"] for v in report["verdicts"]] == [60, 48]
        assert report["summary"]["oracle_matches"] == 1
        assert report["summary"]["exit_code"] == 0

    def test_verdicts_are_the_direct_checks(self):
        # each point's verdict is the one check_ekr or check_hm gives on
        # the same point; a check = hm point whose r exceeds n is skipped
        sun, cycle = graphs.make_sun(6, 1), graphs.make_cycle(9)
        for cfg, direct, skipped in (
            (CampaignConfig(kind="sun", n=[6], t=[1], s=[1, 2], r=[3]),
             [verdicts.check_ekr(sun, "uniform", 3, s) for s in (1, 2)], []),
            (CampaignConfig(kind="sun", mode="all-paths", n=[6], t=[1], s=[1]),
             [verdicts.check_ekr(sun, "all-paths", None, 1)], []),
            (CampaignConfig(kind="cycle", n=[9], s=[1], r=[4], limit_nodes=3),
             [verdicts.check_ekr(cycle, "uniform", 4, 1, Limits(node_budget=3))], []),
            (CampaignConfig(kind="cycle", check="hm", n=[9], r=[3, 4, 12], optima_cap=1),
             [verdicts.check_hm(cycle, r, Limits(optima_cap=1)) for r in (3, 4)],
             [{"instance": {"kind": "cycle", "mode": "nonstar", "s": 1, "n": 9, "r": 12},
               "reason": "need 1 <= r <= 9, got r=12"}]),
        ):
            report = run_campaign(cfg)
            assert [{**v, "runtime_ms": 0} for v in report["verdicts"]] == \
                [{**v.to_dict(), "runtime_ms": 0} for v in direct]
            assert report["skipped"] == skipped

    def test_deterministic_apart_from_runtime(self):
        cfg = CampaignConfig(kind="sun", n=[6], t=[1], s=[1], r="valid")
        a = run_campaign(cfg)
        b = run_campaign(cfg)

        def strip(rep):
            rep = json.loads(json.dumps(rep))
            for v in rep["verdicts"]:
                v["runtime_ms"] = 0
            return rep

        assert strip(a) == strip(b)

    @staticmethod
    def _logged(monkeypatch):
        """Log each instance graph built and each verdict made, in order."""
        log = []

        def make_graph(kind, **params):
            log.append(("graph", params["n"]))
            return graphs.make_graph(kind, **params)

        def check_ekr(g, *args, **kwargs):
            log.append(("verdict", g.meta["n"]))
            return verdicts.check_ekr(g, *args, **kwargs)

        monkeypatch.setattr(campaign, "make_graph", make_graph)
        monkeypatch.setattr(campaign, "check_ekr", check_ekr)
        return log

    def test_instances_built_one_at_a_time(self, monkeypatch):
        # graph i+1 is built only after the last verdict on graph i, so a
        # graph and the families it keeps can go once its points are done
        log = self._logged(monkeypatch)
        report = run_campaign(CampaignConfig(kind="cycle", n=[6, 7, 8], s=[1, 2]))
        assert (report["summary"]["points"], report["summary"]["skipped"]) == (6, 1)
        assert log == [("graph", 6), ("verdict", 6),
                       ("graph", 7), ("verdict", 7), ("verdict", 7),
                       ("graph", 8), ("verdict", 8), ("verdict", 8), ("verdict", 8)]

    @pytest.mark.parametrize("cfg", [
        CampaignConfig(kind="wheel", n=[6]),
        CampaignConfig(kind="sun", check="hm", n=[6], t=[1]),
        CampaignConfig(kind="theta"),
        CampaignConfig(kind="cycle", check="hm", n=[10], s=[1, 2, 3]),
        CampaignConfig(kind="cycle", check="hm", n=[10], mode="upto"),
        CampaignConfig(kind="cycle", n=[]),
        CampaignConfig(kind="sun", n=[6], t=[]),
        CampaignConfig(kind="cycle", n=[6], s=[]),
        CampaignConfig(kind="cycle", n=[6], r=[]),
        CampaignConfig(kind="tree", n=[6], tree_count=0),
        CampaignConfig(kind="tree", n=[6], tree_count=-2),
        CampaignConfig(kind="cycle", n=[6], mode="all-paths", r=[3, 4, 5]),
    ], ids=["unknown-kind", "hm-off-cycles", "theta-without-strands", "hm-with-s",
            "hm-with-mode", "no-n", "no-t", "no-s", "no-r", "no-trees", "negative-trees",
            "all-paths-with-r"])
    def test_bad_config_raises_before_any_verdict(self, monkeypatch, cfg):
        log = self._logged(monkeypatch)
        with pytest.raises(ValueError):
            run_campaign(cfg)
        assert log == []


class TestEmitReport:
    def test_json_fields(self):
        cfg = CampaignConfig(kind="cycle", n=[6], s=[1], r="valid")
        report = run_campaign(cfg)
        text = emit_report(report, "json")
        parsed = json.loads(text)
        assert parsed["schema_version"] == 1
        assert parsed["tool"] == "ekrlab"
        assert {"seed", "limits", "verdicts", "summary"} <= set(parsed)
        v = parsed["verdicts"][0]
        for key in ("instance", "family_size", "max_star", "brute_value", "oracle",
                    "is_ekr", "is_strict", "classification", "witnesses",
                    "construction_ok", "runtime_ms", "limits_hit"):
            assert key in v

    def test_csv_row_count(self):
        cfg = CampaignConfig(kind="cycle", n=[6, 8], s=[1], r="valid")
        report = run_campaign(cfg)
        text = emit_report(report, "csv")
        assert len(text.strip().splitlines()) == report["summary"]["points"] + 1

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report({}, "xml")


class TestCli:
    def test_gen_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "--kind", "theta", "--a", "2,3,3",
                     "--out", str(out)]) == 0
        g = parse_graph(out.read_text())
        assert g.n == 7 and g.m == 8

    def test_paths_all_and_upto(self, tmp_path):
        gfile = tmp_path / "c6.txt"
        ffile = tmp_path / "paths.txt"
        assert main(["gen", "--kind", "cycle", "--n", "6", "--out", str(gfile)]) == 0
        # six paths of each order 1..6; of order 1 and 2 for --upto 2
        for flags, count in ((["--all"], 36), (["--upto", "2"], 12)):
            assert main(["paths", "--graph", str(gfile), *flags, "--out", str(ffile)]) == 0
            assert len(parse_family(ffile.read_text())) == count

    @pytest.mark.parametrize("flags", [["--r", "3", "--all"], ["--r", "3", "--upto", "2"],
                                       ["--upto", "2", "--all"], []])
    def test_paths_takes_exactly_one_size(self, flags, tmp_path, capsys):
        # argparse rejects the call with exit code 2 before any path is
        # walked; --r 3 --all used to write all 36 paths of cycle(6)
        gfile = tmp_path / "c6.txt"
        ffile = tmp_path / "paths.txt"
        assert main(["gen", "--kind", "cycle", "--n", "6", "--out", str(gfile)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["paths", "--graph", str(gfile), *flags, "--out", str(ffile)])
        assert exc.value.code == 2
        assert not ffile.exists()
        assert "--r" in capsys.readouterr().err

    def test_paths_and_solve(self, tmp_path):
        gfile = tmp_path / "c8.txt"
        ffile = tmp_path / "p3.txt"
        assert main(["gen", "--kind", "cycle", "--n", "8", "--out", str(gfile)]) == 0
        assert main(["paths", "--graph", str(gfile), "--r", "3",
                     "--out", str(ffile)]) == 0
        fam = parse_family(ffile.read_text())
        assert len(fam) == 8
        result = tmp_path / "res.json"
        assert main(["solve", "--family", str(ffile), "--op", "max-intersecting",
                     "--s", "1", "--out", str(result)]) == 0
        payload = json.loads(result.read_text())
        assert payload["value"] == 3 and not payload["limits_hit"]

    @pytest.mark.parametrize("header, key", [("# ground=3\n", "count"),
                                             ("# count=1\n", "ground")])
    def test_solve_rejects_a_header_without_a_field(self, header, key, tmp_path, capsys):
        ffile = tmp_path / "fam.txt"
        ffile.write_text(header + "0 1\n")
        assert main(["solve", "--family", str(ffile), "--op", "max-intersecting"]) == 1
        assert capsys.readouterr().err == f"error: family header lacks '{key}='\n"

    def test_solve_transversal(self, tmp_path):
        ffile = tmp_path / "fam.txt"
        ffile.write_text("# ground=7 count=7\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n"
                         "1 4 6\n2 3 6\n2 4 5\n")
        out = tmp_path / "res.json"
        assert main(["solve", "--family", str(ffile), "--op", "transversal",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        # the witness lists ground elements: the lex-least 3 points
        assert payload["value"] == 3 and payload["witness"] == [0, 1, 2]
        # elements beyond the member count must not be read as members
        ffile.write_text("# ground=10 count=2\n7 9\n8 9\n")
        assert main(["solve", "--family", str(ffile), "--op", "transversal",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 1 and payload["witness"] == [9]

    def test_solve_says_whether_the_value_is_exact(self, tmp_path):
        # 12 triples over 10 points, tau = 4: with no nodes the value is
        # the greedy bound; 6 nodes prove it, but do not certify the witness
        ffile = tmp_path / "fam.txt"
        ffile.write_text("# ground=10 count=12\n3 4 5\n4 5 6\n1 2 7\n2 3 7\n1 5 7\n"
                         "0 6 7\n0 2 8\n0 4 8\n4 5 8\n4 5 9\n1 6 9\n4 8 9\n")
        out = tmp_path / "res.json"
        payloads = {}
        for budget in ("0", "6", "1000"):
            code = main(["solve", "--family", str(ffile), "--op", "transversal",
                         "--limit-nodes", budget, "--out", str(out)])
            payloads[budget] = json.loads(out.read_text())
            assert code == (3 if payloads[budget]["limits_hit"] else 0)
            assert payloads[budget]["value"] == 4
        assert [(p["limits_hit"], p["value_exact"]) for p in payloads.values()] == \
            [(True, False), (True, True), (False, True)]
        assert payloads["1000"]["witness"] == [0, 1, 2, 4]

    def test_check_ekr_verdict(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["check-ekr", "--kind", "cycle", "--n", "8", "--mode", "uniform",
                     "--r", "3", "--s", "1", "--out", str(out)]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["brute_value"] == 3 and verdict["is_ekr"]

    def test_check_ekr_sun_variant_default(self, tmp_path):
        # r = s+2 = 4: the default squared bound matches the search (8),
        # the binomial reading undercounts (7)
        out = tmp_path / "v.json"
        args = ["check-ekr", "--kind", "sun", "--n", "8", "--t", "1", "--mode", "uniform",
                "--r", "4", "--s", "2", "--out", str(out)]
        assert main(args) == 0
        assert json.loads(out.read_text())["oracle"]["value"] == 8
        assert main(args + ["--sun-variant", "binomial"]) == 2
        assert json.loads(out.read_text())["oracle"]["value"] == 7

    def test_limit_exit_codes(self, tmp_path):
        out = tmp_path / "v.json"
        for argv in (["check-ekr", "--kind", "cycle", "--n", "8", "--r", "4"],
                     ["check-hm", "--n", "12", "--r", "5"]):
            assert main(argv + ["--limit-nodes", "1", "--out", str(out)]) == 3
            assert json.loads(out.read_text())["limits_hit"]

    def test_check_hm_verdict(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["check-hm", "--n", "12", "--r", "5", "--out", str(out)]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["brute_value"] == 3

    def test_check_hm_overrun_keeps_its_optimum(self, tmp_path):
        # cap 1: the budget runs out in the group-free sample pass before
        # its first clique; cap 0 is the maximum search, which proves the
        # value within the budget; either way the optimum is six r-windows
        out = tmp_path / "v.json"
        for cap, exact in (("1", False), ("0", True)):
            assert main(["check-hm", "--n", "12", "--r", "6", "--limit-nodes", "8",
                         "--optima-cap", cap, "--out", str(out)]) == 3
            verdict = json.loads(out.read_text())
            assert verdict["brute_value"] == 6 and verdict["value_exact"] is exact
            optimum = verdict["witnesses"]["optimum"]
            assert len(optimum) == 6 and all(len(window) == 6 for window in optimum)

    def test_pg_with_map(self, tmp_path):
        lines = tmp_path / "pg.txt"
        pmap = tmp_path / "map.txt"
        tri = tmp_path / "tri.txt"
        assert main(["pg", "--q", "4", "--out", str(lines), "--map-out", str(pmap),
                     "--construction", "char2", "--construction-out", str(tri)]) == 0
        fam = parse_family(lines.read_text())
        assert len(fam) == 21
        construction = parse_family(tri.read_text())
        assert len(construction) == 6
        assert len(pmap.read_text().splitlines()) == 22

    def test_pg_missing_construction_writes_nothing(self, tmp_path, capsys):
        # PG(4) has no odd-q construction: the error comes before the plane
        # is written, to stdout or to --out
        tri = tmp_path / "tri.txt"
        assert main(["pg", "--q", "4", "--construction", "odd",
                     "--construction-out", str(tri)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: construction for odd q")
        lines = tmp_path / "pg.txt"
        assert main(["pg", "--q", "3", "--out", str(lines), "--construction", "char2",
                     "--construction-out", str(tri)]) == 1
        assert not lines.exists() and not tri.exists()

    @pytest.mark.parametrize("construction", ["odd", "char2"])
    def test_pg_construction_needs_its_own_file(self, construction, tmp_path, capsys):
        # without --construction-out the construction would follow the plane
        # on one stream, and a second '# ground=' header does not parse
        assert main(["pg", "--q", "5" if construction == "odd" else "4",
                     "--construction", construction]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --construction needs --construction-out\n"

    def test_pg_rejects_non_prime_power(self, capsys):
        assert main(["pg", "--q", "6"]) == 1
        assert "error" in capsys.readouterr().err

    def test_campaign_end_to_end(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kind = cycle\nn = 6..8\ns = 1\nr = valid\nformat = json\n")
        out = tmp_path / "report.json"
        assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["oracle_mismatches"] == 0

    def test_campaign_csv(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kind = cycle\nn = 6\ns = 1\nr = valid\nformat = csv\n")
        out = tmp_path / "report.csv"
        assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().startswith("kind,")

    def test_campaign_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for config, message in (
            ("nonsense == broken\n", "config line 1: unknown key 'nonsense'"),
            ("check = hmm\n", "unknown check 'hmm'; expected one of ekr, hm"),
            ("mode = all_paths\n",
             "unknown mode 'all_paths'; expected one of uniform, upto, all-paths"),
            ("format = xml\n", "unknown format 'xml'; expected one of json, csv"),
            ("kind = sun\nsun_variant = square\n",
             "unknown sun_variant 'square'; expected one of binomial, squared"),
            ("optima_cap = -1\n", "need optima_cap >= 0, got -1"),
            ("limit_nodes = -5\n", "need node_budget >= 0, got -5"),
            ("kind = cycle\nn = 9..6\n", "range '9..6' is empty: 6 < 9"),
        ):
            cfg.write_text(config)
            assert main(["campaign", "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == f"config-error: {message}\n"

    @pytest.mark.parametrize("flag, name", [("--optima-cap", "optima_cap"),
                                            ("--limit-nodes", "node_budget")])
    def test_negative_limit_flags(self, flag, name, capsys):
        # a negative limit used to give a verdict from no data, with exit 0
        argv = ["check-ekr", "--kind", "cycle", "--n", "10", "--r", "4", flag, "-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need {name} >= 0, got -1\n"

    def test_gen_invalid_parameters(self, capsys):
        assert main(["gen", "--kind", "cycle", "--n", "2"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--kind", "cycle", "--n", "2"], "cycle needs n >= 3, got 2"),
        (["gen", "--kind", "sun", "--n", "5", "--t", "-1"], "sun needs t >= 0, got -1"),
        (["gen", "--kind", "theta"], "theta needs its strand lengths, e.g. --a 2,3,3"),
        (["gen", "--kind", "theta", "--a", "3,2"], "strand lengths must be sorted ascending"),
        (["gen", "--kind", "tree", "--n", "0"], "tree needs n >= 1, got 0"),
        (["check-ekr", "--kind", "theta", "--a", "2,x", "--r", "3"],
         "invalid literal for int() with base 10: 'x'"),
        (["check-ekr", "--kind", "theta", "--r", "3"],
         "theta needs its strand lengths, e.g. --a 2,3,3"),
    ])
    def test_graph_parameter_errors(self, argv, message, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("config, message", [
        ("kind = wheel\n", "unknown kind 'wheel'"),
        ("kind = theta\n", "theta campaigns need strand tuples under key 'a'"),
        ("kind = sun\nn = 2\n", "sun needs n >= 3, got 2"),
        ("kind = theta\na = 2,3,3\ncheck = hm\n",
         "check hm runs on cycles only, got kind 'theta'"),
        ("kind = sun\ncheck = hm\n", "check hm runs on cycles only, got kind 'sun'"),
        # check_hm fixes s = 1 and the uniform mode, so another s or mode
        # would repeat its points or go unrun
        ("check = hm\nn = 10\ns = 1,2,3\n", "check hm runs at s = 1 only, got s = 1,2,3"),
        ("check = hm\nn = 10\nmode = upto\n",
         "check hm runs in uniform mode only, got mode 'upto'"),
        # an empty list or no tree would run no point and exit 0
        ("n =\n", "no value under key 'n'"),
        ("s =\n", "no value under key 's'"),
        ("kind = sun\nt = ,\n", "no value under key 't'"),
        ("r = ,\n", "no value under key 'r'"),
        ("kind = tree\ntree_count = 0\n", "need tree_count >= 1, got 0"),
        ("kind = tree\ntree_count = -2\n", "need tree_count >= 1, got -2"),
        # the all-paths family does not depend on r, so each r would
        # repeat the point
        ("mode = all-paths\nr = 3,4,5\n", "all-paths mode takes no r"),
    ])
    def test_campaign_grid_errors(self, config, message, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        assert main(["campaign", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCliSolveOps:
    def _family_file(self, tmp_path):
        gfile = tmp_path / "c6.txt"
        ffile = tmp_path / "p3.txt"
        main(["gen", "--kind", "cycle", "--n", "6", "--out", str(gfile)])
        main(["paths", "--graph", str(gfile), "--r", "3", "--out", str(ffile)])
        return ffile

    def test_helly_op(self, tmp_path):
        out = tmp_path / "h.json"
        assert main(["solve", "--family", str(self._family_file(tmp_path)),
                     "--op", "helly", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["helly"] is False
        assert len(payload["counterexample"]) == 3

    def test_nonstar_op(self, tmp_path):
        out = tmp_path / "n.json"
        assert main(["solve", "--family", str(self._family_file(tmp_path)),
                     "--op", "nonstar", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == 3

    def test_nonstar_op_on_a_sun_within_a_small_budget(self, tmp_path):
        # the r=4 paths of sun(8,2): the non-star maximum is proven and
        # certified well inside 5,000 nodes
        gfile = tmp_path / "sun.txt"
        ffile = tmp_path / "p4.txt"
        out = tmp_path / "n.json"
        assert main(["gen", "--kind", "sun", "--n", "8", "--t", "2", "--out", str(gfile)]) == 0
        assert main(["paths", "--graph", str(gfile), "--r", "4", "--out", str(ffile)]) == 0
        assert main(["solve", "--family", str(ffile), "--op", "nonstar",
                     "--limit-nodes", "5000", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 8 and not payload["limits_hit"]

    def test_sperner_op(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["solve", "--family", str(self._family_file(tmp_path)),
                     "--op", "sperner", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 3 and payload["uniform_optima"] in (True, False)

    def test_triangular_op(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["solve", "--family", str(self._family_file(tmp_path)),
                     "--op", "triangular", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == 3
