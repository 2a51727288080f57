"""Tests for the command-line interface."""

import pytest

from repro.cli import ENGINES, build_parser, main
from repro.core import FafnirConfig


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, type(parser._subparsers._group_actions[0]))
        )
        assert set(subparsers.choices) == {
            "lookup",
            "compare",
            "spmv",
            "pagerank",
            "hw",
            "validate",
            "experiments",
            "trace",
            "chaos",
            "serve",
            "reduce",
            "resilience",
            "cache",
        }

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (command, flag, value)
            for command in ("lookup", "compare", "trace")
            for flag, value in (
                ("--query-len", "17"),
                ("--query-len", "0"),
                ("--batch-size", "0"),
            )
        ]
        + [("hw", "--batch-size", "0")],
    )
    def test_rejects_out_of_range_batch_shape(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_accepts_the_configured_query_len(self):
        limit = str(FafnirConfig().max_query_len)
        args = build_parser().parse_args(["lookup", "--query-len", limit])
        assert args.query_len == FafnirConfig().max_query_len

    def test_engine_choices(self):
        assert set(ENGINES) == {
            "fafnir",
            "recnmp",
            "recnmp-cache",
            "tensordimm",
            "centaur",
            "cpu",
        }


class TestCommands:
    def test_lookup(self, capsys):
        assert main(["lookup", "--engine", "fafnir", "--batch-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "total latency" in out
        assert "DRAM reads" in out

    def test_lookup_recnmp_cache(self, capsys):
        assert main(["lookup", "--engine", "recnmp-cache", "--batch-size", "8"]) == 0
        assert "engine: recnmp-cache" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "--batch-size", "4", "--query-len", "8"]) == 0
        out = capsys.readouterr().out
        for engine in ("cpu", "tensordimm", "centaur", "recnmp", "fafnir"):
            assert engine in out

    def test_spmv(self, capsys):
        assert main(["spmv", "--kind", "stencil", "--size", "30"]) == 0
        out = capsys.readouterr().out
        assert "fafnir speedup" in out

    def test_pagerank(self, capsys):
        assert main(["pagerank", "--scale", "7", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "converged=True" in out

    def test_hw(self, capsys):
        assert main(["hw"]) == 0
        out = capsys.readouterr().out
        assert "system area" in out
        assert "FPGA utilization" in out

    def test_trace(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace",
                    "--batch-size",
                    "4",
                    "--query-len",
                    "4",
                    "--out",
                    str(out_path),
                    "--jsonl",
                    str(jsonl_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "reduces(events)" in out
        assert "MISMATCH" not in out
        document = json.loads(out_path.read_text())
        assert document["traceEvents"]
        assert {"ph", "ts", "pid", "name"} <= set(document["traceEvents"][-1])
        assert jsonl_path.read_text().strip()

    def test_chaos_quick(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "chaos.json"
        assert main(["chaos", "--seed", "0", "--quick", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "fault recovery report" in out
        assert "accounted" in out
        assert "p99 query latency" in out
        document = json.loads(out_path.read_text())
        assert document["traceEvents"]

    def test_serve_quick(self, capsys):
        assert main(["serve", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "serving sweep" in out
        assert "slo_attain" in out
        assert "dedup_savings" in out

    def test_serve_closed_loop_quick(self, capsys):
        assert main(["serve", "--quick", "--closed-loop", "--users", "16"]) == 0
        assert "closed-loop" in capsys.readouterr().out

    def test_reduce_quick(self, capsys):
        assert main(["reduce", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "reduction sweep" in out
        for name in ("gather", "recursive_doubling", "reduce_scatter"):
            assert name in out
        assert "all cells byte-identical" in out
        assert "DIVERGED" not in out

    def test_reduce_mean_operator_quick(self, capsys):
        assert main(["reduce", "--quick", "--operator", "mean"]) == 0
        assert "operator mean" in capsys.readouterr().out

    def test_resilience_quick_check(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "resilience.json"
        assert (
            main(
                [
                    "resilience",
                    "--quick",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "reduction resilience" in out
        assert "serving overload" in out
        assert "all resilience invariants held" in out
        assert "NO" not in out
        payload = json.loads(out_path.read_text())
        assert payload["failures"] == []
        assert payload["hedged_makespan"] <= payload["unhedged_makespan"]
        assert payload["hedge_wins"] >= 1
        assert payload["shed_fraction"] > 0.0
        assert payload["admitted_attainment"] >= payload["burst_attainment"]

    def test_resilience_min_attainment_floor(self, capsys):
        # An impossible floor must flip the exit code.
        assert (
            main(
                [
                    "resilience",
                    "--quick",
                    "--min-attainment",
                    "1.01",
                ]
            )
            == 1
        )
        assert "below floor" in capsys.readouterr().out

    def test_cache_quick(self, capsys):
        assert main(["cache", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "hot-index tier sweep" in out
        assert "dedup-only" in out
        assert "byte-identical" in out
        assert "NO" not in out

    def test_cache_check_quick(self, capsys):
        assert main(["cache", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "cache smoke passed" in out
        assert "uniform hit rate 0.000" in out

    def test_serve_with_cache(self, capsys):
        assert main(["serve", "--quick", "--cache-kb", "128"]) == 0
        out = capsys.readouterr().out
        assert "cache 128 KB/rank" in out
        assert "cache_hit" in out

    def test_serve_min_attainment_floor(self, capsys):
        # Far past capacity (~8.7M QPS) queueing delay accumulates with the
        # backlog, so with enough requests the SLO floor of 1.0 cannot hold.
        argv = ["serve", "--qps", "4e7", "--requests", "400", "--min-attainment", "1.0"]
        assert main(argv) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_serve_min_attainment_floor_holds_when_attainable(self, capsys):
        # The floor must not trip spuriously: well under capacity with a
        # modest floor, the same flag exits 0.
        argv = ["serve", "--quick", "--qps", "5e5", "--min-attainment", "0.5"]
        assert main(argv) == 0
        assert "FAIL" not in capsys.readouterr().out
