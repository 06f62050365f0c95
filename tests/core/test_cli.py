"""CLI tests: every subcommand parses and the cheap ones run."""

import pytest

from repro.cli import build_parser, main


class TestParser:

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("demo", "table1", "fig5", "fig6", "fig7",
                        "fig8", "ablations", "workloads", "recover",
                        "dlq"):
            args = parser.parse_args(
                [command] if command in ("demo", "table1", "workloads",
                                         "fig8", "recover", "dlq")
                else [command, "--sizes", "100"])
            assert callable(args.func)

    def test_recover_empty_sizes_skips_sweep(self):
        args = build_parser().parse_args(["recover", "--sizes"])
        assert args.sizes == []
        args = build_parser().parse_args(["recover"])
        assert args.sizes is None

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["make-coffee"])

    def test_sizes_parsing(self):
        args = build_parser().parse_args(
            ["fig5", "--sizes", "100", "200", "--publications", "5"])
        assert args.sizes == [100, 200]
        assert args.publications == 5


class TestExecution:

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "e100a1" in out and "zipf_all" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "roots" in out and "extsub4" in out

    def test_fig5_tiny(self, capsys):
        assert main(["fig5", "--sizes", "100", "200",
                     "--publications", "4"]) == 0
        out = capsys.readouterr().out
        assert "in-aes" in out and "200" in out

    def test_fig6_tiny(self, capsys):
        assert main(["fig6", "--sizes", "100",
                     "--publications", "4"]) == 0
        out = capsys.readouterr().out
        assert "e80a1zz100" in out

    def test_ablations_tiny(self, capsys):
        assert main(["ablations", "--sizes", "100", "200"]) == 0
        out = capsys.readouterr().out
        assert "poset" in out and "bloom" in out

    def test_recover_tiny(self, capsys):
        assert main(["recover", "--publications", "12",
                     "--mean-interval", "4", "--sizes"]) == 0
        out = capsys.readouterr().out
        assert "enclave deaths" in out
        assert "recovery metrics" in out
        assert "recovery latency" not in out   # sweep skipped

    def test_dlq_tiny(self, capsys):
        assert main(["dlq", "--publications", "3"]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "requeued 3" in out
        assert "dead letters now 0" in out


class TestHotpathCommands:

    def test_parser_registers_new_commands(self):
        parser = build_parser()
        for argv in (["hotpath", "--reduced"],
                     ["profile", "--top", "5"],
                     ["bench", "--list"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_bench_list(self, tmp_path, capsys):
        from repro.bench.export import record_bench
        record_bench("probe", {"v": 1}, directory=str(tmp_path))
        assert main(["bench", "--list", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "probe" in out and "python" in out

    def test_hotpath_gate_failure_propagates(self, tmp_path, capsys):
        assert main(["hotpath", "--reduced", "--record",
                     "--phase", "baseline", "--out", str(tmp_path),
                     "--require-aes-vs-reference", "1e9"]) == 1
        assert (tmp_path / "BENCH_hotpath.json").exists()

    def test_hotpath_matcher_gate_propagates(self, tmp_path, capsys):
        assert main(["hotpath", "--reduced", "--out", str(tmp_path),
                     "--require-matcher-speedup", "1e9"]) == 1
        assert "columnar matcher" in capsys.readouterr().err

    def test_hotpath_envelope_gate_propagates(self, tmp_path, capsys):
        assert main(["hotpath", "--reduced", "--out", str(tmp_path),
                     "--require-envelope-batch-vs-single", "1e9"]) == 1
        assert "open_many" in capsys.readouterr().err

    def test_profile_prints_stats_table(self, capsys):
        assert main(["profile", "--top", "5",
                     "--matcher-backend", "columnar"]) == 0
        out = capsys.readouterr().out
        # Summary line plus the pstats table.
        assert "envelopes/s" in out
        assert "(columnar)" in out
        assert "cumtime" in out


class TestIngressCommand:

    def test_ingress_parser_registered(self):
        args = build_parser().parse_args(
            ["ingress", "--reduced", "--record", "--seed", "9",
             "--matcher-backend", "forest"])
        assert callable(args.func)
        assert args.reduced and args.record
        assert args.matcher_backend == "forest"
        assert args.seed == 9

    def test_ingress_reduced_records_and_gates(self, tmp_path, capsys):
        assert main(["ingress", "--reduced", "--record",
                     "--out", str(tmp_path), "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "closed-loop capacity" in out
        assert "conservation exact at every point: True" in out
        assert (tmp_path / "BENCH_ingress.json").exists()


class TestChurnCommand:

    def test_churn_parser_registered(self):
        args = build_parser().parse_args(
            ["churn", "--seed", "7", "--clients", "3",
             "--publications", "4", "--record"])
        assert callable(args.func)
        assert args.seed == 7 and args.record

    def test_churn_tiny_records_and_gates(self, tmp_path, capsys):
        assert main(["churn", "--seed", "7", "--clients", "3",
                     "--publications", "3", "--record",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "membership chaos" in out
        assert "zero lost: True" in out
        assert (tmp_path / "BENCH_churn.json").exists()
