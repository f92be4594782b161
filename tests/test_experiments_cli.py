"""Tests for the experiment CLI."""

import json

import pytest

from repro.experiments.cli import build_parser, build_serve_parser, main


class TestParser:
    def test_experiment_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.requests is None
        assert args.seed == 2019
        assert args.roundings == 1000

    def test_request_sweep(self):
        args = build_parser().parse_args(["fig5", "--requests", "10", "20"])
        assert args.requests == [10, 20]


class TestMain:
    def test_fig3_no_opt_smoke(self, capsys):
        code = main(
            ["fig3", "--requests", "12", "--theta", "2", "--no-opt", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "Metis" in out

    def test_fig4b_smoke(self, capsys):
        code = main(
            ["fig4b", "--requests", "10", "--roundings", "5", "--seed", "1"]
        )
        assert code == 0
        assert "ratio_mean" in capsys.readouterr().out

    def test_markdown_output(self, tmp_path, capsys):
        report = tmp_path / "out.md"
        code = main(
            [
                "fig3",
                "--requests",
                "10",
                "--theta",
                "2",
                "--no-opt",
                "--output",
                str(report),
            ]
        )
        assert code == 0
        assert report.exists()
        assert "## fig3" in report.read_text()


class TestServe:
    def test_serve_parser_defaults(self):
        args = build_serve_parser().parse_args([])
        assert args.topology == "b4"
        assert args.duration == 12
        assert args.workers == 0
        assert args.cache_size == 1024

    def test_serve_smoke(self, capsys):
        code = main(
            [
                "serve",
                "--topology",
                "sub-b4",
                "--duration",
                "6",
                "--requests",
                "8",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve: sub-b4" in out
        assert "decisions/sec" in out
        assert "cache hit rate" in out

    def test_serve_telemetry_dump(self, tmp_path, capsys):
        out_path = tmp_path / "telemetry.json"
        code = main(
            [
                "serve",
                "--topology",
                "sub-b4",
                "--duration",
                "6",
                "--requests",
                "5",
                "--seed",
                "2",
                "--telemetry",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["cycles"] == 1
        assert "latency_p95_ms" in payload["summary"]

    def test_serve_trace_replay(self, tmp_path, capsys):
        from repro.net.topologies import sub_b4
        from repro.workload.generator import WorkloadConfig, generate_workload
        from repro.workload.traces import save_trace_jsonl

        workload = generate_workload(
            sub_b4(), WorkloadConfig(num_requests=6, num_slots=6), rng=4
        )
        trace = tmp_path / "trace.jsonl"
        save_trace_jsonl(workload, workload.num_slots, trace)
        code = main(
            [
                "serve",
                "--topology",
                "sub-b4",
                "--cycles",
                "2",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cycle(s)" in out

    def test_serve_bad_topology_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--topology", "nope"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--time-limit", "-1"],
            ["--time-limit", "0"],
            ["--time-limit", "nan"],
            ["--breaker-reset", "nan"],
            ["--breaker-reset", "-1"],
            ["--queue-capacity", "0"],
            ["--max-batch", "0"],
        ],
    )
    @pytest.mark.parametrize("listen", [[], ["--listen", "127.0.0.1:0"]])
    def test_serve_rejects_bad_limits_as_usage_errors(self, flags, listen, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--topology", "sub-b4", "--cycles", "1", *listen, *flags])
        assert excinfo.value.code == 2
        field = flags[0].lstrip("-").replace("-", "_")
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,fields",
        [
            ([], ("breaker_failures", "workers")),
            (["--shards", "2"], ("breaker_failures", "workers", "cycle_budget")),
        ],
    )
    def test_serve_refuses_a_breaker_the_pool_never_reads(
        self, flags, fields, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "serve", "--topology", "sub-b4", "--cycles", "2",
                    "--duration", "4", "--requests", "6", "--workers", "2",
                    "--breaker-failures", "3", *flags,
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert all(field in err for field in fields)

    def test_serve_listen_accepts_an_immediate_breaker_probe(self, capsys):
        # --breaker-reset follows one rule (>= 0) in both modes.
        code = main(
            [
                "serve", "--listen", "127.0.0.1:0", "--topology", "sub-b4",
                "--duration", "1", "--cycles", "1", "--slot-seconds", "0.02",
                "--breaker-failures", "1", "--breaker-reset", "0",
            ]
        )
        assert code == 0
        assert "gateway: sub-b4, 1 cycle(s) served" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "4"],
            ["--trace", "/nonexistent.jsonl"],
            ["--requests", "100"],
            ["--seed", "2019"],
        ],
    )
    def test_serve_listen_refuses_broker_only_flags(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--listen", "127.0.0.1:0", "--cycles", "1", *flags])
        assert excinfo.value.code == 2
        assert f"{flags[0]} is not supported with --listen" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--slot-seconds", "1.0"], ["--conn-buffer", "4096"]]
    )
    def test_serve_broker_refuses_gateway_only_flags(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--topology", "sub-b4", "--requests", "4", *flags])
        assert excinfo.value.code == 2
        assert f"{flags[0]} requires --listen" in capsys.readouterr().err

    @pytest.mark.parametrize("listen", [[], ["--listen", "127.0.0.1:0"]])
    @pytest.mark.parametrize("shards", [[], ["--shards", "1"]])
    def test_serve_refuses_partition_without_shards(self, listen, shards, capsys):
        argv = ["serve", "--topology", "sub-b4", "--cycles", "1", "--duration", "2"]
        if not listen:
            argv += ["--requests", "4"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *listen, *shards, "--partition", "region"])
        assert excinfo.value.code == 2
        assert "--partition requires --shards > 1" in capsys.readouterr().err

    def test_serve_accepts_partition_with_shards(self, capsys):
        code = main(
            [
                "serve", "--topology", "sub-b4", "--cycles", "1", "--duration", "2",
                "--requests", "4", "--shards", "2", "--partition", "region",
            ]
        )
        assert code == 0
        assert "shards 2 (region)" in capsys.readouterr().out
