"""Unit tests for the command-line runner."""

import re

import pytest

from repro.cli import build_parser, main
from repro.engine import CACHE_DIR_ENV, configure_default_engine
from repro.experiments import REGISTRY

#: Every ``repro`` command; the experiments command runs whenever the
#: first argument names none of them.
COMMANDS = ("list", "results", "cache", "verify", "bench", "serve",
            "loadgen", "trace", "explore", "recommend")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig5" in out

    def test_default_is_list(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiments: nope" in err

    def test_run_single_experiment(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Nallatech" in out

    def test_run_multiple(self, capsys):
        assert main(["table3", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "Table 4" in out

    def test_csv_mode_table(self, capsys):
        assert main(["--csv", "table4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Unit,Source")

    def test_csv_mode_figure_bundle(self, capsys):
        assert main(["--csv", "fig6"]) == 0
        out = capsys.readouterr().out
        # all three panels exported (energy, resources, latency)
        assert sum(1 for line in out.splitlines() if line.startswith("b,")) == 3

    def test_results_writer(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = tmp_path / "artifacts"
        assert cli_main(["results", "--outdir", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        # every experiment leaves a .txt, tables/figures also leave CSVs
        assert "table1.txt" in files
        assert "table1.csv" in files
        assert "fig5_energy.csv" in files
        assert "sec4_2.txt" in files
        assert (out / "table1.csv").read_text().startswith("Precision,")

    def test_results_artifact_listing_is_sorted(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["results", "--outdir", str(out)]) == 0
        lines = [
            line.strip()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        ]
        assert lines == sorted(lines)


class TestCliEngine:
    """The --parallel/--cache-dir surface and the cache subcommand."""

    @pytest.fixture(autouse=True)
    def _isolate_engine_state(self, monkeypatch):
        # build_engine() publishes --cache-dir via the environment (for
        # pool workers) and resets the default engine; keep both from
        # leaking across tests.
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        yield
        import os

        os.environ.pop(CACHE_DIR_ENV, None)
        configure_default_engine(None)

    def test_parallel_output_matches_serial(self, capsys):
        assert main(["table1", "fig2a"]) == 0
        serial = capsys.readouterr().out
        assert main(["table1", "fig2a", "--parallel", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_engine_summary_on_stderr(self, capsys):
        assert main(["table3"]) == 0
        err = capsys.readouterr().err
        assert "engine: 1 job(s)" in err
        assert "miss(es)" in err

    def test_warm_cache_run_hits(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["table3", "table4", "--cache-dir", cache]) == 0
        cold = capsys.readouterr()
        assert "2 miss(es)" in cold.err
        assert main(["table3", "table4", "--cache-dir", cache]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # byte-identical rendering
        assert "2 hit(s)" in warm.err
        assert "100% hit rate" in warm.err

    def test_no_cache_flag_disables_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["table3", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["table3", "--cache-dir", cache, "--no-cache"]) == 0
        assert "0 hit(s)" in capsys.readouterr().err

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["table3", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "version" in out
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "entries:     0" in capsys.readouterr().out

    def test_cache_usage_error(self, capsys):
        assert main(["cache"]) == 2
        assert "usage: repro cache" in capsys.readouterr().err
        assert main(["cache", "defrost"]) == 2
        err = capsys.readouterr().err
        assert "repro cache" in err and "'defrost'" in err


class TestCliVerify:
    """The 'repro verify' differential-campaign subcommand."""

    @pytest.fixture(autouse=True)
    def _isolate_engine_state(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        yield
        import os

        os.environ.pop(CACHE_DIR_ENV, None)
        configure_default_engine(None)

    def test_scaled_campaign_passes(self, capsys):
        assert main(["verify", "--pairs", "800", "--chunk", "400"]) == 0
        captured = capsys.readouterr()
        assert "differential campaign" in captured.out
        assert "PASS" in captured.out
        assert "0 mismatches" in captured.out
        assert "engine:" in captured.err  # runs through repro.engine

    def test_format_and_op_selection(self, capsys):
        assert main(
            ["verify", "--formats", "fp48", "--ops", "mul",
             "--pairs", "400", "--chunk", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "fp48" in out
        assert "fp32" not in out

    def test_warm_cache_campaign_hits(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["verify", "--formats", "fp32", "--pairs", "400",
                "--chunk", "200", "--cache-dir", cache]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "100% hit rate" in warm.err

    def test_unknown_format_rejected(self, capsys):
        assert main(["verify", "--formats", "fp128"]) == 2
        assert "unknown formats" in capsys.readouterr().err

    def test_unknown_op_rejected(self, capsys):
        assert main(["verify", "--ops", "cbrt"]) == 2
        assert "unknown ops" in capsys.readouterr().err


class TestCliVerifyKernels:
    """The 'repro verify --kernels' stepped-vs-batched matrix."""

    @pytest.fixture(autouse=True)
    def _isolate_engine_state(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        yield
        import os

        os.environ.pop(CACHE_DIR_ENV, None)
        configure_default_engine(None)

    def test_kernel_matrix_passes(self, capsys):
        assert main(["verify", "--kernels"]) == 0
        captured = capsys.readouterr()
        assert "kernel differential matrix: PASS" in captured.out
        assert "RAW-hazard raise(s)" in captured.out
        assert "engine:" in captured.err  # runs through repro.engine

    def test_warm_cache_matrix_hits(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["verify", "--kernels", "--cache-dir", cache]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "100% hit rate" in warm.err


class TestCliBench:
    """The 'repro bench' machine-readable perf snapshot."""

    def test_bench_prints_summary(self, capsys):
        assert main(["bench", "--bench-sizes", "2,4", "--scan-sizes", "8",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "kernel bench" in out
        assert "matmul.stepped.fp32.n4" in out
        assert "matmul.batched.fp32.n8" in out
        assert "matmul.fma.fp32.n4" in out
        assert "batched_vs_stepped.fp32.n4" in out
        assert "fma_vs_batched.fp32.n4" in out

    def test_bench_writes_json_snapshot(self, tmp_path, capsys):
        import json

        from repro.bench import row_values

        path = tmp_path / "BENCH_kernel.json"
        assert main(["bench", "--bench-sizes", "2", "--scan-sizes", "",
                     "--repeats", "1", "--json", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        snapshot = json.loads(path.read_text())
        assert set(snapshot) == {"schema", "suite", "config", "context", "rows"}
        assert snapshot["schema"] == "repro-bench/2"
        assert snapshot["suite"] == "kernel"
        assert snapshot["config"]["sizes"] == [2]
        assert snapshot["config"]["scan_sizes"] == []
        values = row_values(snapshot)
        assert "matmul.stepped.fp32.n2" in values
        assert "matmul.batched.fp32.n2" in values
        assert "matmul.fma.fp32.n2" in values
        assert "batched_vs_stepped.fp32.n2" in values
        assert "fma_vs_batched.fp32.n2" in values

    def test_bench_rejects_bad_sizes(self, capsys):
        assert main(["bench", "--bench-sizes", "2,zap"]) == 2
        assert "--bench-sizes" in capsys.readouterr().err

    def test_bench_rejects_bad_repeats(self, capsys):
        assert main(["bench", "--repeats", "0"]) == 2
        assert "--repeats" in capsys.readouterr().err

    def test_bench_suite_flags_are_exclusive(self, capsys):
        assert main(["bench", "--lanes", "--service"]) == 2
        err = capsys.readouterr().err
        assert "--lanes" in err and "--service" in err
        assert "not allowed with" in err


class TestCliService:
    """The serve/loadgen subcommands and --version."""

    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_serve_rejects_invalid_config(self, capsys):
        assert main(["serve", "--max-batch", "0"]) == 2
        err = capsys.readouterr().err
        assert "max_batch" in err
        assert "REPRO_SERVE_MAX_BATCH" in err

    def test_serve_rejects_malformed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_QUEUE_DEPTH", "lots")
        assert main(["serve"]) == 2
        assert "REPRO_SERVE_QUEUE_DEPTH" in capsys.readouterr().err

    def test_loadgen_rejects_unknown_format(self, capsys):
        assert main(["loadgen", "--port", "1", "--format", "fp31"]) == 2
        assert "fp31" in capsys.readouterr().err

    def test_loadgen_reports_unreachable_server(self, capsys):
        # A port nothing listens on: transport failure, exit code 1.
        assert main(["loadgen", "--port", "1", "--requests", "4",
                     "--concurrency", "2", "--timeout", "10"]) == 1


class TestCommandTable:
    """One parser per command: an option it does not read is a usage error."""

    def test_table_holds_every_command(self):
        assert set(build_parser()[1]) == set(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert f"usage: repro {command}" in capsys.readouterr().out

    def test_experiments_help(self, capsys):
        assert main(["all", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--csv" in out and "--parallel" in out
        assert "--pairs" not in out

    def test_top_level_help_names_every_command(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in COMMANDS:
            assert re.search(rf"^ +{command}\b", out, re.M), command

    def test_command_names_are_not_experiment_names(self):
        assert not set(COMMANDS) & set(REGISTRY)

    @pytest.mark.parametrize("argv, flag", [
        (["table3", "--pairs", "0"], "--pairs"),
        (["bench", "--parallel", "2"], "--parallel"),
        (["list", "--csv"], "--csv"),
        (["explore", "--no-cache"], "--no-cache"),
        (["cache", "stats", "--stale"], "--stale"),
    ])
    def test_unread_option_is_a_usage_error(self, argv, flag, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err

    def test_cache_rejects_no_cache(self, tmp_path, capsys):
        # `cache` always has a directory to act on, so --no-cache is not
        # one of its options.
        argv = ["cache", "stats", "--cache-dir", str(tmp_path), "--no-cache"]
        assert main(argv) == 2
        assert "unrecognized arguments: --no-cache" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flags", [
        (["verify", "--kernels", "--formats", "nope", "--pairs", "5"],
         ["--formats", "--pairs"]),
        (["verify", "--ops", "add", "--kernels"], ["--ops"]),
        (["verify", "--kernels", "--chunk", "10"], ["--chunk"]),
        (["bench", "--lanes", "--bench-sizes", "2"], ["--bench-sizes"]),
        (["bench", "--lanes", "--scan-sizes", "8"], ["--scan-sizes"]),
        (["bench", "--service", "--bench-sizes", "2"], ["--bench-sizes"]),
        (["bench", "--service", "--scan-sizes", ""], ["--scan-sizes"]),
        (["bench", "--repeats", "1", "--service"], ["--repeats"]),
        (["bench", "--explore", "--bench-sizes", "2"], ["--bench-sizes"]),
        (["bench", "--explore", "--scan-sizes", "8"], ["--scan-sizes"]),
        (["bench", "--explore", "--seed", "1"], ["--seed"]),
    ])
    def test_option_unread_by_the_mode_is_a_usage_error(self, argv, flags,
                                                         capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        for flag in flags:
            assert flag in err

    @pytest.mark.parametrize("argv, flag", [
        (["all", "--parallel", "0"], "--parallel"),
        (["results", "--retries", "-1"], "--retries"),
        (["verify", "--pairs", "0"], "--pairs"),
        (["verify", "--chunk", "many"], "--chunk"),
        (["bench", "--scan-sizes", "8,-1"], "--scan-sizes"),
        (["recommend", "--block-sizes", "0"], "--block-sizes"),
    ])
    def test_range_checks_name_the_flag(self, argv, flag, capsys):
        assert main(argv) == 2
        assert f"argument {flag}" in capsys.readouterr().err
