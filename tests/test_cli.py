"""Tests for the command-line interface."""

import pytest

import repro.cli
from repro.cli import build_parser, main


def usage_error(argv, capsys) -> str:
    """Run ``main(argv)``, require a usage error (exit status 2, no
    traceback) and return its stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "142" in out

    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "gpt-4o" in out and "paligemma" in out

    def test_evaluate(self, capsys):
        assert main(["evaluate", "--model", "kosmos-2"]) == 0
        out = capsys.readouterr().out
        assert "pass@1" in out

    def test_evaluate_challenge(self, capsys):
        assert main(["evaluate", "--model", "kosmos-2",
                     "--challenge"]) == 0
        assert "no_choice" in capsys.readouterr().out

    def test_table2_subset(self, capsys):
        assert main(["table2", "--models", "kosmos-2", "paligemma"]) == 0
        out = capsys.readouterr().out
        assert "kosmos-2" in out

    def test_resolution(self, capsys):
        assert main(["resolution", "--factors", "1", "16"]) == 0
        out = capsys.readouterr().out
        assert "16x" in out

    def test_resolution_parallel_workers(self, capsys):
        assert main(["resolution", "--factors", "1", "16",
                     "--workers", "2"]) == 0
        assert "16x" in capsys.readouterr().out

    def test_table2_parallel_with_checkpoints(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["table2", "--models", "kosmos-2", "paligemma",
                     "--workers", "4", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "kosmos-2" in out
        assert "run artifacts" in out
        checkpoints = sorted(p.name for p in run_dir.glob("*.jsonl"))
        assert len(checkpoints) == 4  # 2 models x 2 settings
        assert (run_dir / "manifest.json").exists()
        # a second invocation resumes from the checkpoints
        assert main(["table2", "--models", "kosmos-2", "paligemma",
                     "--run-dir", str(run_dir)]) == 0
        import json

        manifest = json.loads(
            (run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["totals"]["resumed"] == 4

    def test_resolution_bad_category(self):
        with pytest.raises(SystemExit):
            main(["resolution", "--category", "Quantum"])

    def test_table2_cache_stats(self, capsys):
        assert main(["table2", "--models", "kosmos-2",
                     "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "perception" in out and "render" in out

    def test_resolution_cache_stats(self, capsys):
        assert main(["resolution", "--factors", "1", "8",
                     "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "legibility" in out and "hit rate" in out

    def test_composition(self, capsys):
        assert main(["composition"]) == 0
        assert "Digital Design" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "gpt-4o", "kosmos-2"]) == 0
        assert "McNemar" in capsys.readouterr().out

    def test_export_dataset(self, tmp_path, capsys):
        out = tmp_path / "chipvqa.jsonl"
        assert main(["export-dataset", "--out", str(out)]) == 0
        assert out.exists()
        assert len(out.read_text().splitlines()) == 142

    def test_export_figures(self, tmp_path, capsys):
        assert main(["export-figures", "--out", str(tmp_path),
                     "--limit", "2"]) == 0
        assert len(list(tmp_path.glob("*.pgm"))) == 2

    def test_show_question(self, capsys):
        assert main(["show", "dig-08"]) == 0
        out = capsys.readouterr().out
        assert "worked solution" in out
        assert "4.6" in out

    def test_show_unknown_qid(self):
        with pytest.raises(SystemExit):
            main(["show", "nope-99"])

    def test_show_with_figure(self, tmp_path, capsys):
        path = tmp_path / "fig.pgm"
        assert main(["show", "mfg-01", "--figure", str(path)]) == 0
        assert path.exists()


class TestBackendFlags:
    def test_table2_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--backend", "gpu"])

    def test_table2_backend_matches_default(self, capsys):
        """Selecting a backend explicitly changes execution only, not
        the published table."""
        assert main(["table2", "--models", "kosmos-2"]) == 0
        default_out = capsys.readouterr().out
        for backend in ("serial", "thread"):
            assert main(["table2", "--models", "kosmos-2",
                         "--backend", backend, "--workers", "2"]) == 0
            out = capsys.readouterr().out
            assert "kosmos-2" in out
            table = [line for line in out.splitlines()
                     if "kosmos-2" in line]
            assert table == [line for line in default_out.splitlines()
                             if "kosmos-2" in line]

    def test_resolution_accepts_backend(self, capsys):
        assert main(["resolution", "--factors", "1", "16",
                     "--backend", "thread", "--workers", "2"]) == 0
        assert "16x" in capsys.readouterr().out

    def test_workers_clamped_to_cpu_count(self, capsys, monkeypatch):
        monkeypatch.setattr(repro.cli.os, "cpu_count", lambda: 2)
        assert main(["table2", "--models", "kosmos-2",
                     "--workers", "8"]) == 0
        out = capsys.readouterr().out
        assert ("warning: --workers 8 exceeds this machine's 2 CPU(s); "
                "using 2") in out
        assert "kosmos-2" in out

    def test_workers_within_cpu_count_stay_silent(self, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(repro.cli.os, "cpu_count", lambda: 8)
        assert main(["table2", "--models", "kosmos-2",
                     "--workers", "2"]) == 0
        assert "warning:" not in capsys.readouterr().out


class TestProviderFlags:
    def test_table2_rejects_unknown_provider(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["table2", "--provider", "quantum"])

    def test_table2_remote_provider_matches_local(self, capsys):
        """A healthy remote stub changes transport only, not the table."""
        assert main(["table2", "--models", "kosmos-2"]) == 0
        local_out = capsys.readouterr().out
        assert main(["table2", "--models", "kosmos-2",
                     "--provider", "remote"]) == 0
        assert capsys.readouterr().out == local_out

    def test_table2_flaky_remote_recovers_via_retry(self, tmp_path,
                                                    capsys):
        """Injected transient failures are absorbed by the runner's
        retry path; the sweep still completes with full artifacts."""
        run_dir = tmp_path / "run"
        assert main(["table2", "--models", "kosmos-2",
                     "--provider", "remote", "--failure-rate", "1.0",
                     "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "kosmos-2" in out
        assert len(list(run_dir.glob("*.jsonl"))) == 2


class TestResilienceFlags:
    def test_table2_accepts_resilience_flags(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["table2", "--models", "kosmos-2",
                     "--run-dir", str(run_dir), "--quarantine",
                     "--breaker", "3", "--deadline", "600"]) == 0
        out = capsys.readouterr().out
        assert "kosmos-2" in out
        # healthy run: none of the resilience warnings fire
        assert "warning:" not in out

    def test_table2_warns_about_corrupt_checkpoint(self, tmp_path,
                                                   capsys):
        run_dir = tmp_path / "run"
        assert main(["table2", "--models", "kosmos-2",
                     "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        victim = sorted(run_dir.glob("*.jsonl"))[0]
        victim.write_bytes(
            victim.read_bytes().replace(b'"correct"', b'"cXrrect"', 1))
        assert main(["table2", "--models", "kosmos-2",
                     "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "warning: 1 corrupt checkpoint(s)" in out


class TestFleetFlags:
    def test_table2_nodes_matches_single_runner(self, tmp_path, capsys,
                                                monkeypatch):
        """A coordinated fleet changes execution only, not the table —
        and leaves commit-log + coordinator-manifest artifacts."""
        # Inline nodes are threads; let the fleet keep 2 nodes even on
        # a 1-CPU machine rather than being clamped down.
        monkeypatch.setattr(repro.cli.os, "cpu_count", lambda: 2)
        assert main(["table2", "--models", "kosmos-2", "paligemma"]) == 0
        solo_out = capsys.readouterr().out
        run_dir = tmp_path / "run"
        assert main(["table2", "--models", "kosmos-2", "paligemma",
                     "--nodes", "2", "--run-dir", str(run_dir),
                     "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if "kosmos-2" in line] \
            == [line for line in solo_out.splitlines()
                if "kosmos-2" in line]
        assert "fleet counter" in out
        assert "nodes_lost" in out
        assert (run_dir / "commits.jsonl").exists()
        import json

        manifest = json.loads(
            (run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["coordinator"]["nodes"] == 2
        assert manifest["coordinator"]["nodes_lost"] == 0
        # verify-run audits the commit log alongside the checkpoints
        assert main(["verify-run", str(run_dir)]) == 0
        assert "commits.jsonl" in capsys.readouterr().out

    def test_nodes_and_workers_are_exclusive(self, capsys):
        err = usage_error(["table2", "--models", "kosmos-2",
                           "--nodes", "2", "--workers", "2"], capsys)
        assert "exclusive" in err

    def test_nodes_rejects_thread_backend(self, capsys):
        err = usage_error(["table2", "--models", "kosmos-2",
                           "--nodes", "2", "--backend", "thread"], capsys)
        assert "inline nodes" in err

    def test_nodes_below_one_is_a_hard_error(self, capsys):
        """There is no fleet of zero nodes to substitute: a usage
        error, like every other count below 1."""
        err = usage_error(["table2", "--models", "kosmos-2",
                           "--nodes", "0"], capsys)
        assert "--nodes: must be >= 1 (got 0)" in err

    def test_nodes_negative_is_a_hard_error(self, capsys):
        err = usage_error(["table2", "--models", "kosmos-2",
                           "--nodes=-3"], capsys)
        assert "--nodes: must be >= 1 (got -3)" in err

    def test_nodes_clamped_to_cpu_count(self, capsys, monkeypatch):
        monkeypatch.setattr(repro.cli.os, "cpu_count", lambda: 2)
        assert main(["table2", "--models", "kosmos-2",
                     "--nodes", "8"]) == 0
        out = capsys.readouterr().out
        assert ("warning: --nodes 8 exceeds this machine's 2 CPU(s); "
                "using 2") in out
        assert "kosmos-2" in out

    def test_nodes_within_cpu_count_stay_silent(self, capsys,
                                                monkeypatch):
        monkeypatch.setattr(repro.cli.os, "cpu_count", lambda: 8)
        assert main(["table2", "--models", "kosmos-2",
                     "--nodes", "2"]) == 0
        assert "warning:" not in capsys.readouterr().out

    def test_breaker_cooldown_requires_breaker(self, capsys):
        err = usage_error(["table2", "--models", "kosmos-2",
                           "--breaker-cooldown", "5"], capsys)
        assert "--breaker-cooldown requires --breaker" in err

    def test_breaker_cooldown_with_breaker_accepted(self, capsys):
        assert main(["table2", "--models", "kosmos-2",
                     "--breaker", "3", "--breaker-cooldown", "5"]) == 0
        assert "kosmos-2" in capsys.readouterr().out


class TestUnknownModels:
    """An unknown model name is a usage error (exit status 2) that
    lists the known names, never a KeyError traceback."""

    @pytest.mark.parametrize("argv", [
        ["table2", "--models", "nosuch"],
        ["table2", "--models", "nosuch", "--limit", "142"],
        ["table2", "--models", "nosuch", "--nodes", "2"],
        ["resolution", "--model", "nosuch"],
        ["evaluate", "--model", "nosuch"],
        ["compare", "nosuch", "gpt-4o"],
    ], ids=["table2", "table2-scaled", "table2-nodes", "resolution",
            "evaluate", "compare"])
    def test_exits_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert "nosuch" in errors[0]
        assert "gpt-4o" in errors[0] and "kosmos-2" in errors[0]


K2 = ["table2", "--models", "kosmos-2"]
# never contacted: every row below fails its check before any request
SERVICE = ["table2", "--service", "http://127.0.0.1:9"]
SCALED = ["table2", "--models", "gpt-4o", "--limit", "10"]


def _row(id_, argv, message):
    return pytest.param(argv, message, id=id_)


#: Command lines that cannot be acted on, and a piece of the one-line
#: usage error each must print.  Exit status 2 is asserted for all.
USAGE_ERRORS = [
    # out-of-range values
    _row("shard-size-0", K2 + ["--limit", "10", "--shard-size", "0"],
         "argument --shard-size: must be >= 1 (got 0)"),
    _row("failure-rate-2", K2 + ["--provider", "remote",
                                 "--failure-rate", "2"],
         "argument --failure-rate: must be in [0, 1] (got 2)"),
    _row("rate-limit-0", K2 + ["--backend", "async", "--rate-limit", "0"],
         "argument --rate-limit: must be > 0 (got 0)"),
    _row("breaker-0", K2 + ["--breaker", "0"],
         "argument --breaker: must be >= 1 (got 0)"),
    _row("deadline-negative", K2 + ["--deadline", "-1"],
         "argument --deadline: must be >= 0 (got -1)"),
    _row("latency-negative", K2 + ["--provider", "remote",
                                   "--latency", "-1"],
         "argument --latency: must be >= 0 (got -1)"),
    _row("hedge-after-negative", K2 + ["--backend", "async",
                                       "--hedge-after", "-1"],
         "argument --hedge-after: must be >= 0 (got -1)"),
    _row("breaker-cooldown-negative", K2 + ["--breaker", "2",
                                            "--breaker-cooldown", "-5"],
         "argument --breaker-cooldown: must be >= 0 (got -5)"),
    _row("resolution-factor-0", ["resolution", "--factors", "0"],
         "argument --factors: must be >= 1 (got 0)"),
    _row("evaluate-resolution-0", ["evaluate", "--resolution", "0"],
         "argument --resolution: must be >= 1 (got 0)"),
    # flags that mean nothing on the canonical sweep
    _row("local-shard-size", K2 + ["--shard-size", "5"],
         "--shard-size 5 applies only to the scaled path"),
    _row("local-spill-dir", K2 + ["--spill-dir", "spill"],
         "--spill-dir spill applies only to the scaled path"),
    _row("local-latency", K2 + ["--latency", "0.01"],
         "--latency requires --provider remote or --service"),
    _row("local-failure-rate", K2 + ["--failure-rate", "0.5"],
         "--failure-rate requires --provider remote or --service"),
    # unknown names, empty lists, text that is not a finite number
    _row("export-figures-limit-negative",
         ["export-figures", "--limit", "-1"],
         "argument --limit: must be >= 1 (got -1)"),
    _row("resolution-factors-empty", ["resolution", "--factors"],
         "argument --factors: expected at least one argument"),
    _row("resolution-unknown-category",
         ["resolution", "--category", "Bogus"],
         "argument --category: unknown category 'Bogus'"),
    _row("show-unknown-qid", ["show", "nope-99"],
         "argument qid: unknown question id 'nope-99'"),
    _row("not-a-number", K2 + ["--workers", "two"],
         "argument --workers: invalid number 'two'"),
    _row("not-finite", K2 + ["--deadline", "inf"],
         "argument --deadline: invalid number 'inf'"),
    # each flag on a path it does not apply to
    _row("scaled-remote-provider", SCALED + ["--provider", "remote"],
         "--provider remote applies only to the canonical sweep"),
    _row("service-remote-provider", SERVICE + ["--provider", "remote"],
         "--provider remote applies only to the canonical sweep"),
    _row("service-limit", SERVICE + ["--limit", "10"],
         "--limit 10 applies only to the scaled path"),
    _row("service-dataset-seed", SERVICE + ["--dataset-seed", "3"],
         "--dataset-seed 3 applies only to the scaled path"),
    _row("service-samples", SERVICE + ["--samples", "3"],
         "--samples 3 applies only to the scaled path"),
    _row("service-shard-size", SERVICE + ["--shard-size", "5"],
         "--shard-size 5 applies only to the scaled path"),
    _row("local-prefetch", K2 + ["--prefetch", "2"],
         "--prefetch 2 applies only to the scaled path"),
    _row("local-prefetch-builder", K2 + ["--prefetch-builder", "process"],
         "--prefetch-builder process applies only to the scaled path"),
    _row("service-nodes", SERVICE + ["--nodes", "2"],
         "--nodes 2 applies only to the canonical sweep or the scaled"),
    _row("service-rate-limit", SERVICE + ["--backend", "async",
                                          "--rate-limit", "5"],
         "--rate-limit 5.0 applies only to the canonical sweep"),
    _row("service-hedge-after", SERVICE + ["--backend", "async",
                                           "--hedge-after", "1"],
         "--hedge-after 1.0 applies only to the canonical sweep"),
    _row("service-breaker-cooldown", SERVICE + ["--breaker", "2",
                                                "--breaker-cooldown", "5"],
         "--breaker-cooldown 5.0 applies only to the canonical sweep"),
    _row("service-spill-dir", SERVICE + ["--spill-dir", "spill"],
         "--spill-dir spill applies only to the scaled path"),
    _row("service-run-dir", SERVICE + ["--run-dir", "run"],
         "--run-dir run applies only to the canonical sweep"),
    _row("service-no-resume", SERVICE + ["--no-resume"],
         "--no-resume applies only to the canonical sweep"),
    _row("service-cache-stats", SERVICE + ["--cache-stats"],
         "--cache-stats applies only to the canonical sweep"),
    # cross-flag rules
    _row("rate-limit-needs-async", K2 + ["--rate-limit", "5"],
         "--rate-limit requires --backend async"),
    _row("hedge-after-needs-async", K2 + ["--backend", "thread",
                                          "--hedge-after", "1"],
         "--hedge-after requires --backend async"),
    _row("cooldown-needs-breaker", K2 + ["--breaker-cooldown", "5"],
         "--breaker-cooldown requires --breaker"),
    _row("scaled-latency", SCALED + ["--latency", "0.1"],
         "--latency requires --provider remote or --service"),
    _row("nodes-and-workers", K2 + ["--nodes", "2", "--workers", "2"],
         "--nodes and --workers are exclusive"),
    _row("nodes-and-thread", K2 + ["--nodes", "2", "--backend", "thread"],
         "--nodes runs inline nodes by default"),
    _row("nodes-and-async", K2 + ["--nodes", "2", "--backend", "async"],
         "--nodes runs inline nodes by default"),
    # counts below 1
    _row("nodes-0", K2 + ["--nodes", "0"],
         "argument --nodes: must be >= 1 (got 0)"),
    _row("workers-0", K2 + ["--workers", "0"],
         "argument --workers: must be >= 1 (got 0)"),
    _row("limit-0", K2 + ["--limit", "0"],
         "argument --limit: must be >= 1 (got 0)"),
    _row("samples-0", K2 + ["--samples", "0"],
         "argument --samples: must be >= 1 (got 0)"),
    _row("prefetch-0", SCALED + ["--prefetch", "0"],
         "argument --prefetch: must be >= 1 (got 0)"),
    _row("resolution-workers-0", ["resolution", "--workers", "0"],
         "argument --workers: must be >= 1 (got 0)"),
]

#: Command lines that must parse and pass every check: explicit
#: defaults on any path, and the command lines the README, docs/ and
#: the verify notes show.
ACCEPTED = [
    K2 + ["--samples", "1"],
    K2 + ["--prefetch-builder", "thread"],
    K2 + ["--nodes", "1", "--latency", "0", "--failure-rate", "0"],
    SCALED + ["--provider", "local", "--samples", "1"],
    SERVICE + ["--samples", "1", "--prefetch-builder", "thread",
               "--nodes", "1"],
    SERVICE + ["--latency", "0.01", "--failure-rate", "0.1"],
    # README
    ["table2"],
    ["evaluate", "--model", "llava-34b", "--challenge"],
    ["compare", "gpt-4o", "vila-yi-34b"],
    ["export-figures", "--out", "figures", "--limit", "20"],
    ["table2", "--workers", "8", "--run-dir", "runs/table2"],
    ["verify-run", "DIR"],
    # docs/
    ["table2", "--nodes", "4", "--run-dir", "runs/table2",
     "--cache-stats"],
    ["export-dataset", "--out", "chipvqa.jsonl"],
    ["export-figures"],
    ["table2", "--models", "gpt-4o", "--limit", "10082",
     "--dataset-seed", "1", "--spill-dir", "/tmp/chipvqa-cache"],
    ["table2", "--models", "gpt-4o", "llava-7b", "--limit", "1420",
     "--samples", "5", "--run-dir", "runs/passk-sweep"],
    ["table2", "--models", "gpt-4o", "llava-7b", "--cache-stats"],
    ["resolution", "--factors", "1", "8", "16", "--cache-stats"],
    ["table2", "--provider", "local"],
    ["table2", "--provider", "remote", "--latency", "0.05",
     "--failure-rate", "0.1"],
    ["table2", "--breaker", "3", "--quarantine", "--deadline", "900"],
    ["table2", "--service", "http://127.0.0.1:8377", "--models",
     "gpt-4o", "llava-7b", "--metrics-out", "metrics.prom"],
    # the verify notes
    ["table2", "--models", "gpt-4o", "llava-7b", "--workers", "4",
     "--run-dir", "/tmp/run"],
    ["table2", "--workers", "1", "--run-dir", "/tmp/k"],
    ["resolution", "--model", "gpt-4o", "--workers", "3"],
    ["table2", "--models", "gpt-4o", "--provider", "remote",
     "--latency", "0.001", "--failure-rate", "1.0", "--run-dir",
     "/tmp/pr"],
    ["table2", "--models", "gpt-4o", "llava-7b", "--workers", "4",
     "--backend", "process", "--run-dir", "/tmp/p1", "--cache-stats"],
    ["table2", "--models", "gpt-4o", "llava-7b", "--limit", "284",
     "--dataset-seed", "1", "--samples", "3", "--run-dir", "/tmp/sc",
     "--spill-dir", "/tmp/scache", "--cache-stats"],
    ["table2", "--models", "gpt-4o", "llava-7b", "--limit", "568",
     "--dataset-seed", "1", "--shard-size", "142", "--prefetch", "2",
     "--run-dir", "/tmp/pp", "--cache-stats"],
    ["table2", "--models", "gpt-4o", "llava-7b", "--limit", "568",
     "--dataset-seed", "1", "--shard-size", "142", "--prefetch", "2",
     "--prefetch-builder", "process", "--run-dir", "/tmp/pq"],
    ["table2", "--service", "http://127.0.0.1:8391", "--metrics-out",
     "/tmp/svc.prom"],
    ["show", "dig-08", "--figure", "fig.pgm"],
]


class TestCommandLineContract:
    """Exit status 0/1/2: every command line that cannot be acted on is
    a usage error (exit 2) naming its flag, never a traceback or a
    silently ignored flag."""

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
    def test_bad_command_line_exits_2(self, argv, message, capsys):
        err = usage_error(argv, capsys)
        assert message in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", ACCEPTED,
                             ids=lambda argv: " ".join(argv))
    def test_documented_command_line_passes_the_checks(
            self, argv, monkeypatch):
        """Parse and check only: each command is stubbed out."""
        for name in dir(repro.cli):
            if name.startswith("_cmd_"):
                monkeypatch.setattr(repro.cli, name, lambda args: 0)
        assert main(argv) == 0


class TestMetricsOut:
    def test_table2_writes_prometheus_exposition(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.prom"
        assert main(["table2", "--models", "kosmos-2",
                     "--metrics-out", str(out_path)]) == 0
        assert f"metrics -> {out_path}" in capsys.readouterr().out
        text = out_path.read_text(encoding="utf-8")
        assert 'repro_run_units{status="completed"} 2' in text
        assert "# TYPE repro_run_retries_total counter" in text
        # the perception caches ride along under a cache label
        assert 'repro_cache_hits{cache="' in text

    def test_scaled_path_writes_metrics_too(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.prom"
        assert main(["table2", "--models", "kosmos-2",
                     "--limit", "8", "--metrics-out", str(out_path)]) == 0
        capsys.readouterr()
        assert "repro_run_units" in out_path.read_text(encoding="utf-8")

    def test_scaled_unit_counts_cover_every_window(self, tmp_path, capsys):
        """Three 20-question shards run as three windows of two units
        (one per setting); the unit families count all six, as the
        stage families do."""
        out_path = tmp_path / "metrics.prom"
        assert main(["table2", "--models", "gpt-4o", "--limit", "60",
                     "--shard-size", "20",
                     "--metrics-out", str(out_path)]) == 0
        capsys.readouterr()
        text = out_path.read_text(encoding="utf-8")
        assert 'repro_run_units{status="completed"} 6' in text
        assert 'repro_stage_calls_total{stage="eval"} 6' in text


class TestVerifyRun:
    def _make_run(self, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["table2", "--models", "kosmos-2",
                     "--run-dir", str(run_dir)]) == 0
        return run_dir

    def test_ok_run_exits_zero(self, tmp_path, capsys):
        run_dir = self._make_run(tmp_path)
        capsys.readouterr()
        assert main(["verify-run", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "verification OK" in out
        assert "2 ok" in out  # 1 model x 2 settings

    def test_flipped_byte_exits_one(self, tmp_path, capsys):
        run_dir = self._make_run(tmp_path)
        victim = sorted(run_dir.glob("*.jsonl"))[0]
        victim.write_bytes(
            victim.read_bytes().replace(b'"correct"', b'"cXrrect"', 1))
        capsys.readouterr()
        assert main(["verify-run", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert "verification FAILED" in out
        assert "corrupt" in out

    def test_missing_checkpoint_exits_one(self, tmp_path, capsys):
        run_dir = self._make_run(tmp_path)
        sorted(run_dir.glob("*.jsonl"))[0].unlink()
        capsys.readouterr()
        assert main(["verify-run", str(run_dir)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_bad_directory_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["verify-run", str(tmp_path / "nope")])

    def test_empty_directory_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["verify-run", str(tmp_path)])
