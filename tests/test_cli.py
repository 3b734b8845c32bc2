"""Tests for the command-line interface."""

import pytest

import repro.cli
from repro.cli import build_parser, main


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

    def test_nodes_and_workers_are_exclusive(self):
        with pytest.raises(SystemExit, match="exclusive"):
            main(["table2", "--models", "kosmos-2",
                  "--nodes", "2", "--workers", "2"])

    def test_nodes_rejects_thread_backend(self):
        with pytest.raises(SystemExit, match="inline nodes"):
            main(["table2", "--models", "kosmos-2",
                  "--nodes", "2", "--backend", "thread"])

    def test_nodes_below_one_is_a_hard_error(self):
        """There is no fleet of zero nodes to substitute — unlike the
        --workers floor clamp, this is a configuration error."""
        with pytest.raises(SystemExit,
                           match=r"--nodes must be >= 1 \(got 0\)"):
            main(["table2", "--models", "kosmos-2", "--nodes", "0"])

    def test_nodes_negative_is_a_hard_error(self):
        with pytest.raises(SystemExit,
                           match=r"--nodes must be >= 1 \(got -3\)"):
            main(["table2", "--models", "kosmos-2", "--nodes=-3"])

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

    def test_breaker_cooldown_requires_breaker(self):
        with pytest.raises(SystemExit,
                           match="--breaker-cooldown requires --breaker"):
            main(["table2", "--models", "kosmos-2",
                  "--breaker-cooldown", "5"])

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
