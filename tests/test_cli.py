"""CLI: argument parsing and command behaviour."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_catalog_parses(self):
        args = build_parser().parse_args(["catalog"])
        assert args.command == "catalog"

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.out == "scaling_dataset.npz"
        assert args.csv is None

    def test_report_accepts_ids(self):
        args = build_parser().parse_args(["report", "T1", "F7"])
        assert args.experiments == ["T1", "F7"]


class TestCommands:
    def test_catalog_prints_totals(self, capsys):
        assert main(["catalog"]) == 0
        output = capsys.readouterr().out
        assert "97" in output and "267" in output

    def test_report_single_table(self, capsys):
        assert main(["report", "T1"]) == 0
        output = capsys.readouterr().out
        assert "Benchmark suites" in output

    @staticmethod
    def _shrink_sweep(monkeypatch, count=4):
        """Point the sweep command at a tiny campaign for speed."""
        import repro.cli as cli_module
        from repro.suites import all_kernels
        from repro.sweep import reduced_space

        kernels = all_kernels()[:count]
        monkeypatch.setattr(cli_module, "all_kernels", lambda: kernels)
        monkeypatch.setattr(cli_module, "PAPER_SPACE",
                            reduced_space(4, 4, 4))
        return kernels

    def test_sweep_writes_dataset(self, tmp_path, capsys, monkeypatch):
        self._shrink_sweep(monkeypatch)
        out = tmp_path / "data.npz"
        csv = tmp_path / "data.csv"
        assert main(["sweep", "--out", str(out), "--csv", str(csv)]) == 0
        assert out.exists() and csv.exists()
        output = capsys.readouterr().out
        assert "campaign:" in output

    def test_sweep_engine_mode_flag(self, tmp_path, monkeypatch):
        # The escape hatch forwards the chosen grid path to the runner.
        import repro.sweep.runner as runner_module

        self._shrink_sweep(monkeypatch, count=2)
        seen = {}
        real_runner = runner_module.SweepRunner

        class RecordingRunner(real_runner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen["grid_mode"] = self.grid_mode_name

        monkeypatch.setattr(runner_module, "SweepRunner",
                            RecordingRunner)
        out = tmp_path / "data.npz"
        assert main(["sweep", "--out", str(out),
                     "--engine-mode", "scalar"]) == 0
        assert seen["grid_mode"] == "scalar"
        assert main(["sweep", "--out", str(out)]) == 0
        assert seen["grid_mode"] == "batch"

    def test_sweep_closes_its_runner(self, tmp_path, monkeypatch):
        # A runner may hold engine resources; the command must release
        # them rather than leave them to garbage collection.
        import repro.sweep.runner as runner_module

        self._shrink_sweep(monkeypatch, count=2)
        closed = []
        real_runner = runner_module.SweepRunner

        class RecordingRunner(real_runner):
            def close(self):
                closed.append(self.engine_name)
                super().close()

        monkeypatch.setattr(runner_module, "SweepRunner",
                            RecordingRunner)
        out = tmp_path / "data.npz"
        assert main(["sweep", "--out", str(out), "--engine",
                     "interval-batch", "--engine-mode", "study"]) == 0
        assert closed == ["interval-batch"]

    def test_sweep_resume_uses_journal(self, tmp_path, capsys,
                                       monkeypatch):
        self._shrink_sweep(monkeypatch)
        out = tmp_path / "data.npz"
        journal = tmp_path / "data.npz.journal"
        assert main(["sweep", "--out", str(out),
                     "--chunk-size", "2"]) == 0
        assert journal.is_dir()
        first = capsys.readouterr().out
        assert "0 resumed" in first
        assert main(["sweep", "--out", str(out),
                     "--chunk-size", "2", "--resume"]) == 0
        second = capsys.readouterr().out
        assert "2 resumed" in second and "0 executed" in second

    def test_sweep_parser_campaign_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--resume", "--strict", "--journal", "j",
             "--chunk-size", "8", "--workers", "2"]
        )
        assert args.resume and args.strict
        assert args.journal == "j"
        assert args.chunk_size == 8
        assert args.workers == 2

    def test_classify_from_saved_dataset(self, tmp_path, capsys):
        from repro.suites import all_kernels
        from repro.sweep import SweepRunner, reduced_space

        dataset = SweepRunner().run(
            all_kernels()[:4], reduced_space(4, 4, 4)
        )
        path = dataset.save(tmp_path / "d.npz")
        assert main(["classify", "--data", str(path)]) == 0
        assert "Taxonomy classification" in capsys.readouterr().out

    def test_classify_matches_pinned_paper_labels(
        self, tmp_path, capsys, paper_dataset
    ):
        # The same check CI's sweep-smoke step runs with diff: every
        # catalog kernel's category and per-axis behaviours, pinned.
        from pathlib import Path

        pinned = Path(__file__).parent / "data" / "paper_labels.txt"
        path = paper_dataset.save(tmp_path / "paper.npz")
        capsys.readouterr()
        assert main(["classify", "--data", str(path), "-v"]) == 0
        assert capsys.readouterr().out == pinned.read_text()

    def test_classify_drops_quarantined_rows(self, tmp_path, capsys):
        import numpy as np

        from repro.suites import all_kernels
        from repro.sweep import ScalingDataset, SweepRunner, reduced_space

        kernels = all_kernels()[:4]
        clean = SweepRunner().run(kernels, reduced_space(4, 4, 4))
        perf = clean.perf.copy()
        perf[1] = np.nan
        bad_name = kernels[1].full_name
        dataset = ScalingDataset(
            clean.space, clean.kernel_records, perf,
            quarantined={bad_name: "injected fault"},
        )
        path = dataset.save(tmp_path / "q.npz")
        assert main(["classify", "--data", str(path)]) == 0
        captured = capsys.readouterr()
        assert "Taxonomy classification" in captured.out
        assert bad_name in captured.err

    def test_kernel_inspection(self, tmp_path, capsys):
        from repro.suites import all_kernels
        from repro.sweep import SweepRunner, reduced_space

        kernels = all_kernels()[:2]
        dataset = SweepRunner().run(kernels, reduced_space(4, 4, 4))
        path = dataset.save(tmp_path / "d.npz")
        name = kernels[0].full_name
        assert main(["kernel", name, "--data", str(path)]) == 0
        output = capsys.readouterr().out
        assert name in output
        assert "category:" in output


class TestCacheFlags:
    def test_parser_accepts_cache_flags(self):
        for command in (["classify"], ["report"], ["kernel", "k"]):
            args = build_parser().parse_args(
                command + ["--no-cache", "--cache-dir", "c"]
            )
            assert args.no_cache and args.cache_dir == "c"

    def test_cache_info_empty(self, tmp_path, capsys):
        assert main(["cache", "info",
                     "--cache-dir", str(tmp_path / "c")]) == 0
        output = capsys.readouterr().out
        assert "entries:         0" in output

    def test_classify_populates_then_hits_cache(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.gpu.simulator import (
            engine_call_count,
            reset_engine_call_count,
        )
        from repro.suites import all_kernels

        kernels = all_kernels()[:4]
        monkeypatch.setattr(
            "repro.suites.all_kernels", lambda: kernels
        )
        monkeypatch.setattr(
            "repro.cli.collect_paper_dataset",
            lambda **kw: (_ for _ in ()).throw(
                AssertionError("cache path not taken")
            ),
        )
        cache_dir = tmp_path / "cache"
        assert main(["classify", "--cache-dir", str(cache_dir)]) == 0
        assert list(cache_dir.glob("sweep_*.npz"))
        reset_engine_call_count()
        assert main(["classify", "--cache-dir", str(cache_dir)]) == 0
        assert engine_call_count() == 0

        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "entries:         1" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not list(cache_dir.glob("sweep_*.npz"))

    def test_report_cached_rerun_skips_simulation(self, tmp_path, capsys):
        from repro.gpu.simulator import (
            engine_call_count,
            reset_engine_call_count,
        )

        cache_dir = tmp_path / "cache"
        assert main(["report", "T3", "--cache-dir", str(cache_dir)]) == 0
        assert list(cache_dir.glob("sweep_*.npz"))
        reset_engine_call_count()
        assert main(["report", "T3", "--cache-dir", str(cache_dir)]) == 0
        assert engine_call_count() == 0, (
            "cached gpuscale report must not simulate"
        )
        assert "T3" in capsys.readouterr().out

    def test_no_cache_bypasses_store(self, tmp_path, monkeypatch):
        from repro.suites import all_kernels
        from repro.sweep import reduced_space

        kernels = all_kernels()[:4]
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("GPUSCALE_CACHE_DIR", str(cache_dir))
        import repro.cli as cli_module
        import repro.sweep.runner as runner_module

        monkeypatch.setattr(
            cli_module, "collect_paper_dataset",
            lambda **kw: runner_module.SweepRunner().run(
                kernels, reduced_space(4, 4, 4)
            ),
        )
        assert main(["classify", "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_sweep_engine_mode_study_forwarded(self, tmp_path,
                                               monkeypatch):
        import repro.sweep.runner as runner_module

        TestCommands._shrink_sweep(monkeypatch, count=2)
        seen = {}
        real_runner = runner_module.SweepRunner

        class RecordingRunner(real_runner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen["grid_mode"] = self.grid_mode_name

        monkeypatch.setattr(runner_module, "SweepRunner",
                            RecordingRunner)
        out = tmp_path / "data.npz"
        assert main(["sweep", "--out", str(out),
                     "--engine-mode", "study"]) == 0
        assert seen["grid_mode"] == "study"


class TestEnergyCommand:
    def test_energy_default_objective(self, capsys):
        assert main(["energy", "shoc/triad.triad"]) == 0
        output = capsys.readouterr().out
        assert "operating point:" in output
        assert "min_edp" in output

    def test_energy_with_cap(self, capsys):
        assert main(
            ["energy", "shoc/triad.triad", "--objective", "max_perf",
             "--power-cap", "120"]
        ) == 0
        output = capsys.readouterr().out
        assert "cap 120.0 W" in output

    def test_energy_rejects_bad_objective(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["energy", "shoc/triad.triad", "--objective", "warp9"]
            )


class TestReportArtifacts:
    def test_report_out_writes_files(self, tmp_path, capsys):
        assert main(["report", "T1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "T1.md").exists()
        assert (tmp_path / "INDEX.md").exists()


class TestSummaryCommand:
    def test_summary_prints_abstract(self, capsys):
        assert main(["summary"]) == 0
        output = capsys.readouterr().out
        assert "267 GPGPU kernels" in output


class TestWhatIfCommand:
    def test_whatif_ranks_playbook(self, capsys):
        assert main(["whatif", "pannotia/sssp.relax_edges"]) == 0
        output = capsys.readouterr().out
        assert "What-if playbook" in output
        assert "break_chains" in output


class TestCatalogPrograms:
    def test_programs_listing(self, capsys):
        assert main(["catalog", "--programs", "pannotia"]) == 0
        output = capsys.readouterr().out
        assert "pagerank" in output
        assert "Betweenness centrality" in output


class TestEnginesCommand:
    def test_engines_lists_registry(self, capsys):
        assert main(["engines"]) == 0
        output = capsys.readouterr().out
        assert "Registered timing engines" in output
        for name in ("interval", "interval-batch", "event", "faulty"):
            assert name in output
        assert "predictor" not in output
        # Capability matrix and descriptor columns are rendered.
        for column in (
            "point", "grid", "study", "family", "version", "fidelity",
        ):
            assert column in output
        assert "v1" in output
        # The fidelity-tier ladder is visible in the table.
        for tier in ("reference", "exact"):
            assert tier in output

    def test_engines_reflects_new_registration(self, capsys):
        from repro.gpu.engine import (
            EngineCapabilities,
            register_engine,
            unregister_engine,
        )

        register_engine(
            "test-cli-engine",
            object,
            capabilities=EngineCapabilities(point=True),
            summary="registered mid-session",
        )
        try:
            assert main(["engines"]) == 0
            output = capsys.readouterr().out
            assert "test-cli-engine" in output
            assert "registered mid-session" in output
        finally:
            unregister_engine("test-cli-engine")

    def test_sweep_engine_flag_forwards_to_runner(
        self, tmp_path, monkeypatch
    ):
        import repro.sweep.runner as runner_module
        from repro.suites import all_kernels
        from repro.sweep import reduced_space

        import repro.cli as cli_module

        kernels = all_kernels()[:2]
        monkeypatch.setattr(cli_module, "all_kernels", lambda: kernels)
        monkeypatch.setattr(cli_module, "PAPER_SPACE",
                            reduced_space(4, 4, 4))
        seen = {}
        real_runner = runner_module.SweepRunner

        class RecordingRunner(real_runner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen["engine"] = self.engine_name

        monkeypatch.setattr(runner_module, "SweepRunner",
                            RecordingRunner)
        out = tmp_path / "data.npz"
        assert main(["sweep", "--out", str(out),
                     "--engine", "event"]) == 0
        assert seen["engine"] == "event"
        assert main(["sweep", "--out", str(out)]) == 0
        assert seen["engine"] == "interval"

    def test_sweep_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--engine", "warp-drive"])
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_has_no_brownout_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--brownout", "auto"])
        assert "--brownout" in capsys.readouterr().err


class TestFamilies:
    def test_families_lists_registry(self, capsys):
        assert main(["families"]) == 0
        output = capsys.readouterr().out
        for name in ("hawaii", "kaveri", "maxwell", "fiji"):
            assert name in output

    def test_transfer_requires_families(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["transfer", "rodinia/bfs.kernel1"]
            )
        assert "--from" in capsys.readouterr().err

    def test_transfer_kernel_prediction(self, capsys):
        assert main([
            "transfer", "rodinia/bfs.kernel1",
            "--from", "hawaii", "--to", "kaveri",
        ]) == 0
        output = capsys.readouterr().out
        assert "predicted class" in output
        assert "corpus neighbours" in output

    def test_transfer_json_mode(self, capsys):
        import json

        assert main([
            "transfer", "rodinia/bfs.kernel1",
            "--from", "hawaii", "--to", "kaveri", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source_family"] == "hawaii"
        assert payload["target_family"] == "kaveri"
        assert payload["category"]

    def test_transfer_without_kernel_needs_evaluate(self, capsys):
        assert main([
            "transfer", "--from", "hawaii", "--to", "kaveri",
        ]) == 2
        assert "kernel identifier" in capsys.readouterr().err
