"""Tests for the ``repro`` command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main

#: Small, fast dataset arguments shared by the CLI tests.
_FAST = ["--regions", "R3", "--days", "2", "--scale", "0.15", "--seed", "5"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("generate", "analyze", "figures", "fit", "validate", "calibrate"):
            args = parser.parse_args(
                [command, "--regions", "R1"]
                + (["--output", "x"] if command == "generate" else [])
            )
            assert args.command == command

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_module_runs_without_runpy_warning(self):
        # ``python -m repro.cli.main`` must not find its module already
        # imported by the package ``__init__`` (runpy's RuntimeWarning).
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.cli.main", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "mitigate" in result.stdout


class TestCommands:
    def test_generate_then_load_round_trip(self, tmp_path, capsys):
        out = tmp_path / "traces"
        rc = main(["generate", *_FAST, "--output", str(out)])
        assert rc == 0
        assert (out / "R3" / "meta.json").exists()
        captured = capsys.readouterr()
        assert "R3" in captured.out

        rc = main(["validate", "--load", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "OK" in captured.out

    def test_generate_anonymized(self, tmp_path):
        out = tmp_path / "anon"
        rc = main(["generate", *_FAST, "--anonymize", "--output", str(out)])
        assert rc == 0
        meta = (out / "R3" / "meta.json").read_text()
        assert '"anonymised": true' in meta

    def test_figures_to_directory(self, tmp_path):
        out = tmp_path / "figs"
        rc = main(
            ["figures", *_FAST, "-f", "fig01", "-f", "fig10", "--output", str(out)]
        )
        assert rc == 0
        assert (out / "fig01.txt").exists()
        assert (out / "fig10.txt").exists()

    def test_figures_unknown_id(self):
        with pytest.raises(SystemExit):
            main(["figures", *_FAST, "-f", "fig99"])

    def test_fit_prints_both_distributions(self, capsys):
        rc = main(["fit", *_FAST])
        assert rc == 0
        captured = capsys.readouterr()
        assert "LogNormal" in captured.out
        assert "Weibull" in captured.out

    def test_validate_fresh_generation(self, capsys):
        rc = main(["validate", *_FAST])
        assert rc == 0

    def test_calibrate_reports_targets(self, capsys):
        # Tiny single-region dataset: some shape targets will fail, but the
        # command must run and print one row per target.
        main(["calibrate", *_FAST])
        captured = capsys.readouterr()
        assert "shape targets hold" in captured.out

    def test_analyze_prints_findings(self, capsys):
        main(["analyze", *_FAST])
        captured = capsys.readouterr()
        assert "findings" in captured.out
        # R3 has almost no Custom functions, but the timer/keep-alive
        # mismatch holds in every region.
        assert "timer_keepalive_mismatch" in captured.out

    def test_load_missing_directory_fails(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["analyze", "--load", str(empty)])

    def test_mitigate_runs_selected_policies(self, capsys):
        rc = main(["mitigate", *_FAST, "-p", "baseline", "-p", "dynamic-keepalive"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "baseline" in captured.out
        assert "dynamic-keepalive" in captured.out

    def test_mitigate_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["mitigate", *_FAST, "-p", "teleportation"])

    def test_mitigate_jobs_invariant(self, capsys):
        assert main(["mitigate", *_FAST, "-p", "baseline", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["mitigate", *_FAST, "-p", "baseline", "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_mitigate_shm_channel_matches_pickle(self, capsys):
        assert main(["mitigate", *_FAST, "-p", "baseline", "--jobs", "2"]) == 0
        pickled = capsys.readouterr().out
        assert main(["mitigate", *_FAST, "-p", "baseline", "--jobs", "2",
                     "--channel", "shm"]) == 0
        shipped = capsys.readouterr().out
        assert pickled == shipped

    def test_mitigate_stream_jobs_and_channel_invariant(self, capsys):
        fast = ["--regions", "R1", "--days", "1", "--scale", "0.1", "--seed", "5"]
        outputs = []
        for extra in ([], ["--jobs", "2"], ["--jobs", "4", "--channel", "shm"]):
            assert main(["mitigate", "--stream", *fast, *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "xregion:best-region" in outputs[0]
        assert "remote_share" in outputs[0]

    def test_mitigate_stream_rejects_empty_remotes(self):
        with pytest.raises(SystemExit, match="remote"):
            main(["mitigate", "--stream", "--regions", "R3", "--remotes", "R3"])

    def test_generate_npz_chunked_round_trip(self, tmp_path, capsys):
        out = tmp_path / "npz-traces"
        rc = main(
            ["generate", *_FAST, "--format", "npz", "--chunk-days", "1",
             "--jobs", "2", "--output", str(out)]
        )
        assert rc == 0
        assert (out / "R3" / "requests.npz").exists()
        capsys.readouterr()
        assert main(["validate", "--load", str(out)]) == 0


class TestStreaming:
    def test_analyze_streamed_matches_materialised(self, capsys):
        rc = main(["analyze", *_FAST])
        materialised = capsys.readouterr().out
        rc_stream = main(["analyze", *_FAST, "--stream"])
        streamed = capsys.readouterr().out
        assert rc == rc_stream
        # the exact-figure overview table is identical across compute paths
        overview = materialised.split("== paper findings")[0]
        assert overview == streamed.split("== paper findings")[0]

    def test_figures_stream_renders(self, tmp_path):
        out = tmp_path / "figs"
        rc = main(
            ["figures", *_FAST, "--stream", "-f", "fig01", "-f", "fig05",
             "--output", str(out)]
        )
        assert rc == 0
        assert (out / "fig01.txt").exists()
        assert (out / "fig05.txt").exists()

    def test_generate_chunk_directories_then_stream(self, tmp_path, capsys):
        out = tmp_path / "chunks"
        rc = main(
            ["generate", *_FAST, "--format", "npz-chunks", "--chunk-days", "1",
             "--output", str(out)]
        )
        assert rc == 0
        assert (out / "R3" / "manifest.json").exists()
        assert (out / "R3" / "part-00000.npz").exists()
        capsys.readouterr()
        # streamed analysis straight off the chunk directory
        assert main(["analyze", "--load", str(out), "--stream"]) in (0, 1)
        # and the non-streaming commands materialise the same directory
        assert main(["validate", "--load", str(out)]) == 0

    def test_stream_load_mixed_directories(self, tmp_path, capsys):
        """--stream over a root mixing chunk dirs and plain bundles sees both."""
        out = tmp_path / "mixed"
        assert main(["generate", "--regions", "R3", "--days", "1", "--scale",
                     "0.15", "--seed", "5", "--format", "npz",
                     "--output", str(out)]) == 0
        assert main(["generate", "--regions", "R4", "--days", "1", "--scale",
                     "0.1", "--seed", "5", "--format", "npz-chunks",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--load", str(out), "--stream"]) in (0, 1)
        overview = capsys.readouterr().out
        assert "R3" in overview and "R4" in overview

    def test_generate_chunks_rejects_anonymize(self, tmp_path):
        with pytest.raises(SystemExit, match="anonymize"):
            main(["generate", *_FAST, "--format", "npz-chunks", "--anonymize",
                  "--output", str(tmp_path / "x")])
