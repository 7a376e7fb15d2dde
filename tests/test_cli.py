import json
import subprocess
import sys

import pytest

from coopfb import cli


def run_cli(args, tmp_path, env_dir=None, monkeypatch=None):
    argv = list(args)
    if env_dir is None:
        argv += ["--out-dir", str(tmp_path)]
    return cli.run(argv)


class TestGridParsing:
    def test_range_syntax(self):
        assert cli.parse_grid("2..5") == [2.0, 3.0, 4.0, 5.0]

    def test_range_with_step(self):
        assert cli.parse_grid("-5..5..5") == [-5.0, 0.0, 5.0]

    def test_comma_list(self):
        assert cli.parse_grid("1,2.5,10") == [1.0, 2.5, 10.0]

    def test_scalar(self):
        assert cli.parse_grid("7") == [7.0]


class TestFig3Command:
    def test_csv_columns_and_summary(self, tmp_path):
        status = cli.run(
            [
                "fig3",
                "--m", "4", "--n", "2", "--bcl", "2..3",
                "--trials", "30", "--seed", "7",
                "--out-dir", str(tmp_path),
            ]
        )
        assert status == 0
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        assert lines[0] == "bcl,mc_mean,closed_form,reference_formula"
        assert len(lines) == 3
        summary = json.loads((tmp_path / "fig3.json").read_text())
        assert set(summary) == {"experiment", "config", "aggregates", "seed", "resample_count"}
        assert summary["seed"] == 7
        manifest = json.loads((tmp_path / "fig3_manifest.json").read_text())
        assert manifest["experiment"] == "fig3"
        assert len(manifest["config_hash"]) == 64

    def test_byte_stable_rerun(self, tmp_path):
        args = [
            "fig3", "--bcl", "2", "--trials", "20", "--seed", "1",
        ]
        cli.run(args + ["--out-dir", str(tmp_path / "a")])
        cli.run(args + ["--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a/fig3.csv").read_bytes() == (tmp_path / "b/fig3.csv").read_bytes()
        assert (tmp_path / "a/fig3.json").read_bytes() == (tmp_path / "b/fig3.json").read_bytes()


class TestFig8Command:
    def test_csv_columns(self, tmp_path):
        status = cli.run(
            [
                "fig8", "--m", "4", "--n", "3", "--bcl", "6", "--k", "16",
                "--rho-db", "0,10", "--trials", "10",
                "--out-dir", str(tmp_path),
            ]
        )
        assert status == 0
        lines = (tmp_path / "fig8.csv").read_text().splitlines()
        assert lines[0] == (
            "rho_db,rate_conv,rate_coop,rate_adaptive,rate_analytic_conv,rate_analytic_coop"
        )
        summary = json.loads((tmp_path / "fig8.json").read_text())
        assert "mc_crossing_db" in summary["aggregates"]


class TestValidation:
    def test_invalid_dimensions_fail_with_message(self, tmp_path, capsys):
        status = cli.run(["fig3", "--n", "4", "--m", "4", "--trials", "5", "--out-dir", str(tmp_path)])
        assert status != 0
        err = capsys.readouterr().err
        assert "n+1 <= m" in err

    def test_odd_user_count_fails(self, tmp_path, capsys):
        status = cli.run(["fig8", "--k", "17", "--trials", "5", "--rho-db", "0", "--out-dir", str(tmp_path)])
        assert status != 0
        assert "even" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"m": 4, "n": 2, "b_cl": 2, "trials": 15, "seed": 3}))
        status = cli.run(
            ["fig3", "--config", str(cfg_file), "--trials", "10", "--out-dir", str(tmp_path)]
        )
        assert status == 0
        summary = json.loads((tmp_path / "fig3.json").read_text())
        assert summary["config"]["trials"] == 10  # flag wins
        assert summary["config"]["bcl_grid"] == [2]
        assert summary["seed"] == 3


class TestSweepAndAnalyze:
    def test_sweep_writes_modes(self, tmp_path):
        status = cli.run(
            [
                "sweep", "--mode", "conventional", "--mode", "cooperative",
                "--m", "4", "--n", "2", "--k", "8", "--bcl", "3",
                "--rho-db", "0,10", "--trials", "8",
                "--out-dir", str(tmp_path),
            ]
        )
        assert status == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "rho_db,mode,sum_rate"
        assert len(lines) == 5

    def test_analyze_prints_table(self, capsys):
        status = cli.run(["analyze", "--m", "4", "--n", "3", "--bcl", "6", "--k", "400", "--rho-db", "0,10"])
        assert status == 0
        out = capsys.readouterr().out
        assert "decision" in out.splitlines()[0]
        assert "cooperative" in out or "conventional" in out

    def test_analyze_delta_consistency(self, capsys):
        cli.run(["analyze", "--m", "4", "--n", "3", "--bcl", "4", "--k", "200", "--rho-db", "10"])
        line = capsys.readouterr().out.splitlines()[1].split()
        rate_coop, rate_conv, delta = float(line[2]), float(line[3]), float(line[4])
        assert abs(delta - (rate_coop - rate_conv)) < 5e-4

    def test_analyze_invalid_regime_exits_nonzero(self, capsys):
        # k below the pairing floor makes the candidate pool empty.
        status = cli.run(["analyze", "--m", "4", "--n", "3", "--bcl", "4", "--k", "4", "--rho-db", "10"])
        assert status != 0
        assert "error" in capsys.readouterr().err


class TestExplicitValues:
    """Explicit zeros are checked, never replaced by a default."""

    def test_sweep_rejects_zero_trials_and_users(self, tmp_path, capsys):
        status = cli.run(["sweep", "--trials", "0", "--k", "0", "--out-dir", str(tmp_path)])
        assert status == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_rejects_empty_snr_grid(self, tmp_path, capsys):
        status = cli.run(["sweep", "--rho-db", "", "--trials", "2", "--out-dir", str(tmp_path)])
        assert status == 2
        assert "SNR grid is empty" in capsys.readouterr().err

    def test_analyze_rejects_zero_users(self, capsys):
        status = cli.run(["analyze", "--m", "4", "--n", "2", "--k", "0", "--bcl", "4", "--rho-db", "0"])
        assert status == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert len(captured.out.splitlines()) <= 1  # at most the header


class TestRejectedInputs:
    """Malformed grids, multi-value --bcl where one value is taken, and
    worker counts below one exit 2 with an error line and write nothing."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--rho-db", "1..2..0"], "grid step must be positive"),
            (["sweep", "--rho-db", "1..2..3..4"], "bad grid"),
            (["fig3", "--bcl", "2.5"], "expected integers in grid"),
            (["sweep", "--bcl", "2,4"], "sweep takes a single --bcl value"),
            (["fig8", "--bcl", "2,4"], "fig8 takes a single --bcl value"),
            (["sweep", "--workers", "0"], "need workers >= 1"),
            (["fig3", "--bcl", "2", "--workers", "-1"], "need workers >= 1"),
        ],
    )
    def test_command_exits_2(self, tmp_path, capsys, args, message):
        status = cli.run(args + ["--trials", "2", "--out-dir", str(tmp_path)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not list(tmp_path.iterdir())

    def test_analyze_rejects_multi_value_bcl(self, capsys):
        status = cli.run(["analyze", "--bcl", "2,4", "--k", "200", "--rho-db", "0"])
        assert status == 2
        captured = capsys.readouterr()
        assert "analyze takes a single --bcl value" in captured.err
        assert captured.out == ""


class TestAdaptiveDecidedFirst:
    """Where both closed-form estimates are out of regime, adaptive runs stop
    with InvalidRegime before any trial is simulated."""

    @pytest.fixture
    def rate_chunks(self, monkeypatch):
        from coopfb import montecarlo

        calls = []
        original = montecarlo._rate_chunk

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(montecarlo, "_rate_chunk", counted)
        return calls

    def test_sweep_adaptive_fails_before_simulating(self, tmp_path, capsys, rate_chunks):
        status = cli.run(
            ["sweep", "--mode", "adaptive", "--k", "16", "--rho-db", "0..20..5", "--out-dir", str(tmp_path)]
        )
        assert status == 2
        assert "out of regime" in capsys.readouterr().err
        assert rate_chunks == []

    def test_fig8_fails_before_simulating(self, tmp_path, capsys, rate_chunks):
        status = cli.run(["fig8", "--k", "16", "--n", "2", "--bcl", "8", "--out-dir", str(tmp_path)])
        assert status == 2
        assert "out of regime" in capsys.readouterr().err
        assert rate_chunks == []

    def test_sweep_records_unassigned_beams(self, tmp_path, rate_chunks):
        import numpy as np

        from coopfb import montecarlo
        from coopfb.model import SystemConfig, db_to_linear

        status = cli.run(
            [
                "sweep", "--mode", "cooperative", "--k", "8", "--rho-db", "0,20",
                "--trials", "6", "--out-dir", str(tmp_path),
            ]
        )
        assert status == 0
        assert rate_chunks
        cfg = SystemConfig(k=8, trials=6)
        rho = db_to_linear(np.array([0.0, 20.0]))
        expected = sum(
            int(montecarlo.evaluate_mode(montecarlo.build_workspace(cfg, t), "cooperative", rho).unassigned.sum())
            for t in range(cfg.trials)
        )
        summary = json.loads((tmp_path / "sweep.json").read_text())
        assert summary["aggregates"]["unassigned_beams"] == expected


class TestEnvOutDir(object):
    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        status = cli.run(["fig3", "--bcl", "2", "--trials", "5"])
        assert status == 0
        assert (tmp_path / "envout" / "fig3.csv").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "coopfb.cli",
                "fig3", "--bcl", "2", "--trials", "5", "--out-dir", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "fig3.csv").exists()
