import json
import subprocess
import sys

import pytest

from coopfb import analysis, cli
from coopfb.model import ConfigError


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

    def test_range_size_is_bounded(self):
        bound = cli.MAX_GRID_POINTS
        assert len(cli.parse_grid(f"1..{bound}")) == bound
        with pytest.raises(ConfigError, match=f"more than {bound} points"):
            cli.parse_grid(f"1..{bound + 1}", "--rho-db")

    def test_range_count_beyond_the_float_range(self, tmp_path):
        # (stop - start) / step overflows to infinity: refused, not an OverflowError.
        with pytest.raises(ConfigError, match="--rho-db '0..1e308..1e-308'"):
            cli.parse_grid("0..1e308..1e-308", "--rho-db")
        assert run_cli(["sweep", "--rho-db", "0..1e308..1e-308", "--trials", "1"], tmp_path) == 2
        assert not any(tmp_path.iterdir())


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


class TestFlagsReadAsConfigKeys:
    """A parameter flag's text goes through the parser that config-file
    values go through, so a flag takes what its key takes and a run
    written either way writes the same bytes."""

    def outputs(self, tmp_path, command, *args, config=None):
        """The CSV and summary JSON bytes of one run in a fresh directory."""
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        out.mkdir()
        argv = [command, *args, "--out-dir", str(out)]
        if config is not None:
            path = out / "run.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert cli.run(argv) == 0
        return [(out / f"{command}{ext}").read_bytes() for ext in (".csv", ".json")]

    def test_whole_float_count(self, tmp_path):
        want = self.outputs(tmp_path, "fig3", "--bcl", "2,3", "--trials", "10")
        assert self.outputs(tmp_path, "fig3", "--bcl", "2,3", "--trials", "10.0") == want
        assert self.outputs(tmp_path, "fig3", "--bcl", "2,3", config={"trials": 10.0}) == want

    def test_grid_flag_as_grid_key(self, tmp_path):
        want = self.outputs(tmp_path, "fig9", "--trials", "20", config={"n": [2, 3]})
        assert self.outputs(tmp_path, "fig9", "--trials", "20", "--n", "2,3") == want

    def test_analyze_k_as_k_grid(self, capsys):
        tables = []
        for flag in ("--k", "--k-grid"):
            assert cli.run(["analyze", flag, "50,100", "--rho-db", "0,10"]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] and len(tables[0].splitlines()) == 5

    @pytest.mark.parametrize("seed", ["9007199254740993", "-18446744073709551617"])
    def test_seed_past_float_precision_kept_exact(self, seed):
        # Integer text is read exactly, not through a float that rounds past
        # 2**53: a seed's every digit names its streams.
        assert cli.resolve("fig3", {"seed": seed})["seed"] == int(seed)
        assert cli.resolve("fig3", {"seed": int(seed)})["seed"] == int(seed)

    def test_range_grid_keeps_integer_text_exact(self):
        # A range without a step steps by the integer 1, so integer ends stay ints.
        assert cli.resolve("fig3", {"seed": "9007199254740993..9007199254740993"})["seed"] == 9007199254740993
        assert cli.parse_grid("2..4") == [2.0, 3.0, 4.0]

    def test_whole_float_workers(self, tmp_path):
        want = self.outputs(tmp_path, "fig3", "--trials", "10", "--workers", "2")
        assert self.outputs(tmp_path, "fig3", "--trials", "10", "--workers", "2.0") == want


class TestFig6Command:
    def test_single_trial_records_empty_upper_tail_as_null(self, tmp_path):
        # One sample lies below the model median at every SNR of fig6.
        status = cli.run(["fig6", "--trials", "1", "--seed", "0", "--out-dir", str(tmp_path)])
        assert status == 0
        aggregates = json.loads((tmp_path / "fig6.json").read_text())["aggregates"]
        assert set(aggregates["ks_upper_tail"].values()) == {None}
        assert set(aggregates["ks_upper_tail_small_error"].values()) == {None}
        assert all(v is not None for v in aggregates["ks_full"].values())


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
        assert "--rho-db is empty" in capsys.readouterr().err

    def test_sweep_rejects_a_repeated_mode(self, tmp_path, capsys):
        argv = ["sweep", "--mode", "cooperative", "--mode", "cooperative", "--trials", "2", "--out-dir", str(tmp_path)]
        assert cli.run(argv) == 2
        assert "mode 'cooperative' is given more than once" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
            (["fig3", "--bcl", "2.5"], "--bcl takes integers, got 2.5"),
            (["sweep", "--bcl", "2,4"], "sweep takes a single --bcl value"),
            (["fig8", "--bcl", "2,4"], "fig8 takes a single --bcl value"),
            (["sweep", "--workers", "0"], "need workers >= 1"),
            (["fig3", "--bcl", "2", "--workers", "-1"], "need workers >= 1"),
            (["fig3", "--bcl", ""], "--bcl is empty"),
            (["fig7", "--k-grid", ""], "--k-grid is empty"),
            (["fig7", "--n", "2"], "fig7 takes --n and --bcl together"),
            (["sweep", "--rho-db", "nan"], "--rho-db takes finite numbers"),
            (["sweep", "--rho-db", "inf", "--mode", "adaptive"], "--rho-db takes finite numbers"),
            (["sweep", "--rho-db", "0..inf..5"], "--rho-db takes finite numbers"),
            (["fig3", "--bcl", "inf"], "--bcl takes finite numbers"),
            (["fig7", "--k-grid", "50,inf"], "--k-grid takes finite numbers"),
            (["fig3", "--bcl", "abc"], "--bcl takes finite numbers, got 'abc'"),
        ],
    )
    def test_command_exits_2(self, tmp_path, capsys, args, message):
        status = cli.run(args + ["--trials", "2", "--out-dir", str(tmp_path)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "x", "--trials takes finite numbers, got 'x'"),
            ("--trials", "inf", "--trials takes finite numbers"),
            ("--trials", "", "--trials is empty"),
            ("--m", "4.5", "--m takes integers, got 4.5"),
            ("--seed", "1,2", "fig8 takes a single --seed value"),
            ("--k", "20..40..20", "fig8 takes a single --k value"),
        ],
    )
    def test_count_flag_exits_2(self, tmp_path, capsys, flag, value, message):
        # Count flags are read by the parser config-file values go through,
        # so their refusals are its error lines, not argparse's usage error.
        status = cli.run(["fig8", "--rho-db", "0", flag, value, "--out-dir", str(tmp_path)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--codebook", "foo"], "codebook_mode must be one of ('haar', 'dft'), got 'foo'"),
            (["sweep", "--mode", "foo"], "mode must be one of ('conventional', 'cooperative', 'adaptive'), got 'foo'"),
            (["fig3", "--workers", "x"], "--workers takes finite numbers, got 'x'"),
            (["fig3", "--trials", "10.0000000001"], "--trials takes integers, got 10.0000000001"),
        ],
    )
    def test_value_refused_by_its_one_check(self, tmp_path, capsys, args, message):
        # argparse checks no value: a name is refused by the library's check
        # and a number by the parser config values go through, so the run
        # returns 2 with one error line where argparse would exit with usage.
        assert cli.run(args + ["--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_analyze_rejects_multi_value_bcl(self, capsys):
        status = cli.run(["analyze", "--bcl", "2,4", "--k", "200", "--rho-db", "0"])
        assert status == 2
        captured = capsys.readouterr()
        assert "analyze takes a single --bcl value" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--k-grid", ""], "--k-grid is empty"),
            (["--k", "400", "--k-grid", "50"], "set the same parameter"),
        ],
    )
    def test_analyze_exits_2(self, capsys, args, message):
        status = cli.run(["analyze"] + args)
        assert status == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--bcl", "1e30"], "need 0 <= bcl <= 62"),
            (["--k", "201"], "k must be even"),
            (["--k-grid", "200,6"], "need k >= 2*m"),
        ],
    )
    def test_analyze_validates_before_advising(self, capsys, monkeypatch, args, message):
        def refuse(*_):
            raise AssertionError("analyze consulted the switching rule on an invalid config")

        monkeypatch.setattr(analysis, "mode_switch", refuse)
        status = cli.run(["analyze", "--rho-db", "0"] + args)
        assert status == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("fig7", {"k_grid": [50]}),
            ("sweep", {"modes": ["conventional"]}),
            ("fig8", {"workers": 4}),
            ("fig3", {"codebook_mode": "dft"}),
            ("fig8", {"bcl": 4, "b_cl": 4}),
            ("fig8", {"k": {"users": 20}}),
            ("sweep", {"rho_db": [0, [10]]}),
            ("fig3", {"bcl": None, "seed": None, "trials": 5}),
            # Raw text: a dict cannot hold a repeated key.
            ("fig8", '{"trials": 5, "trials": 7}'),
        ],
    )
    def test_config_file_keys_refused(self, tmp_path, capsys, command, keys):
        config = tmp_path / "run.json"
        config.write_text(keys if isinstance(keys, str) else json.dumps(keys))
        out = tmp_path / "out"
        status = cli.run([command, "--config", str(config), "--trials", "2", "--out-dir", str(out)])
        assert status == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


    @pytest.mark.parametrize(
        "key, value",
        [
            ("rho_db", float("nan")),
            ("rho_db", [0, float("inf")]),
            ("m", float("-inf")),
            pytest.param("rho_db", 10**400, id="rho_db-int-beyond-float"),
            pytest.param("trials", 10**400, id="trials-int-beyond-float"),
            ("bcl", "abc"),
        ],
    )
    def test_config_file_non_finite_refused(self, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        status = cli.run(["sweep", "--config", str(config), "--trials", "2", "--out-dir", str(out)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"--{key.replace('_', '-')} takes finite numbers" in err
        assert not out.exists()

    @pytest.mark.parametrize("rho_db", ["4000", "-4000"])
    @pytest.mark.parametrize("command", ["analyze", "fig6", "fig7", "fig8", "sweep"])
    def test_snr_of_zero_or_infinite_linear_value_refused(self, tmp_path, capsys, monkeypatch, command, rho_db):
        from coopfb import montecarlo

        def refuse(*_, **__):
            raise AssertionError(f"{command} simulated at an SNR of {rho_db} dB")

        monkeypatch.setattr(montecarlo, "_simulate", refuse)
        args = [command, f"--rho-db={rho_db}"]
        if command != "analyze":
            args += ["--trials", "20", "--out-dir", str(tmp_path)]
        if command == "fig7":
            args += ["--k-grid", "50"]
        status = cli.run(args)
        assert status == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "whose linear value is positive and finite" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_codebook_too_large_to_allocate_exits_2(self, tmp_path, capsys, monkeypatch):
        from coopfb import montecarlo

        def unable(*_):  # what numpy raises for fig5 --bcl 40, without allocating
            raise MemoryError("Unable to allocate 64.0 TiB for an array with shape (1099511627776, 4)")

        monkeypatch.setattr(montecarlo, "gen_local_codebook", unable)
        status = cli.run(["fig5", "--bcl", "40", "--trials", "1", "--out-dir", str(tmp_path)])
        assert status == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not list(tmp_path.iterdir())


class TestEveryFlagActsOrIsRefused:
    """Every flag the parser ever offered, on every command, either changes
    what the run is given or exits 2 and writes nothing."""

    # A value for each flag that differs from every command's default.
    VALUES = {
        "--m": "5", "--n": "1", "--k": "20", "--k-grid": "30", "--bcl": "3", "--rho-db": "7",
        "--trials": "3", "--seed": "5", "--codebook": "dft", "--mode": "conventional",
        "--workers": "2", "--out-dir": None, "--config": None,
    }
    # The flags each command takes; fig7 takes --n and --bcl only together.
    ACCEPTED = {
        "fig3": "--m --n --bcl --trials --seed",
        "fig5": "--m --n --bcl --trials --seed --codebook",
        "fig6": "--m --n --bcl --rho-db --trials --seed --codebook",
        "fig7": "--m --k-grid --rho-db --trials --seed --codebook",
        "fig8": "--m --n --k --bcl --rho-db --trials --seed --codebook",
        "fig9": "--m --n --bcl --trials --seed --codebook",
        "sweep": "--m --n --k --bcl --rho-db --trials --seed --codebook --mode",
        "analyze": "--m --n --k --k-grid --bcl --rho-db",
    }
    WRITERS = "--workers --out-dir --config"

    class Captured(Exception):
        """What the command line handed to the run, which is not started."""

        def __init__(self, *args, **kwargs):
            self.given = (args, kwargs)

    @pytest.fixture
    def invoke(self, tmp_path, capsys, monkeypatch):
        from coopfb import montecarlo

        def captured(*args, **kwargs):
            raise self.Captured(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "run_experiment", captured)
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"seed": 5}))

        def invoke(command, *args):
            """The run's arguments, or the exit status and stderr."""
            args = [str(config) if a == "--config-file" else a for a in args]
            if command != "analyze":
                args += ["--out-dir", str(tmp_path / "out")]
            try:
                status = cli.run([command, *args])
            except SystemExit as exc:
                status = exc.code
            except self.Captured as run:
                return run.given
            return status, capsys.readouterr().err

        return invoke

    @pytest.mark.parametrize("command", list(ACCEPTED))
    def test_flag_acts_or_exits_2(self, tmp_path, command, invoke):
        accepted = self.ACCEPTED[command].split()
        if command != "analyze":
            accepted += self.WRITERS.split()
        baseline = invoke(command)
        wrong = []
        for flag, value in self.VALUES.items():
            args = [flag] if value is None else [flag, value]
            if flag == "--config":
                args.append("--config-file")
            if flag == "--out-dir" and command != "analyze":
                continue  # every writing run above is given one
            got = invoke(command, *args)
            if flag in accepted:
                if not isinstance(got[0], tuple) or got == baseline:
                    wrong.append(f"{flag} does not act: {got}")
            elif got[0] != 2 or "error:" not in got[1]:
                wrong.append(f"{flag} is not refused: {got}")
        assert not wrong
        assert not any(p.is_file() for p in tmp_path.rglob("*") if p.name != "seed.json")

    def test_fig7_pair_pins_one_configuration(self, invoke):
        (_, params), _ = invoke("fig7", "--n", "2", "--bcl", "4")
        assert params["configs"] == [(2, 4)]


class TestAdaptiveDecidedFirst:
    """Where both closed-form estimates are out of regime, adaptive runs stop
    with InvalidRegime before any trial is simulated; so does fig7 where its
    cooperative estimate is."""

    @pytest.fixture
    def rate_blocks(self, monkeypatch):
        from coopfb import montecarlo

        calls = []
        original = montecarlo._rate_block

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(montecarlo, "_rate_block", counted)
        return calls

    def test_sweep_adaptive_fails_before_simulating(self, tmp_path, capsys, rate_blocks):
        status = cli.run(
            ["sweep", "--mode", "adaptive", "--k", "16", "--rho-db", "0..20..5", "--out-dir", str(tmp_path)]
        )
        assert status == 2
        assert "out of regime" in capsys.readouterr().err
        assert rate_blocks == []

    def test_fig8_fails_before_simulating(self, tmp_path, capsys, rate_blocks):
        status = cli.run(["fig8", "--k", "16", "--n", "2", "--bcl", "8", "--out-dir", str(tmp_path)])
        assert status == 2
        assert "out of regime" in capsys.readouterr().err
        assert rate_blocks == []

    def test_fig7_estimates_every_point_before_simulating(self, tmp_path, capsys, monkeypatch):
        # k=50 is in regime and k=20 is not: no point may be simulated.
        from coopfb import montecarlo

        def refuse(*args, **kwargs):
            raise AssertionError("fig7 simulated before estimating every point")

        monkeypatch.setattr(montecarlo, "_simulate", refuse)
        status = cli.run(["fig7", "--trials", "1", "--k-grid", "50,20", "--out-dir", str(tmp_path)])
        assert status == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_records_unassigned_beams(self, tmp_path, rate_blocks):
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
        assert rate_blocks
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
