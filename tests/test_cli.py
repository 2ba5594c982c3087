"""Command-line interface: config merging, exit codes, file outputs, determinism."""

import importlib.util
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from cldp.accountant import (
    ExplicitShuffling,
    PrivacyBudget,
    SamplingParams,
    Stage,
    amplify_by_shuffling,
    end_to_end,
)
from cldp.cli import ENV_OUT_DIR, TRACE_COLUMNS, main
from cldp.fedsim import synthetic_logistic_data, save_dataset_binary, save_dataset_csv


def read_csv_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1].startswith("# units: ")
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    return header, rows


class TestConfigHandling:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps0": 0.3, "bogus": 1, "extra": 2, "seed": 1}))
        code = main(["accountant", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "extra" in err and "seed" in err
        assert "allowed" in err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["accountant", "--config", str(cfg)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps0": 0.3, "T": 10, "m": 5000, "k": 2500}))
        out = tmp_path / "budget.json"
        code = main(
            ["accountant", "--config", str(cfg), "--eps0", "0.25", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["budget"]["epsilon0"] == 0.25  # flag beat config file
        assert payload["budget"]["T"] == 10  # file beat the default of 100

    def test_bad_flag_value_exits_2(self, capsys):
        assert main(["accountant", "--eps0", "abc"]) == 2
        assert "number" in capsys.readouterr().err

    def test_non_integral_integer_value_exits_2(self, capsys):
        assert main(["accountant", "--T", "2.5"]) == 2
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["accountant", "bounds"])
    def test_seed_flag_of_deterministic_commands_exits_2(self, command, capsys):
        # Neither command draws a random number, so neither takes a seed.
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_bad_variant_exits_2(self, capsys):
        assert main(["accountant", "--variant", "magic"]) == 2
        capsys.readouterr()

    def test_a_registered_bound_is_a_variant(self, halving, capsys):
        # A new shuffling bound is one entry in the accountant's registry:
        # --variant takes it, and the error for an unknown name lists it.
        args = "accountant --eps0 0.3 --T 1 --m 2000 --k 2000 --variant".split()
        assert main(args + ["halving"]) == 0
        out = capsys.readouterr().out
        assert "shuffling, halving (a test bound) with k*s = 2000" in out
        assert "epsilon = 0.15, " in out
        assert main(args + ["magic"]) == 2
        err = capsys.readouterr().err
        assert "'magic'" in err and all(name in err for name in ("clones", "explicit", "halving"))

    @pytest.mark.parametrize(
        "command, body",
        [
            ("accountant", {"eps0": True}),
            ("train", {"account": "maybe"}),
            ("train", {"task": 5}),
            ("mean-est", {"p": []}),
            ("accountant", [1, 2]),
        ],
        ids=["bool_number", "bool_word", "task_number", "empty_list", "json_list"],
    )
    def test_malformed_config_value_exits_2(self, command, body, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "blob",
        [b'{"T": 1' + b"0" * 5000 + b"}", b'{"variant": "\xe9"}'],
        ids=["int_past_digit_limit", "latin1"],
    )
    def test_undecodable_config_exits_2(self, blob, tmp_path, capsys):
        # Python refuses to read an int of more than 4300 digits, and a text
        # file that is not UTF-8; both are ValueErrors, not JSON syntax errors.
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(blob)
        assert main(["accountant", "--config", str(cfg)]) == 2
        assert "config file is not valid JSON" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        assert main(["accountant", "--config", str(tmp_path / "missing.json")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        ["accountant --cal 1.0 --T 10 --m 5000 --k 2500", "train --cl 0.5 --T 1 --account false"],
    )
    def test_flag_prefix_exits_2(self, argv, capsys):
        # A unique prefix of a flag is not that flag, as a prefix of a config
        # key is not that key.
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestUnwritableOutput:
    # Each subcommand that writes a file, with a fast configuration.
    COMMANDS = {
        "mean-est": ["mean-est", "--trials", "2", "--n", "10"],
        "bounds": ["bounds"],
        "accountant": ["accountant"],
        "train": "train --m 4 --k 2 --r 3 --T 2 --d 2 --account false".split(),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_directory_exits_2(self, command, tmp_path, capsys):
        # An --out in a directory that does not exist is an invalid argument.
        out = tmp_path / "missing" / "x"
        assert main(self.COMMANDS[command] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error:") and str(out) in line for line in err)


class TestAccountantCommand:
    def test_prints_provenance_and_final_pair(self, capsys):
        code = main(
            "accountant --eps0 0.3 --delta 1e-6 --T 10 --m 5000 --k 2500 --r 1 --s 1".split()
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "local randomizer: epsilon = 0.3, delta = 0" in out
        assert "shuffling" in out
        assert "strong composition" in out
        assert "epsilon = " in out and "delta = " in out
        budget = end_to_end(0.3, 1e-6, 10, SamplingParams(5000, 2500, 1, 1))
        assert repr(budget.epsilon) in out

    def test_single_round_full_participation_passthrough(self, capsys):
        # q=1, T=1: the sampling stage passes epsilon_tilde through untouched,
        # and the printed chain shows the same value on both lines.
        code = main(
            "accountant --eps0 0.3 --delta 1e-6 --T 1 --m 2000 --k 2000 --r 1 --s 1".split()
        )
        assert code == 0
        out = capsys.readouterr().out
        eps_tilde = amplify_by_shuffling(0.3, 5e-7, 2000, ExplicitShuffling())
        assert out.count(f"{eps_tilde:.12g}") >= 2  # shuffling line and sampling line

    def test_precondition_violation_exits_3(self, capsys):
        assert main(["accountant", "--eps0", "0.6"]) == 3
        assert "1/2" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--calibrate", "1"]], ids=["budget", "calibrate"])
    def test_invalid_delta_split_exits_3(self, extra, capsys):
        # delta/(2qT) = 0.5/(2 * 0.001 * 1) >= 1: one failed precondition, one exit code.
        argv = "accountant --m 1000 --k 1 --r 1000 --delta 0.5 --T 1".split()
        assert main(argv + extra) == 3
        assert "delta/(2qT)" in capsys.readouterr().err

    def test_infeasible_calibration_exits_3(self, capsys):
        code = main(
            "accountant --calibrate 1e-12 --delta 1e-6 --T 10 --m 5000 --k 2500".split()
        )
        assert code == 3
        capsys.readouterr()

    def test_calibration_roundtrip(self, tmp_path, capsys):
        target = end_to_end(0.3, 1e-6, 10, SamplingParams(5000, 2500, 1, 1)).epsilon
        out = tmp_path / "cal.json"
        code = main(
            [
                "accountant", "--calibrate", repr(target), "--delta", "1e-6",
                "--T", "10", "--m", "5000", "--k", "2500", "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "calibrated epsilon0" in text
        payload = json.loads(out.read_text())
        assert payload["calibrated_epsilon0"] == pytest.approx(0.3, rel=1e-6)
        assert payload["budget"]["epsilon"] <= target

    def test_clones_variant(self, capsys):
        # train_deploy's sampling at eps0 = 1, which the explicit bound refuses.
        args = "accountant --eps0 1.0 --T 1 --m 5000 --k 1000 --r 4 --delta 1e-6".split()
        assert main(args + ["--variant", "clones"]) == 0
        out = capsys.readouterr().out
        assert "clones bound" in out
        assert "epsilon = 0.187126270" in out
        assert main(args) == 3
        assert "1/2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["accountant", "train"])
    def test_removed_constant_key_exits_2(self, command, tmp_path, capsys):
        # The shuffling bounds state their constants: there is no "c" to set.
        with pytest.raises(SystemExit) as exc:
            main([command, "--c", "1"])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 1.0}))
        assert main([command, "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestMeanEstCommand:
    def test_writes_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "mean-est", "--p", "1", "2", "--d", "2", "4", "--n", "20",
                "--eps0", "1.0", "--trials", "10", "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        header, rows = read_csv_table(out)
        assert header[0] == "p" and "empirical_mse" in header
        assert len(rows) == 4  # 2 p-values x 2 dims
        for row in rows:
            assert float(row[header.index("empirical_mse")]) >= 0.0
            upper = float(row[header.index("risk_upper_worst")])
            lower = float(row[header.index("risk_lower_order_only")])
            assert upper > 0.0 and lower > 0.0

    def test_single_point_dataset_runs(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code = main(
            ["mean-est", "--n", "1", "--d", "2", "--trials", "5", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        _, rows = read_csv_table(out)
        assert len(rows) == 1

    def test_mix_family_sweep(self, tmp_path, capsys):
        out = tmp_path / "mix.csv"
        code = main(
            [
                "mean-est", "--p", "4", "--d", "4", "--n", "10", "--eps0", "1.0",
                "--mix-prob", "0.5", "--trials", "5", "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        _, rows = read_csv_table(out)
        assert len(rows) == 1

    def test_intermediate_p_without_mix_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = main(["mean-est", "--p", "4", "--out", str(out)])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["mean-est", "bounds"])
    def test_failed_grid_leaves_no_artifact(self, command, tmp_path, capsys):
        # p = 4 without --mix-prob fails on the grid's cell, after the output
        # path is known: neither the CSV nor a temporary file may remain.
        assert main([command, "--p", "4", "--out", str(tmp_path / "bad.csv")]) == 2
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["mean-est", "--a", "inf"], ["bounds", "--a", "inf"],
         ["train", "--clip", "inf", "--account", "false"]],
        ids=["mean-est", "bounds", "train"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_radius_exits_2_and_leaves_no_artifact(self, argv, tmp_path, capsys):
        # A ball of infinite radius draws from NaN probabilities and writes
        # nan or inf rows; it is rejected before any draw or output.
        assert main(argv + ["--out", str(tmp_path / "inf")]) == 2
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [(["mean-est", "--p", "2", "--a", "1e200"], "square overflows"),
         (["mean-est", "--p", "1.5", "--mix-prob", "0.5", "--a", "1e200"], "square overflows"),
         (["bounds", "--eps0", "inf"], "epsilon0 must be in (0, inf), got inf")],
        ids=["l2_radius", "mix_l2_arm_radius", "bounds_eps0_inf"],
    )
    def test_spec_out_of_range_exits_2_and_leaves_no_artifact(self, argv, message, tmp_path, capsys):
        # An l2 stage whose radius squares to inf in float64, and a bounds
        # query at eps0 = inf (the uncompressed baseline, which these risk
        # columns do not describe), are refused before any output.
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [(["bounds", "--p", "1", "inf", "--d", "8", "--n", "100", "--eps0", "1", "--a", "1e200"],
          "its square overflows float64"),
         (["mean-est", "--p", "1", "inf", "--a", "1e200", "--trials", "3"],
          "its square overflows float64"),
         (["bounds", "--p", "1", "inf", "--d", "8", "--n", "100", "--eps0", "1e-200"],
          "squared privacy ratio"),
         (["mean-est", "--p", "1", "--eps0", "1e-200", "--trials", "2"], "squared privacy ratio"),
         (["train", "--eps0", "1e-160", "--T", "1", "--account", "false"],
          "squared privacy ratio")],
        ids=["bounds", "mean-est", "bounds_tiny_eps0", "mean-est_tiny_eps0", "train_tiny_eps0"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_risk_radius_square_overflow_exits_2_and_leaves_no_artifact(
        self, argv, message, tmp_path, capsys, monkeypatch
    ):
        # The mechanisms take such a radius, or such a tiny epsilon0, but the
        # risk columns and G^2 are in squared units and would overflow; the
        # cell or run is refused before any draw or output.
        def no_draw(*args):
            raise AssertionError("drew before the bounds were checked")

        monkeypatch.setattr("cldp.mechanisms.mean_estimate_trials", no_draw)
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "--p", "1", "inf", "--d", "8", "--n", "100", "--eps0", "800"],
         ["mean-est", "--p", "1", "--eps0", "800", "--trials", "2"],
         ["train", "--eps0", "800", "--T", "1", "--account", "false"],
         ["bounds", "--p", "1", "inf", "--d", "8", "--n", "100", "--eps0", "1e200"],
         ["mean-est", "--p", "1", "--eps0", "1e200", "--trials", "2"]],
        ids=["bounds", "mean-est", "train", "bounds_eps0_1e200", "mean-est_eps0_1e200"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_epsilon0_past_exp_overflow_runs(self, argv, tmp_path, capsys):
        # e^eps0 overflows a float64 above eps0 of about 709.78; the privacy
        # ratio there is its float64 value 1.0, and every command completes.
        # So it does above about 1.34e154, where eps0^2 overflows in the
        # lower bound.
        stem = str(tmp_path / "out")
        assert main(argv + ["--out", stem if argv[0] == "train" else stem + ".csv"]) == 0
        capsys.readouterr()
        header, rows = read_csv_table(tmp_path / "out.csv")
        assert len(rows) == (2 if argv[0] == "bounds" else 1)

    def test_out_symlink_is_written_through(self, tmp_path, capsys):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real)
        assert main(["bounds", "--out", str(link)]) == 0
        capsys.readouterr()
        assert link.is_symlink()
        assert real.read_text().startswith("# config_sha256=")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_out_special_file_is_written_in_place(self, capsys):
        assert main(["bounds", "--out", os.devnull]) == 0
        capsys.readouterr()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["mean-est", "--d", "4", "--n", "30", "--trials", "20", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestBoundsCommand:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = main(
            ["bounds", "--p", "1", "2", "inf", "--d", "8", "--n", "100", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        header, rows = read_csv_table(out)
        assert len(rows) == 3
        assert "g_squared" in header and "convergence_bound" in header

    def test_env_var_sets_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path))
        assert main(["bounds"]) == 0
        capsys.readouterr()
        assert (tmp_path / "bounds.csv").exists()


class TestTrainCommand:
    ARGS = (
        "train --m 4 --k 2 --r 3 --s 1 --T 2 --eps0 1.0 --delta 1e-5 "
        "--p 2 --clip 1 --d 2 --diameter 2 --account false"
    ).split()

    def test_writes_trace_and_model(self, tmp_path, capsys):
        base = tmp_path / "run"
        code = main(self.ARGS + ["--out", str(base)])
        assert code == 0
        capsys.readouterr()
        header, rows = read_csv_table(tmp_path / "run.csv")
        assert header == list(TRACE_COLUMNS)
        assert [row[0] for row in rows] == ["1", "2"]  # one row per round, from t = 1
        assert all(len(row[1].split(";")) == 2 for row in rows)  # k sampled clients
        payload = json.loads((tmp_path / "run.json").read_text())
        assert len(payload["theta"]) == 2
        assert isinstance(payload["final_loss"], float)
        # repr round-trips: the trace's last loss reads back bit for bit
        assert float(rows[-1][header.index("loss")]) == payload["final_loss"]
        assert payload["budget"]["guarantee"] is False
        assert math.isnan(payload["budget"]["epsilon"])

    def test_config_file_numbers_and_bools(self, tmp_path, capsys):
        # A JSON integral float reads as its integer and a JSON bool passes
        # through: {"T": 2.0, "account": false} is --T 2 --account false, with
        # the same config hash and artifacts byte for byte.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 2.0, "account": False}))
        flags = " ".join(self.ARGS).replace(" --T 2", "").replace(" --account false", "")
        assert main(flags.split() + ["--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
        assert main(self.ARGS + ["--out", str(tmp_path / "flags")]) == 0
        capsys.readouterr()
        for ext in (".csv", ".json"):
            assert (tmp_path / f"file{ext}").read_bytes() == (tmp_path / f"flags{ext}").read_bytes()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(self.ARGS + ["--seed", "-1", "--out", str(tmp_path / "x")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_above_2_53_is_exact(self, tmp_path, capsys):
        # Through a float, 2**53 + 1 would round to 2**53 and rerun that seed.
        for seed in (2**53, 2**53 + 1):
            assert main(self.ARGS + ["--seed", str(seed), "--out", str(tmp_path / str(seed))]) == 0
        capsys.readouterr()
        a = (tmp_path / f"{2**53}.csv").read_text().splitlines()
        b = (tmp_path / f"{2**53 + 1}.csv").read_text().splitlines()
        assert a[0] != b[0] and a[3:] != b[3:]  # config hash, then the rounds

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        a_json = json.loads((tmp_path / "a.json").read_text())
        b_json = json.loads((tmp_path / "b.json").read_text())
        assert a_json == b_json

    def run_saved_data(self, tmp_path, capsys, save, name):
        # The config's own data (m=4, r=3, d=2, seed 0), saved and given as
        # --data, trains byte for byte as the run that synthesizes it: only
        # the line naming the config differs, since the config names the file.
        clients, _ = synthetic_logistic_data(m=4, r=3, d=2, seed=0)
        data_path = tmp_path / name
        save(data_path, clients)
        assert main(self.ARGS + ["--out", str(tmp_path / "synth")]) == 0
        assert main(self.ARGS + ["--data", str(data_path), "--out", str(tmp_path / "loaded")]) == 0
        capsys.readouterr()
        for ext in (".csv", ".json"):
            synth = (tmp_path / f"synth{ext}").read_text().splitlines()
            loaded = (tmp_path / f"loaded{ext}").read_text().splitlines()
            assert len(synth) == len(loaded) > 3
            differ = [(a, b) for a, b in zip(synth, loaded) if a != b]
            assert len(differ) == 1 and all("config_sha256" in line for line in differ[0])

    def test_loads_binary_dataset(self, tmp_path, capsys):
        self.run_saved_data(tmp_path, capsys, save_dataset_binary, "clients.bin")

    def test_loads_csv_dataset(self, tmp_path, capsys):
        self.run_saved_data(tmp_path, capsys, save_dataset_csv, "clients.csv")

    def test_dataset_mismatching_config_exits_2(self, tmp_path, capsys):
        clients, _ = synthetic_logistic_data(m=3, r=3, d=2, seed=5)  # m=3, config wants 4
        data_path = tmp_path / "clients.bin"
        save_dataset_binary(data_path, clients)
        code = main(self.ARGS + ["--data", str(data_path), "--out", str(tmp_path / "x")])
        assert code == 2
        capsys.readouterr()

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.bin")
        code = main(self.ARGS + ["--data", missing, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "missing.bin" in capsys.readouterr().err

    def test_accounted_requires_valid_preconditions(self, tmp_path, capsys):
        args = (
            "train --m 4 --k 2 --r 3 --s 1 --T 2 --eps0 1.0 --delta 1e-5 "
            "--p 2 --clip 1 --d 2 --diameter 2 --account true"
        ).split()
        code = main(args + ["--out", str(tmp_path / "acct")])
        assert code == 3  # batch of 2 messages violates the shuffling bound
        capsys.readouterr()


class TestDeterminismAcrossProcessesSurrogate:
    def test_numpy_state_isolation(self, tmp_path, capsys):
        # Global numpy RNG state must not leak into CLI results.
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        np.random.seed(1)
        assert main(["mean-est", "--trials", "5", "--n", "10", "--out", str(out1)]) == 0
        np.random.seed(2)
        assert main(["mean-est", "--trials", "5", "--n", "10", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# scripts/parity.py's output, '<sha256>  <artifact>' sorted by name, as recorded
# with Python 3.11 and numpy 2.4.
PARITY_SHA256 = [
    "65d3f9c15e775d8b3b806af1aca581640d2c2550062e5062e4d5f119fbee051c  accountant.json",
    "9efa2a5690c17acb173ca8918d49c5c0ca3a60ad19556aa77d36b66fcb185944  accountant_calibrated.json",
    "9b34a156ba8ea1ec5b267cdb2c3dfb5af7df7935b43de9541c4c101eec4f90e5  accountant_clones.json",
    "f7750dd31a280c24db89c3c3b4d4a961a335115d711b7ad4307c42ab54ad12b9  accountant_clones_calibrated.json",
    "80de6dc053e9e0c0a33697912785bc387ec2b37a6a76f4e0a84a4b3406ec01ac  bounds.csv",
    "41990d2051b62b6bc3a1b3c220c217698d529e86cb4500f673de21f4658a30ac  mean_est.csv",
    "50d090e610fd20835368cc5d126456c3ad4c9eeb605fd787b466a5f7c57dff45  mean_est_mix.csv",
    "9e0a6f337a2bb135066039bd59534a665f2b8b7fe5ebc5b2df187e3837041f29  train_eps0_inf.csv",
    "2484c5809e773d081133700e5e799ff81ed958a406223a66d5f221559b38a654  train_eps0_inf.json",
    "63bec8d8cb64bc0ec21784a2025f1642b8d9e27ad476d9851360fec34de3be58  train_l1_accounted.csv",
    "944e2ff032fa6366c755c50c3845b5ebb9462ed3c8931e32dec4bf02ea9ffa66  train_l1_accounted.json",
    "811bda729d442286d35b1e05842266e039e63f7bdc34b32e8901b032cb01594b  train_l2.csv",
    "b7744fbf64df1e40062384cf29a44cd64f95e271a6a7ac486710d957009964c4  train_l2.json",
    "c72d880ca5ec361f8cdf914ede065d340849d9f340c944b70bcaabf640d27ab0  train_linf_s1.csv",
    "248dda34c35d66a42ebd3c3e2785d337b8d005383ecf6e657d83cd82006fa61a  train_linf_s1.json",
    "91d4d8f7a44a2cc5f1870154854375955e757df78587442cedbc69557235ad62  train_mix_s1.csv",
    "f665f630926c0dd0452f2868aff96708462be6f5c9dfb81cd4a87c73b2c4163c  train_mix_s1.json",
    "f23259785e525cac61c94af2933fbfb9b82a5534af295ccee433c34c7fae82d3  train_mix_s2.csv",
    "02b01511df470f8853ba2f2dc223fc1b3ec83dda037ddf66f743154c441ea41f  train_mix_s2.json",
]


# The accounted parity artifacts' budgets as they were written before a budget
# became a chain of stages: the reprs of its epsilon0, epsilon_tilde,
# delta_tilde, epsilon_bar, delta_bar, epsilon and delta fields, then every
# number its four provenance lines printed (at .12g), in order.
FOUR_FIELD_BUDGETS = {
    "accountant.json": (
        "0.3 0.28906090682513247 1e-07 0.15493881796622552 5e-08 2.898957164232337 1e-06",
        "0.3 2500 1e-07 0.289060906825 0.5 0.154938817966 5e-08 10 5e-07 2.89895716423 1e-06",
    ),
    "accountant_calibrated.json": (
        "0.1146484765575621 0.1104679753328295 1e-07 0.05675860938189854 5e-08 "
        "0.9999999998350597 1e-06",
        "0.114648476558 2500 1e-07 0.110467975333 0.5 0.0567586093819 5e-08 10 5e-07 "
        "0.999999999835 1e-06",
    ),
    "accountant_clones.json": (
        "1.5 0.6466880697755353 1e-07 0.3747334186679317 5e-08 8.086936615343618 1e-06",
        "1.5 2500 1e-07 0.646688069776 0.5 0.374733418668 5e-08 10 5e-07 8.08693661534 1e-06",
    ),
    "accountant_clones_calibrated.json": (
        "0.7420416194312804 0.29763165017038445 1e-07 0.1598482687454255 5e-08 "
        "2.9999999974603266 1e-06",
        "0.742041619431 2500 1e-07 0.29763165017 0.5 0.159848268745 5e-08 10 5e-07 "
        "2.99999999746 1e-06",
    ),
    "train_l1_accounted": (
        "0.4 0.5085563958536212 1.3333333333333335e-05 0.07960671742030272 "
        "1.6666666666666669e-06 0.701049572539047 1e-05",
        "0.4 1000 1.33333333333e-05 0.508556395854 0.125 0.0796067174203 1.66666666667e-06 "
        "3 5e-06 0.701049572539 1e-05",
    ),
}


def budget_from_json(fields: dict) -> PrivacyBudget:
    """A budget back from its JSON object."""
    stages = tuple(
        Stage(**{**stage, "inputs": tuple(map(tuple, stage["inputs"]))})
        for stage in fields["stages"]
    )
    return PrivacyBudget(**{**fields, "stages": stages, "notes": tuple(fields["notes"])})


class TestScripts:
    """Each script in scripts/ runs end to end at a small size."""

    def test_mean_est_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert load_script("mean_est_sweep").run(str(out), trials=2, seed=0) == 0
        header, rows = read_csv_table(out)
        assert "empirical_mse" in header
        assert len(rows) == 3 * 3 * 2 * 3  # the p x d x n x eps0 grid
        assert "cells above their ceiling" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::cldp.errors.ClippingWarning")  # clip 0.5 on purpose
    def test_train_demo(self, tmp_path, capsys):
        stem = tmp_path / "demo" / "run"
        assert load_script("train_demo").run(str(stem), T=2, seed=0) == 0
        capsys.readouterr()
        for tag in ("1", "4", "inf"):
            header, rows = read_csv_table(tmp_path / "demo" / f"run_eps0_{tag}.csv")
            assert header == list(TRACE_COLUMNS) and len(rows) == 2
            assert (tmp_path / "demo" / f"run_eps0_{tag}.json").exists()

    def test_parity(self, tmp_path, capsys):
        # Every artifact kind the CLI writes, byte for byte: a change that
        # moves any of these hashes changes a result and must say so.
        assert load_script("parity").run(str(tmp_path)) == 0
        assert capsys.readouterr().out.splitlines() == PARITY_SHA256
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            line.split()[1] for line in PARITY_SHA256
        ]

    @pytest.mark.filterwarnings("ignore::cldp.errors.ClippingWarning")  # the parity train run clips
    @pytest.mark.parametrize("stem", sorted(FOUR_FIELD_BUDGETS))
    def test_parity_budgets_keep_every_number(self, stem, tmp_path, capsys):
        # The stages hold each float the four-field budget held, bit for bit,
        # and the provenance rendered from them prints every number it did.
        args = dict(load_script("parity").COMMANDS)[stem].split()
        assert main(args + ["--out", str(tmp_path / stem)]) == 0
        printed = capsys.readouterr().out
        path = tmp_path / (stem if stem.endswith(".json") else stem + ".json")
        payload = json.loads(path.read_text())
        budget = payload["budget"]
        local, shuffled, sampled, composed = budget["stages"]
        floats, numbers = FOUR_FIELD_BUDGETS[stem]
        now = [
            local["epsilon"], shuffled["epsilon"], shuffled["delta"], sampled["epsilon"],
            sampled["delta"], composed["epsilon"], composed["delta"],
        ]
        assert [repr(value) for value in now] == floats.split()
        assert (budget["epsilon0"], budget["epsilon"], budget["delta"]) == (
            local["epsilon"], composed["epsilon"], composed["delta"]
        )
        if "calibrated" in stem:
            assert repr(payload["calibrated_epsilon0"]) == floats.split()[0]
        provenance = budget_from_json(budget).provenance
        shown = re.findall(r"= (-?[0-9][0-9.e+-]*)", "\n".join(provenance))
        assert set(numbers.split()) <= set(shown)
        if stem.startswith("accountant"):  # the command prints what the JSON renders
            assert "\n".join(provenance) in printed

    def test_accountant_report(self, capsys):
        load_script("accountant_report").run(m=2000, k=1000, r=1, delta=1e-6, target_eps=2.0)
        out = capsys.readouterr().out
        assert out.count("-> epsilon=") == 9  # the (eps0, T) grid
        # both bounds' calibration rows: 1000 messages leave the clones cap above 1
        assert "shuffling, explicit constants:" in out
        assert "clones bound" in out and "eps0 <= 1." in out
        assert "provenance at eps0=0.2, T=100:" in out
