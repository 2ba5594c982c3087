"""Command-line interface: config merging, exit codes, file outputs, determinism."""

import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from cldp.accountant import ExplicitShuffling, SamplingParams, amplify_by_shuffling, end_to_end
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
        assert "epsilon0 = 0.3" in out
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

    def test_asymptotic_variant(self, capsys):
        code = main(
            "accountant --eps0 1.5 --variant asymptotic --c 0.5 --T 10 "
            "--m 100000 --k 20000 --r 5 --s 1 --delta 1e-6".split()
        )
        assert code == 0
        assert "asymptotic" in capsys.readouterr().out


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
         (["bounds", "--eps0", "inf"], "epsilon0 must be positive and finite")],
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
         ["train", "--eps0", "800", "--T", "1", "--account", "false"]],
        ids=["bounds", "mean-est", "train"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_epsilon0_past_exp_overflow_runs(self, argv, tmp_path, capsys):
        # e^eps0 overflows a float64 above eps0 of about 709.78; the privacy
        # ratio there is its float64 value 1.0, and every command completes.
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

    def test_loads_binary_dataset(self, tmp_path, capsys):
        clients, _ = synthetic_logistic_data(m=4, r=3, d=2, seed=5)
        data_path = tmp_path / "clients.bin"
        save_dataset_binary(data_path, clients)
        code = main(self.ARGS + ["--data", str(data_path), "--out", str(tmp_path / "bin")])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "bin.csv").exists()

    def test_loads_csv_dataset(self, tmp_path, capsys):
        clients, _ = synthetic_logistic_data(m=4, r=3, d=2, seed=5)
        data_path = tmp_path / "clients.csv"
        save_dataset_csv(data_path, clients)
        code = main(self.ARGS + ["--data", str(data_path), "--out", str(tmp_path / "csv")])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "csv.csv").exists()

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
    "4281966d96970f3fbea218b73e9490494dda39ac9295fa54f44d27fc9751f56a  accountant.json",
    "daf737175c381f9d4847fb0a7aa1ee57872cad25c162ce4b532f778c1df4491a  accountant_asymptotic.json",
    "8d721ab3b977c2907d7716d642719da331722ec3230a54575b772be1e84930a6  accountant_asymptotic_calibrated.json",
    "7981248ab6cc9a23d49194758fe7808909d4ff905832053ae0040d9b5a52d455  accountant_calibrated.json",
    "80de6dc053e9e0c0a33697912785bc387ec2b37a6a76f4e0a84a4b3406ec01ac  bounds.csv",
    "41990d2051b62b6bc3a1b3c220c217698d529e86cb4500f673de21f4658a30ac  mean_est.csv",
    "50d090e610fd20835368cc5d126456c3ad4c9eeb605fd787b466a5f7c57dff45  mean_est_mix.csv",
    "0d1b81f233348924e2d8d54c67013ee762c43625b55104bca75a838c3ada805c  train_eps0_inf.csv",
    "4fbeda2b3e7682cc0cf1464d655661aaaa86e45da8cfb8c3cde3572849f57ef0  train_eps0_inf.json",
    "3ba6e4eb18634475cd25edbeb24513d5ec681be9d413e3c5d7cb55ee8f285681  train_l1_accounted.csv",
    "69b9bc4b90dfe55e5a47fef20771b42ea08a5900c913b629566f83ac37628175  train_l1_accounted.json",
    "5d75786932afdb1d8c0fe611a79ad4c902de0d753324ad01d70ccb9a20c74d35  train_l2.csv",
    "51bc795abbacc7f3acffea078775ab934bc5fe0236baf314bf74ee8b569c8d19  train_l2.json",
    "6bc2d0134a32e545878997808885969501702112fd23fa3a936336d78026a70f  train_linf_s1.csv",
    "65131ecd65520d1a0d8439bb2535cf2e2bd718a7876d4bff622e21fa519d0dd7  train_linf_s1.json",
    "c696278e5649ffdb5a1a4f8c3388f5108f24be3eb269a7c33893990f15ac66fb  train_mix_s1.csv",
    "c181aa46d28ae99e97e96095658813f4a7a6de58fbd58aa16a3398d325724efa  train_mix_s1.json",
    "cea3998f0f5b5c00ad183ea2227113e139f7c6625f7135e83306296bbb1a26e6  train_mix_s2.csv",
    "d7f1ae430d913205221d59bb1bddf23a3aa99ef08f0f2edf74ed3571244c8f6f  train_mix_s2.json",
]


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

    def test_accountant_report(self, capsys):
        load_script("accountant_report").run(m=2000, k=1000, r=1, delta=1e-6, target_eps=2.0)
        out = capsys.readouterr().out
        assert out.count("-> epsilon=") == 9  # the (eps0, T) grid
        assert "provenance at eps0=0.2, T=100:" in out
