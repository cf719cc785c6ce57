import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lossmix
from lossmix import cli, composite, data, optim


def run_cli(argv):
    return cli.main(argv)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def moons_train_config(epochs=2, schemes=None, seeds=None, extra=None):
    doc = {
        "dataset": {"kind": "two_moons", "n": 80, "noise": 0.1, "seed": 0,
                    "val_fraction": 0.75},
        "model": {"layer_widths": [2, 8, 2], "output_kind": "softmax"},
        "train": {"epochs": epochs, "batch_size": 32, "learning_rate": 0.05},
        "schemes": schemes or [{"kind": "multi"}],
        "seeds": seeds or [1],
    }
    if extra:
        doc.update(extra)
    return doc


class TestVerifyCommand:
    def test_clean_build_exits_zero(self, tmp_path, capsys):
        code = run_cli(["verify", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert summary["all_passed"] is True
        assert summary["n_invariants"] >= 30

    def test_mutation_flips_to_exit_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(composite.MUTATE_ENV, "composite-grad-sign")
        code = run_cli(["verify", "--out", str(tmp_path)])
        assert code == 3
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        failing = [i["name"] for i in summary["invariants"] if not i["passed"]]
        assert "composite.gradient_matches_finite_differences" in failing

    def test_summary_schema(self, tmp_path, capsys):
        run_cli(["verify", "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert set(summary) == {"all_passed", "n_invariants", "invariants"}
        for item in summary["invariants"]:
            assert set(item) == {"name", "passed", "detail"}


class TestTrainCommand:
    def test_three_scheme_run(self, tmp_path, capsys):
        doc = moons_train_config(schemes=[
            {"kind": "single", "index": 0}, {"kind": "multi"},
            {"kind": "nonlinear", "p": 2.0}])
        cfg = write_config(tmp_path, doc)
        code = run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        csvs = list((tmp_path / "o").rglob("trajectory.csv"))
        assert len(csvs) == 3

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, moons_train_config())
        out = str(tmp_path / "o")
        assert run_cli(["train", "--config", cfg, "--out", out]) == 0
        first = next((tmp_path / "o").rglob("trajectory.csv")).read_bytes()
        assert run_cli(["train", "--config", cfg, "--out", out]) == 0
        second = next((tmp_path / "o").rglob("trajectory.csv")).read_bytes()
        assert first == second

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = moons_train_config()
        doc["train"]["learning_rte"] = 0.1  # typo must not be ignored
        cfg = write_config(tmp_path, doc)
        assert run_cli(["train", "--config", cfg,
                        "--out", str(tmp_path / "o")]) == 1

    def test_bound_block_is_unknown_key(self, tmp_path, capsys):
        # certificates come from `bounds` with posterior.params_file only
        doc = moons_train_config(extra={
            "bound": {"lambda": 1.0, "l_max": 1.0, "delta": 0.1}})
        cfg = write_config(tmp_path, doc)
        code = run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "'bound' was unexpected" in capsys.readouterr().err

    def test_width_mismatch_is_config_error(self, tmp_path, capsys):
        # a 3-wide softmax head cannot fit the 2-class two-moons targets
        doc = moons_train_config()
        doc["model"]["layer_widths"] = [2, 8, 3]
        cfg = write_config(tmp_path, doc)
        code = run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "model/layer_widths" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("train", [
        {"beta_rule": "softmax", "fixed_betas": [0.2, 0.8]},
        {"beta_rule": "fixed"},
    ])
    def test_dropped_weights_are_config_errors(self, tmp_path, monkeypatch,
                                               capsys, train):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with a config that drops its weights")

        monkeypatch.setattr(optim, "train", no_training)
        doc = moons_train_config()
        doc["train"].update(train)
        cfg = write_config(tmp_path, doc)
        code = run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "fixed" in capsys.readouterr().err

    def test_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, moons_train_config(seeds=[5, 6]))
        out = str(tmp_path / "o")
        code = run_cli(["train", "--config", cfg, "--out", out,
                        "--seed-override", "9"])
        assert code == 0
        dirs = [p.name for p in (tmp_path / "o").rglob("*seed*")]
        assert all("seed9" in d for d in dirs)

    def test_stacked_runs_match_one_config_per_call(self, tmp_path, capsys):
        schemes = [{"kind": "single", "index": 0}, {"kind": "multi"},
                   {"kind": "nonlinear", "p": 2.0}]
        cfg = write_config(tmp_path, moons_train_config(schemes=schemes, seeds=[1, 2]))
        assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "all"),
                        "--jobs", "3"]) == 0
        stacked = {p.parent.name: p for p in (tmp_path / "all").rglob("trajectory.csv")}
        assert len(stacked) == 6
        for scheme in schemes:
            for seed in (1, 2):
                one = write_config(tmp_path, moons_train_config(
                    schemes=[scheme], seeds=[seed]), name="one.json")
                out = tmp_path / "one"
                assert run_cli(["train", "--config", one, "--out", str(out)]) == 0
                (csv,) = out.rglob("trajectory.csv")
                assert csv.read_bytes() == stacked.pop(csv.parent.name).read_bytes()
                assert json.loads((csv.parent / "run.json").read_text())["stack_size"] == 1
                for f in csv.parent.iterdir():
                    f.unlink()
        assert not stacked
        meta = json.loads(next((tmp_path / "all").rglob("run.json")).read_text())
        assert meta["stack_size"] == 6

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_writes_partial_trajectory_and_failure(self, tmp_path, capsys):
        doc = moons_train_config(epochs=40, schemes=[{"kind": "single", "index": 0}],
                                 seeds=[3])
        # a linear model on MSE with a far too large step blows up after a while
        doc["model"] = {"layer_widths": [2, 2], "output_kind": "linear"}
        doc["train"].update(terms=["mse"], optimizer="sgd", learning_rate=100.0)
        cfg = write_config(tmp_path, doc)
        assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "non-finite" in capsys.readouterr().err
        (failure_path,) = (tmp_path / "o").rglob("failure.json")
        failure = json.loads(failure_path.read_text())
        assert failure["run"] == failure_path.parent.name == "single0-seed3"
        assert "seed 3" in failure["message"]
        rows = (failure_path.parent / "trajectory.csv").read_text().splitlines()[1:]
        assert failure["epoch"] > 0 and len(rows) == failure["epoch"]

    def test_outputs_carry_config_hash(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, moons_train_config())
        out = str(tmp_path / "o")
        run_cli(["train", "--config", cfg_path, "--out", out])
        meta = json.loads(next((tmp_path / "o").rglob("run.json")).read_text())
        assert len(meta["config_sha256"]) == 64


def test_every_train_setting_is_a_config_key():
    # a TrainConfig field no config can set is a knob nothing reaches
    fields = {f.name for f in dataclasses.fields(optim.TrainConfig)} - {"scheme", "seed"}
    assert fields == set(cli._TRAIN_FIELDS)


class TestKlsweepCommand:
    def test_default_testbed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"p_list": [1.0, 2.0, 3.0, 4.0]})
        code = run_cli(["klsweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads(
            next((tmp_path / "o").rglob("kl_report.json")).read_text())
        assert set(report["unweighted"]["d_non"]) == {"1", "2", "3", "4"}

    def test_p1_matches_multi(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"p_list": [1.0]})
        run_cli(["klsweep", "--config", cfg, "--out", str(tmp_path / "o")])
        report = json.loads(
            next((tmp_path / "o").rglob("kl_report.json")).read_text())
        for mode in ("weighted", "unweighted"):
            assert report[mode]["d_non"]["1"] == report[mode]["d_multi"]

    def test_invalid_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           {"grid": {"lo": 3.0, "hi": -3.0, "points": 101}})
        assert run_cli(["klsweep", "--config", cfg,
                        "--out", str(tmp_path / "o")]) == 1


class TestSpectralCommand:
    def test_small_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [1.0], "amplitudes": [1.0], "n_points": 64,
            "width": 8, "epochs": 5, "schemes": [{"kind": "multi"}],
            "seed": 1})
        code = run_cli(["spectral", "--config", cfg,
                        "--out", str(tmp_path / "o")])
        assert code == 0
        out_dir = next((tmp_path / "o").glob("spectral-*"))
        assert (out_dir / "capture.csv").exists()
        doc = json.loads((out_dir / "capture.json").read_text())
        assert "capture_epochs" in doc


class TestBoundsCommand:
    def bounds_config(self, extra_posterior=None):
        post = {"sigma": 0.1}
        if extra_posterior:
            post.update(extra_posterior)
        return {
            "dataset": {"kind": "two_moons", "n": 60, "noise": 0.1, "seed": 2},
            "model": {"layer_widths": [2, 6, 2], "output_kind": "softmax"},
            "train": {"epochs": 2, "batch_size": 32},
            "scheme": {"kind": "multi"},
            "posterior": post,
            "prior": {"lambda_p": 1.0},
            "bound": {"lambda": 1.0, "l_max": 1.0, "delta": 0.05,
                      "eps_dp": 0.01},
            "n_samples": 10,
            "seed": 3,
        }

    def test_trained_model_certificate(self, tmp_path, monkeypatch, capsys):
        def no_rows(*args, **kwargs):
            raise AssertionError("bounds computed telemetry rows it never reads")

        monkeypatch.setattr(optim, "_epoch_row", no_rows)
        cfg = write_config(tmp_path, self.bounds_config())
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        path = next((tmp_path / "o").rglob("certificate.json"))
        cert = json.loads(path.read_text())
        assert cert["risk_upper"] >= cert["emp_risk"]
        # recorded when the posterior mean was still trained with telemetry rows
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d0a038555249e1a2eb7d21594e4f0695a3f40a7a9232790e0ccaeeed6e022d41")

    def test_bad_lambda_rejected_before_training(self, tmp_path, monkeypatch,
                                                 capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the bound block was checked")

        monkeypatch.setattr(optim, "train", no_training)
        doc = self.bounds_config()
        doc["bound"]["lambda"] = 0.3
        cfg = write_config(tmp_path, doc)
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "1/2" in capsys.readouterr().err

    def test_width_mismatch_is_config_error(self, tmp_path, capsys):
        doc = self.bounds_config()
        doc["model"]["layer_widths"] = [3, 6, 2]
        cfg = write_config(tmp_path, doc)
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "model/layer_widths" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_model_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.bounds_config(
            {"params_file": str(tmp_path / "nope.npz")}))
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing model file" in capsys.readouterr().err

    def test_params_file_used(self, tmp_path, capsys):
        from lossmix import netcore
        from lossmix.netcore import MLPSpec
        spec = MLPSpec((2, 6, 2), output_kind="softmax")
        params = netcore.init_params(spec, 4, 0.5)
        np.savez(tmp_path / "model.npz", params=params)
        cfg = write_config(tmp_path, self.bounds_config(
            {"params_file": str(tmp_path / "model.npz")}))
        assert run_cli(["bounds", "--config", cfg,
                        "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("argv", [
    ["verify", "--jobs", "4"],
    ["verify", "--seed-override", "3"],
    ["klsweep", "--config", "c.json", "--jobs", "2"],
    ["klsweep", "--config", "c.json", "--seed-override", "3"],
    ["spectral", "--config", "c.json", "--jobs", "2"],
    ["bounds", "--config", "c.json", "--jobs", "2"],
    ["train", "--config", "c.json", "--jobs", "0"],
    ["nosuchcommand"],
])
def test_usage_error_exits_one(argv, capsys):
    # flags a command would ignore are refused, and a bad command line is a
    # validation failure (1), not a runtime failure (2)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_imports_no_scipy():
    # only sigmoid nets need scipy, and they import it on first use
    src = str(Path(lossmix.__file__).resolve().parents[1])
    probe = ("import sys, lossmix.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
