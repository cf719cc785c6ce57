import argparse
import ast
import copy
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lossmix
from lossmix import analysis, cli, composite, data, optim, pacbayes, spectral
from lossmix.netcore import MLPSpec
from lossmix.schema import check


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


def strict_json(text):
    """The JSON document in text; NaN and Infinity, which JSON lacks, fail."""
    def non_finite(literal):
        raise AssertionError(f"{literal} in a JSON file")

    return json.loads(text, parse_constant=non_finite)


@pytest.fixture(autouse=True)
def json_is_finite(tmp_path):
    # every JSON file the CLI writes, below --out, is strict JSON; a test's
    # configs sit in tmp_path itself, and some hold NaN on purpose
    yield
    for path in tmp_path.glob("*/**/*.json"):
        strict_json(path.read_text())


def bounds_config(extra_posterior=None):
    post = {"sigma": 0.1}
    if extra_posterior:
        post.update(extra_posterior)
    doc = {
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
    if "params_file" in post:  # a mean read from a file is not trained
        del doc["train"], doc["scheme"]
    return doc


@pytest.fixture
def no_training(monkeypatch):
    """For a config that must fail at load time, before any training."""
    def fail(*args, **kwargs):
        raise AssertionError("trained a config that should fail at load time")

    monkeypatch.setattr(optim, "train", fail)


class TestVerifyCommand:
    def test_clean_build_exits_zero(self, verify_run):
        code, summary = verify_run
        assert code == 0
        summary = json.loads(summary)
        assert summary["all_passed"] is True
        assert summary["n_invariants"] >= 30

    def test_mutation_flips_to_exit_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(composite.MUTATE_ENV, "composite-grad-sign")
        code = run_cli(["verify", "--out", str(tmp_path / "o")])
        assert code == 3
        summary = json.loads((tmp_path / "o" / "verify_summary.json").read_text())
        failing = [i["name"] for i in summary["invariants"] if not i["passed"]]
        assert "composite.gradient_matches_finite_differences" in failing

    def test_summary_schema(self, verify_run):
        summary = strict_json(verify_run[1])
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

    def test_shipped_config_bytes_are_pinned(self, tmp_path, capsys):
        # the trajectories the benchmark's train digest reads; the config's
        # noise_eps puts the gradient noise draws in them too. Like the
        # klsweep pin, these digests may move with the BLAS build
        cfg = Path(__file__).resolve().parents[1] / "configs" / "two_moons.json"
        assert run_cli(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        digests = {path.parent.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.rglob("trajectory.csv")}
        assert digests == {
            "multi-seed1": "c648603af67db3e1c9a4e3219ac3ba4d17d3deb074769a993da70188333f7d4e",
            "multi-seed2": "09f825e9a5fb79d3737c800d68809b6d93098b12b533a0f6841d3492aa676915",
            "multi-seed3": "d63d38bb5a2326f2c30746f2f61822cf74329c89da11cba82262dcaab01c4d29",
            "nonlinear2-seed1": "473b5771b9af1fd68b89ae2fa020b8095836a6483b70fc62991f9c7be0eb17de",
            "nonlinear2-seed2": "321bb1679ace7d920fcbd7457d585db6cb253bf19acdb0fa41de5ca23133ad19",
            "nonlinear2-seed3": "f5728cd07e31cbb1d48eb47a6796f928cb64e3ae0cd7e176d742040cebe0615d",
            "single0-seed1": "8be50f6627ad8b5519ae9652adb333a31bb44fa9d33488f9e1874600dcb02050",
            "single0-seed2": "b06f042444dedf954caa795e282374d344a8128a8cb419607bfda85e09f13abb",
            "single0-seed3": "40c2ec9a789aafc81b0d25b909a5421a9c0c4b0513d27672bd2340bf7aaaad7d",
        }

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

    @pytest.mark.parametrize("schemes, seeds, repeat", [
        ([{"kind": "multi"}, {"kind": "multi"}], [1, 1], "schemes: multi is"),
        ([{"kind": "multi"}, {"kind": "single", "index": 0}], [1, 2, 1], "seeds: 1 is"),
        ([{"kind": "nonlinear", "p": 2}, {"kind": "nonlinear", "p": 2.0}], [1],
         "schemes: nonlinear(p=2) is"),
    ], ids=["scheme-and-seed", "seed", "same-label"])
    def test_repeated_runs_rejected_before_training(self, tmp_path, monkeypatch,
                                                    capsys, schemes, seeds, repeat):
        # each run writes <scheme>-seed<seed>, so a repeat would lose a run
        def no_training(*args, **kwargs):
            raise AssertionError("trained a config that repeats a run")

        monkeypatch.setattr(optim, "train", no_training)
        cfg = write_config(tmp_path, moons_train_config(schemes=schemes, seeds=seeds))
        code = run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert repeat in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_name_too_long_for_a_file_rejected_before_training(
            self, tmp_path, no_training, capsys):
        # any integer is a seed, but <scheme>-seed<seed> must be a file name
        cfg = write_config(tmp_path, moons_train_config(seeds=[1, 10 ** 400]))
        code = run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field seeds: run name multi-seed1000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("field", ["noise_eps", "l2_reg"])
    def test_optimizer_state_overflow_is_a_divergence(self, tmp_path, capsys, field):
        # Adam's sum of squared steps overflows to inf, after which every
        # step is 0 and the run would write the same row each epoch
        doc = moons_train_config(epochs=4)
        doc["train"][field] = 1e300
        cfg = write_config(tmp_path, doc)
        assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        (failure_path,) = (tmp_path / "o").rglob("failure.json")
        assert failure_path.parent.parent == tmp_path / "o"
        assert json.loads(failure_path.read_text()) == {
            "run": "multi", "seed": 1, "epoch": 0,
            "message": "non-finite optimizer state at epoch 0 in run multi seed 1"}

    def test_divergence_prints_one_line_and_no_numpy_warning(self, tmp_path):
        # in a fresh interpreter with Python's default warning filters, as a
        # user runs it: numpy's overflow warning would come first, naming a
        # line of lossmix's source
        doc = moons_train_config(epochs=4)
        doc["train"]["noise_eps"] = 1e300
        cfg = write_config(tmp_path, doc)
        src = str(Path(lossmix.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "lossmix.cli", "train", "--config", cfg,
             "--out", str(tmp_path / "o")], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
        assert out.returncode == 2
        (line,) = out.stderr.splitlines()
        assert line.startswith("runtime error: non-finite optimizer state at epoch 0 "
                               "in run multi seed 1; failure record in ")

    def test_divergence_of_a_later_run_writes_its_own_directory(self, tmp_path,
                                                                 monkeypatch, capsys):
        # the diverged run's partial record is written under its config's
        # name; the runs of the stacks before it are written in full
        train = optim.train

        def second_diverges(spec, data, val, configs, rows=True):
            exc = optim.TrainingDiverged("non-finite loss at epoch 1",
                                         optim.TrajectoryRecord(configs[1], 1), 1)
            exc.finished = train(spec, data, val, configs[:1], rows)
            raise exc

        monkeypatch.setattr(optim, "train", second_diverges)
        cfg = write_config(tmp_path, moons_train_config(seeds=[5, 6]))
        assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        (failure,) = (tmp_path / "o").rglob("failure.json")
        assert json.loads(failure.read_text())["seed"] == 6
        assert sorted(p.name for p in failure.parent.iterdir()) == [
            "config.json", "failure.json", "multi-seed5", "multi-seed6"]
        assert (failure.parent / "multi-seed6" / "trajectory.csv").exists()
        (params,) = (tmp_path / "o").rglob("params.npz")
        assert params.parent.name == "multi-seed5"

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

    def test_p_too_large_for_its_step_rejected(self, tmp_path, monkeypatch, capsys):
        # dD_dp divides by the step p takes, which rounds to 0 at such a p
        def no_report(*args, **kwargs):
            raise AssertionError("built a report for a p its step cannot move")

        monkeypatch.setattr(analysis, "default_kl_testbed", no_report)
        cfg = write_config(tmp_path, {"p_list": [2.0, 1e300]})
        code = run_cli(["klsweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field p_list: 1e+300 is too large" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("p_list", [[2.0, 2.0000001], [2.0, 2, 3.0]])
    def test_p_values_with_one_label_rejected(self, tmp_path, monkeypatch, capsys,
                                              p_list):
        # the report keys each p's results by its %g text, so one would be lost
        def no_report(*args, **kwargs):
            raise AssertionError("built a report that keys two p values alike")

        monkeypatch.setattr(analysis, "default_kl_testbed", no_report)
        cfg = write_config(tmp_path, {"p_list": p_list})
        code = run_cli(["klsweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field p_list: 2 is repeated" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_grid_wider_than_a_float_rejected(self, tmp_path, monkeypatch, capsys):
        # hi - lo is the grid's width, and linspace would overflow taking it
        def no_report(*args, **kwargs):
            raise AssertionError("built a testbed on a grid of infinite width")

        monkeypatch.setattr(analysis, "default_kl_testbed", no_report)
        cfg = write_config(tmp_path,
                           {"grid": {"lo": -1.7e308, "hi": 1.7e308, "points": 61}})
        code = run_cli(["klsweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field grid: hi - lo overflows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_far_grid_runs_without_overflow(self, tmp_path, capsys):
        # the testbed clips its offset before squaring; under the suite's
        # warnings-as-errors filter an overflow would fail this run
        cfg = write_config(tmp_path,
                           {"grid": {"lo": -1e200, "hi": 1e200, "points": 61}})
        assert run_cli(["klsweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads(next((tmp_path / "o").rglob("kl_report.json")).read_text())
        assert math.isfinite(report["weighted"]["kl_multi"])

    def test_shipped_config_bytes_are_pinned(self, tmp_path, capsys):
        # the report the benchmark's klsweep digest reads; like
        # test_spectral's capture pin, its digest may move with the BLAS build
        cfg = Path(__file__).resolve().parents[1] / "configs" / "klsweep.json"
        assert run_cli(["klsweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        path = next(tmp_path.rglob("kl_report.json"))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ef76e04e8ba65775550445851a70492336bbe5e1889947a09bb3a4c31062cc40")


class TestSpectralCommand:
    def test_small_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [1.0, 3.0], "amplitudes": [1.0, 0.5], "n_points": 64,
            "width": 8, "epochs": 5,
            "schemes": [{"kind": "multi"}, {"kind": "single", "index": 1}],
            "seed": 2})
        code = run_cli(["spectral", "--config", cfg,
                        "--out", str(tmp_path / "o")])
        assert code == 0
        out_dir = next((tmp_path / "o").glob("spectral-*"))
        doc = json.loads((out_dir / "capture.json").read_text())
        assert "capture_epochs" in doc
        csv = (out_dir / "capture.csv").read_text()
        # a header, then epochs x bands x schemes rows
        assert len(csv.splitlines()) == 1 + 5 * 2 * 2
        # the CLI's runs train for the config's epochs from its seed
        schemes = [composite.Scheme.multi(), composite.Scheme.single(1)]
        target = spectral.SpectralTarget(frequencies=(1.0, 3.0),
                                         amplitudes=(1.0, 0.5), n_points=64)
        base = optim.TrainConfig(scheme=composite.Scheme.multi(),
                                 learning_rate=0.02, init_scale=3.0)
        comparison = spectral.spectral_scheme_compare(
            base, schemes, target, epochs=5, seed=2, width=8, threshold=0.2)
        assert csv == comparison.to_csv_text()

    def test_band_without_target_energy_reads_nan(self, tmp_path, capsys):
        # a zero-amplitude tone leaves its band no relative error to write
        # and no capture epoch
        cfg = write_config(tmp_path, {
            "frequencies": [1, 3], "amplitudes": [1.0, 0.0], "n_points": 32,
            "width": 8, "epochs": 5, "schemes": [{"kind": "multi"}]})
        assert run_cli(["spectral", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out_dir = next((tmp_path / "o").glob("spectral-*"))
        rows = [line.split(",") for line in
                (out_dir / "capture.csv").read_text().splitlines()[1:]]
        assert [row[4] for row in rows if row[2:4] == ["2", "4"]] == ["nan"] * 5
        assert "nan" not in [row[4] for row in rows if row[2:4] == ["0", "2"]]
        doc = json.loads((out_dir / "capture.json").read_text())
        assert doc["capture_epochs"]["multi"]["2-4"] is None

    @pytest.mark.parametrize("frequencies, message", [
        ([1.0, 2.0], "config field frequencies: bands (0.0,2.0) and (1.0,3.0) overlap"),
        ([1.0, 40.0], "config field frequencies: band (39.0, 41.0) exceeds the "
                      "Nyquist frequency"),
        # 1e300 - 1 and 1e300 + 1 round to 1e300: an empty band
        ([1e300, 3, 5], "config field frequencies: bad band (1e+300, 1e+300)"),
        ([2.5], "frequencies/0: 2.5 is not of type 'integer'")],
        ids=["overlapping-bands", "above-nyquist", "huge-tone", "off-bin-tone"])
    def test_bad_bands_rejected_before_training(self, tmp_path, monkeypatch,
                                                capsys, frequencies, message):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the bands were checked")

        monkeypatch.setattr(optim, "train", no_training)
        cfg = write_config(tmp_path, {
            "frequencies": frequencies, "n_points": 64, "width": 8, "epochs": 5,
            "schemes": [{"kind": "multi"}]})
        code = run_cli(["spectral", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_constant_target_rejected_before_training(self, tmp_path, monkeypatch,
                                                      capsys):
        # the [0.1, 0.9] rescale would divide 0 by 0
        def no_training(*args, **kwargs):
            raise AssertionError("trained on a constant target")

        monkeypatch.setattr(optim, "train", no_training)
        cfg = write_config(tmp_path, {
            "frequencies": [1.0, 3.0], "amplitudes": [0.0, 0.0], "n_points": 64,
            "width": 8, "epochs": 5, "schemes": [{"kind": "multi"}]})
        code = run_cli(["spectral", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "amplitudes [0.0, 0.0] at frequencies [1.0, 3.0] give a constant target" in err
        assert not (tmp_path / "o").exists()

    def test_repeated_scheme_rejected_before_training(self, tmp_path, monkeypatch,
                                                      capsys):
        # the capture reports are keyed by scheme label
        def no_training(*args, **kwargs):
            raise AssertionError("trained a config that repeats a scheme")

        monkeypatch.setattr(optim, "train", no_training)
        cfg = write_config(tmp_path, {
            "n_points": 64, "width": 8, "epochs": 5,
            "schemes": [{"kind": "multi"}, {"kind": "multi"},
                        {"kind": "nonlinear", "p": 1.0}]})
        code = run_cli(["spectral", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field schemes: multi is repeated" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestBoundsCommand:
    def test_trained_model_certificate(self, tmp_path, monkeypatch, capsys):
        def no_rows(*args, **kwargs):
            raise AssertionError("bounds computed telemetry rows it never reads")

        monkeypatch.setattr(optim, "_epoch_row", no_rows)
        cfg = write_config(tmp_path, bounds_config())
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        path = next((tmp_path / "o").rglob("certificate.json"))
        cert = json.loads(path.read_text())
        assert cert["risk_upper"] >= cert["emp_risk"]
        assert cert["m"] == 45  # the training set: 0.75 of the 60 points
        # recorded when the posterior mean was still trained with telemetry rows
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d0a038555249e1a2eb7d21594e4f0695a3f40a7a9232790e0ccaeeed6e022d41")

    def test_bad_lambda_rejected_before_training(self, tmp_path, monkeypatch,
                                                 capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the bound block was checked")

        monkeypatch.setattr(optim, "train", no_training)
        doc = bounds_config()
        doc["bound"]["lambda"] = 0.3
        cfg = write_config(tmp_path, doc)
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "1/2" in capsys.readouterr().err

    @pytest.mark.parametrize("block, field, value, message", [
        ("posterior", "sigma", 1e300, "config field posterior/sigma: sigma 1e+300 "
         "against lambda_p 1 in 32 dimensions gives the KL no finite value"),
        ("prior", "lambda_p", 1e-300, "config field prior/lambda_p: 2 lambda_p^2 is 0 "
         "for lambda_p 1e-300; it must be positive and finite"),
        ("bound", "eps_dp", 1e200, "config field bound/eps_dp: m eps_dp^2 overflows "
         "for m 45 and eps_dp 1e+200"),
    ], ids=["sigma", "lambda_p", "eps_dp"])
    def test_certificate_term_without_finite_value_rejected_before_training(
            self, tmp_path, no_training, capsys, block, field, value, message):
        # Python floats cannot evaluate the term (an overflow, or a division
        # by a square that underflowed), and the config alone says so
        doc = bounds_config()
        doc[block][field] = value
        cfg = write_config(tmp_path, doc)
        assert run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_width_mismatch_is_config_error(self, tmp_path, capsys):
        doc = bounds_config()
        doc["model"]["layer_widths"] = [3, 6, 2]
        cfg = write_config(tmp_path, doc)
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "model/layer_widths" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bound_m_is_unknown_key(self, tmp_path, no_training, capsys):
        # m is the training set's size, never a config value
        doc = bounds_config()
        doc["bound"]["m"] = 100000
        cfg = write_config(tmp_path, doc)
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field bound: Additional properties are not allowed ('m' was " \
            "unexpected)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, save", [
        ("model.npz", lambda path: np.savez(path, weights=np.zeros(3))),
        ("model.npy", lambda path: np.save(path, np.zeros(3))),
        ("model.txt", lambda path: path.write_text("not an array")),
    ], ids=["npz-without-params", "npy", "text"])
    def test_model_file_without_params_is_config_error(self, tmp_path, no_training,
                                                       capsys, name, save):
        save(tmp_path / name)
        cfg = write_config(tmp_path, bounds_config(
            {"params_file": str(tmp_path / name)}))
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field posterior/params_file: no params array in" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_model_file_with_non_finite_params_is_config_error(self, tmp_path, capsys):
        np.savez(tmp_path / "model.npz", params=np.full(32, np.nan))
        cfg = write_config(tmp_path, bounds_config(
            {"params_file": str(tmp_path / "model.npz")}))
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config field posterior/params_file: the params in" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_model_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bounds_config(
            {"params_file": str(tmp_path / "nope.npz")}))
        code = run_cli(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing model file" in capsys.readouterr().err

    def save_params(self, tmp_path):
        from lossmix import netcore
        from lossmix.netcore import MLPSpec
        spec = MLPSpec((2, 6, 2), output_kind="softmax")
        np.savez(tmp_path / "model.npz", params=netcore.init_params(spec, 4, 0.5))
        return {"params_file": str(tmp_path / "model.npz")}

    def test_params_file_used(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bounds_config(self.save_params(tmp_path)))
        assert run_cli(["bounds", "--config", cfg,
                        "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("key, block", [
        ("scheme", {"kind": "single", "index": 7}),
        ("train", {"learning_rate": 1e300, "terms": ["jsd"], "beta_rule": "paper-max"}),
    ])
    def test_training_blocks_beside_params_file_rejected(self, tmp_path, no_training,
                                                         capsys, key, block):
        # nothing trains the mean a params_file holds, so nothing reads them
        doc = dict(bounds_config(self.save_params(tmp_path)), **{key: block})
        code = run_cli(["bounds", "--config", write_config(tmp_path, doc),
                        "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"config field {key}: a posterior mean read from posterior/params_file " \
            "is not trained" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--jobs", "4"],
    ["verify", "--seed-override", "3"],
    ["klsweep", "--config", "c.json", "--jobs", "2"],
    ["klsweep", "--config", "c.json", "--seed-override", "3"],
    ["spectral", "--config", "c.json", "--jobs", "2"],
    ["bounds", "--config", "c.json", "--jobs", "2"],
    ["train", "--config", "c.json", "--jobs", "0"],
    ["nosuchcommand"],
    # every seed comes from the config its digest names
    ["train", "--config", "c.json", "--seed-override", "3"],
    ["spectral", "--config", "c.json", "--seed-override", "3"],
    ["bounds", "--config", "c.json", "--seed-override", "3"],
])
def test_usage_error_exits_one(argv, capsys):
    # flags a command would ignore are refused, and a bad command line is a
    # validation failure (1), not a runtime failure (2)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_flags_are_config_out_and_jobs():
    # a flag that set a seed or a bound parameter would change results the
    # config's digest does not name
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {f for a in cmd._actions for f in a.option_strings} - {"-h", "--help"}
             for name, cmd in sub.choices.items()}
    assert flags == {"verify": {"--out"}, "train": {"--config", "--out", "--jobs"},
                     "klsweep": {"--config", "--out"}, "spectral": {"--config", "--out"},
                     "bounds": {"--config", "--out"}}


def quick_configs():
    """A config for each command that takes one, each run in well under a second."""
    return {
        "klsweep": {"grid": {"lo": -3.0, "hi": 3.0, "points": 61}, "p_list": [1.0, 2.0]},
        "bounds": bounds_config(),
        "train": moons_train_config(),
        "spectral": {"frequencies": [1.0, 3.0], "n_points": 64, "width": 8,
                     "epochs": 3, "schemes": [{"kind": "multi"}]},
    }


def test_only_spectral_loads_scipy_and_only_expits_extension(tmp_path):
    # one fresh interpreter runs the commands in turn and lists the scipy
    # modules loaded after each: sigmoid nets, which only spectral builds,
    # load the one compiled extension that holds expit
    runs = [["verify", "--out", str(tmp_path / "verify")]]
    for command, doc in quick_configs().items():
        runs.append([command, "--config", write_config(tmp_path, doc, f"{command}.json"),
                     "--out", str(tmp_path / command)])
    probe = ("import json, sys; from lossmix import cli; seen = []\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    code = cli.main(argv)\n"
             "    seen.append([argv[0], code,"
             " sorted(m for m in sys.modules if m.startswith('scipy'))])\n"
             "print(json.dumps(seen))")
    src = str(Path(lossmix.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert json.loads(out.stdout.splitlines()[-1]) == [
        ["verify", 0, []], ["klsweep", 0, []], ["bounds", 0, []], ["train", 0, []],
        ["spectral", 0, ["scipy.special._special_ufuncs"]]]


# what `from lossmix import cli` loads: the modules train runs, which every
# other command runs on as well
CLI_MODULES = ["cli", "composite", "data", "losses", "netcore", "optim", "schema"]
# command -> (its shipped config, or None; the modules reading its schema
# adds; the modules running it adds). verify checks every module
COMMAND_MODULES = {
    "verify": (None, [], ["analysis", "pacbayes", "spectral", "verify"]),
    "train": ("two_moons", [], []),
    "klsweep": ("klsweep", ["analysis"], ["analysis"]),
    "spectral": ("spectral", [], ["spectral"]),
    "bounds": ("bounds", ["pacbayes"], ["pacbayes"]),
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    # a fresh interpreter imports cli, loads the command's shipped config and
    # runs the command on a quick config, listing the lossmix modules loaded
    # after each step
    shipped, by_schema, by_run = COMMAND_MODULES[command]
    argv = [command, "--out", str(tmp_path / "o")]
    if shipped is not None:
        argv += ["--config", write_config(tmp_path, quick_configs()[command])]
        shipped = str(Path(__file__).resolve().parents[1] / "configs" / f"{shipped}.json")
    probe = ("import json, sys\n"
             "def loaded():\n"
             "    return sorted(m[8:] for m in sys.modules if m.startswith('lossmix.'))\n"
             "from lossmix import cli\n"
             "seen = [loaded()]\n"
             "shipped, argv = json.loads(sys.argv[1])\n"
             "if shipped is not None:\n"
             "    cli._load_config(shipped, getattr(cli, cli.COMMANDS[argv[0]][0]))\n"
             "seen.append(loaded())\n"
             "seen.append([cli.main(argv), loaded()])\n"
             "print(json.dumps(seen))")
    src = str(Path(lossmix.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe, json.dumps([shipped, argv])],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert json.loads(out.stdout.splitlines()[-1]) == [
        CLI_MODULES, sorted(CLI_MODULES + by_schema), [0, sorted(CLI_MODULES + by_run)]]


def test_published_schemas_are_built_on_first_read():
    # klsweep's and bounds' schemas need the types of modules that only their
    # own command loads, so cli builds them when they are first read; each
    # read after that gives the same dict, with the pinned bytes
    probe = ("import hashlib, json, sys\n"
             "from lossmix import cli\n"
             "names = json.loads(sys.argv[1])\n"
             "first = {name: getattr(cli, name) for name in names}\n"
             "print(json.dumps([{name: hashlib.sha256(json.dumps(schema, sort_keys=True)"
             ".encode()).hexdigest() for name, schema in first.items()},"
             " all(getattr(cli, name) is first[name] for name in names)]))")
    src = str(Path(lossmix.__file__).resolve().parents[1])
    names = json.dumps(list(PUBLISHED_SCHEMA_SHA256))
    out = subprocess.run([sys.executable, "-c", probe, names], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert json.loads(out.stdout.splitlines()[-1]) == [PUBLISHED_SCHEMA_SHA256, True]
    with pytest.raises(AttributeError, match="has no attribute 'NO_SUCH_SCHEMA'"):
        getattr(cli, "NO_SUCH_SCHEMA")


def test_start_up_loads_no_schema_library(tmp_path):
    # configs are checked by lossmix itself; jsonschema and what it pulls in
    # are needed only by the tests. Modules loaded before lossmix (a site
    # hook may load certifi) are not lossmix's doing.
    cfg = write_config(tmp_path, moons_train_config())
    probe = ("import json, sys; before = set(sys.modules); from lossmix import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(json.dumps([code, sorted({m.partition('.')[0]"
             " for m in set(sys.modules) - before})]))")
    src = str(Path(lossmix.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe, "train", "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    code, loaded = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert "numpy" in loaded and not set(loaded) & {
        "jsonschema", "jsonschema_specifications", "referencing", "rpds", "attrs",
        "attr", "idna", "certifi"}


def test_bare_package_import_loads_no_module_and_no_numpy():
    # every caller imports the module it uses; the package re-exports nothing
    probe = ("import json, sys; before = set(sys.modules); import lossmix\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    src = str(Path(lossmix.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert "lossmix" in loaded
    assert [m for m in loaded if m.startswith("lossmix.")
            or m.partition(".")[0] == "numpy"] == []


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    package = Path(lossmix.__file__).resolve().parent
    imported = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", dep).group()
                for dep in pyproject["project"]["dependencies"]}
    assert imported - set(sys.stdlib_module_names) == declared


# the frozen acceptance test's API, argparse's hook for a bad command line,
# and the module hook (PEP 562) that builds cli's deferred schemas
NAMED_OUTSIDE_THE_PACKAGE = {"Dataset.as_batch", "Scheme.single", "box_sharpness",
                             "_Parser.error", "__getattr__"}


def test_every_definition_is_named_by_other_package_code():
    # a function, class or method that no other lossmix code names is used
    # only by tests, or by nothing: it goes, or is written into its caller
    tomllib = pytest.importorskip("tomllib")
    package = Path(lossmix.__file__).resolve().parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    scripts = {entry.rpartition(":")[2] for entry in pyproject["project"]["scripts"].values()}
    references, definitions = [], []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text())
        for node in ast.walk(tree):
            for kind, field in ((ast.Name, "id"), (ast.Attribute, "attr"), (ast.alias, "name")):
                if isinstance(node, kind):
                    references.append((getattr(node, field), node))
        defs = (ast.FunctionDef, ast.ClassDef)
        for node in tree.body:
            if isinstance(node, defs):
                definitions.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{node.name}.{item.name}", item) for item in node.body
                                if isinstance(item, defs) and not item.name.startswith("__")]
    unnamed = set()
    for qualified, node in definitions:
        name = qualified.rpartition(".")[2]
        inside = {id(n) for n in ast.walk(node)}
        if name not in scripts and not any(ref == name and id(at) not in inside
                                           for ref, at in references):
            unnamed.add(qualified)
    assert unnamed == NAMED_OUTSIDE_THE_PACKAGE


def test_no_module_names_another_modules_private_attribute():
    # a module's _-prefixed names are its own: code in another module that
    # needs one calls a public function of that module instead
    package = Path(lossmix.__file__).resolve().parent
    reached = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text())
        modules = {}  # local name -> package module, from `from . import x`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.partition(".")[0] == "lossmix"):
                for alias in node.names:
                    if node.module in (None, "lossmix"):
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        reached.append(f"{source.stem}: from {node.module} import {alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                reached.append(f"{source.stem}: {modules[node.value.id]}.{node.attr}")
    assert reached == []


def with_value(doc, path: str, value):
    """A copy of doc with value at the slash-separated path."""
    doc = copy.deepcopy(doc)
    keys = [int(k) if k.isdigit() else k for k in path.split("/")]
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


SMALL_CONFIGS = {
    "train": moons_train_config(schemes=[{"kind": "nonlinear", "p": 2.0}]),
    "spectral": {"frequencies": [1.0, 3.0], "n_points": 64, "width": 8, "epochs": 5,
                 "schemes": [{"kind": "multi"}], "seed": 2},
    "klsweep": {"grid": {"lo": -3.0, "hi": 3.0, "points": 61}},
    "bounds": bounds_config(),
}


def with_values(doc, values: dict):
    """A copy of doc with each value at its slash-separated path."""
    for path, value in values.items():
        doc = with_value(doc, path, value)
    return doc


# Under the suite's warnings-as-errors filter, a numpy warning ahead of the
# failure would end the run before it is recorded
@pytest.mark.parametrize("command, doc, record", [
    # a linear model on MSE with a far too large step blows up after a while
    pytest.param("train", with_values(
        moons_train_config(epochs=40, schemes=[{"kind": "single", "index": 0}], seeds=[3]),
        {"model": {"layer_widths": [2, 2], "output_kind": "linear"}, "train/terms": ["mse"],
         "train/optimizer": "sgd", "train/learning_rate": 100.0}), {
        "run": "single[0]", "seed": 3, "epoch": 31,
        "message": "non-finite loss at epoch 31 in run single[0] seed 3"},
        id="train-divergence"),
    # p = 1e150 overflows the composite at the first step
    pytest.param("spectral", {
        "n_points": 32, "width": 8, "epochs": 3,
        "schemes": [{"kind": "multi"}, {"kind": "nonlinear", "p": 1e150}]}, {
        "run": "nonlinear(p=1e+150)", "seed": 1, "epoch": 0,
        "message": "non-finite gradient at epoch 0 in run nonlinear(p=1e+150) seed 1"},
        id="spectral-divergence"),
    # Adam's sum of squared steps overflows at the first step
    pytest.param("bounds", with_values(bounds_config(), {
        "scheme": {"kind": "nonlinear", "p": 2.0}, "train/noise_eps": 1e300}), {
        "run": "nonlinear(p=2)", "seed": 3, "epoch": 0,
        "message": "non-finite optimizer state at epoch 0 in run nonlinear(p=2) seed 3"},
        id="bounds-divergence"),
    # sigma^2 = 1e300 is finite, so only the draws can tell: a relu net's
    # forward overflows on them
    pytest.param("bounds", with_values(bounds_config(), {
        "model": {"layer_widths": [2, 12, 12, 2], "hidden_activation": "relu"},
        "train/epochs": 5, "posterior/sigma": 1e150}), {
        "message": "non-finite predictions for posterior draw 0 of 10"},
        id="bounds-posterior-draw"),
    # the run stays finite, but its mean's squared norm overflows, so the
    # certificate would read Infinity
    pytest.param("bounds", with_value(bounds_config(), "train/learning_rate", 1e300), {
        "message": "the posterior mean's squared norm inf gives the KL no finite value"},
        id="bounds-kl"),
])
def test_runtime_failure_writes_one_record(tmp_path, capsys, command, doc, record):
    cfg = write_config(tmp_path, doc)
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    (out_dir,) = (tmp_path / "o").iterdir()
    assert re.fullmatch(f"{command}-[0-9a-f]{{12}}", out_dir.name)
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"runtime error: {record['message']}; failure record in {out_dir}"
    assert json.loads((out_dir / "failure.json").read_text()) == record
    # the directory holds the config it is named by
    assert (out_dir / "config.json").read_text() == json.dumps(doc, sort_keys=True,
                                                                 indent=2)
    written = sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*"))
    if command != "train":
        assert written == ["config.json", "failure.json"]
        return
    # train still writes the diverged run's directory, with every complete epoch
    assert written == ["config.json", "failure.json", "single0-seed3",
                       "single0-seed3/run.json", "single0-seed3/trajectory.csv"]
    rows = (out_dir / "single0-seed3" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + record["epoch"]


@pytest.mark.parametrize("command, path, literal", [
    ("train", "train/noise_eps", "NaN"),
    ("train", "train/noise_eps", "1e400"),
    ("train", "train/learning_rate", "NaN"),
    ("train", "train/learning_rate", "Infinity"),
    ("train", "train/learning_rate", "1e400"),
    ("train", "train/l2_reg", "Infinity"),
    ("train", "train/l2_reg", "1e400"),
    ("train", "schemes/0/p", "1e400"),
    ("spectral", "learning_rate", "Infinity"),
    ("klsweep", "grid/lo", "-Infinity"),
    ("bounds", "bound/lambda", "1e400"),
    ("bounds", "posterior/sigma", "NaN"),
    # an integer literal passes the parse hooks, but no float holds it
    pytest.param("train", "train/learning_rate", "1" + "0" * 400,
                 id="train-train/learning_rate-401-digit-integer"),
    pytest.param("bounds", "bound/lambda", "-1" + "0" * 400,
                 id="bounds-bound/lambda-401-digit-integer"),
])
def test_non_finite_numbers_rejected_at_load(tmp_path, monkeypatch, capsys,
                                             command, path, literal):
    # JSON has no NaN or Infinity, and a literal such as 1e400 parses to inf
    def no_training(*args, **kwargs):
        raise AssertionError("trained with a number that is not finite")

    monkeypatch.setattr(optim, "train", no_training)
    text = json.dumps(with_value(SMALL_CONFIGS[command], path, "@literal@"))
    cfg = tmp_path / "config.json"
    cfg.write_text(text.replace('"@literal@"', literal))
    code = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"config number {literal} is not finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, path, scheme, message", [
    ("train", "schemes/0", {"kind": "multi", "p": 3.0}, "a multi scheme takes no p, got 3.0"),
    ("spectral", "schemes/0", {"kind": "single", "index": 0, "p": 7.0},
     "a single scheme takes no p, got 7.0"),
    ("bounds", "scheme", {"kind": "nonlinear", "p": 2.0, "index": 1},
     "a nonlinear scheme takes no index, got 1"),
], ids=["train-multi-p", "spectral-single-p", "bounds-nonlinear-index"])
def test_scheme_field_its_kind_ignores_rejected_before_training(
        tmp_path, no_training, capsys, command, path, scheme, message):
    # such a run would train the run without the field, under another name
    cfg = write_config(tmp_path, with_value(SMALL_CONFIGS[command], path, scheme))
    code = run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"config field {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, path, value, message", [
    ("train", "dataset/classes", 3, "dataset/classes: a two_moons dataset does not read it"),
    ("train", "dataset/spread", 0.2, "dataset/spread: a two_moons dataset does not read it"),
    ("bounds", "dataset/path", "x.bin", "dataset/path: a two_moons dataset does not read it"),
    ("train", "dataset/max_records", 5,
     "dataset/max_records: a two_moons dataset does not read it"),
    ("train", "dataset", {"kind": "blobs", "noise": 0.1},
     "dataset/noise: a blobs dataset does not read it"),
    ("train", "dataset", {"kind": "cifar10_bin", "path": "x.bin", "dim": 2},
     "dataset/dim: a cifar10_bin dataset does not read it"),
    ("train", "train/momentum", 0.5, "train/momentum: only the momentum optimizer reads it"),
    ("bounds", "train", {"optimizer": "sgd", "momentum": 0.5},
     "train/momentum: only the momentum optimizer reads it"),
    ("train", "dataset", {"kind": "cifar10_bin"},
     "dataset/path: a cifar10_bin dataset needs a path"),
    ("bounds", "dataset", {"kind": "cifar10_bin", "path": "no/such/dir/batch.bin"},
     "dataset/path: cannot read no/such/dir/batch.bin: No such file or directory"),
    ("train", "dataset/randomize_seed", 7,
     "dataset/randomize_seed: only a positive randomize_level reads it"),
    ("train", "model", {"layer_widths": [2, 2], "hidden_activation": "relu"},
     "model/hidden_activation: a net with no hidden layer does not read it"),
], ids=["moons-classes", "moons-spread", "moons-path", "moons-max_records", "blobs-noise",
        "cifar-dim", "adam-momentum", "sgd-momentum", "cifar-without-path",
        "cifar-missing-file", "randomize_seed-without-level", "activation-without-hidden"])
def test_field_no_result_reads_rejected_before_training(tmp_path, no_training, capsys,
                                                        command, path, value, message):
    cfg = write_config(tmp_path, with_value(SMALL_CONFIGS[command], path, value))
    code = run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"config field {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, command, path, value, message", [
    ("klsweep", "klsweep", "betas", [0.7, 0.7],
     "betas: weights must sum to 1, got sum 1.4"),
    ("two_moons", "train", "dataset/val_fraction", 0.001,
     "dataset/val_fraction: split of 400 samples at 0.001 leaves a side empty"),
    ("bounds", "bounds", "bound/lambda", 0.3,
     "bound/lambda: lambda must be greater than 1/2"),
    # the certificate's m is the training set's size, not the bound's lambda
    ("bounds", "bounds", "dataset", {"kind": "two_moons", "n": 2, "val_fraction": 0.5},
     "dataset: a certificate needs at least 2 training points, got 1"),
    ("two_moons", "train", "schemes/1", {"kind": "multi", "p": 2},
     "schemes/1: a multi scheme takes no p, got 2"),
    ("spectral", "spectral", "schemes/2", {"kind": "multi", "p": 2},
     "schemes/2: a multi scheme takes no p, got 2"),
    ("bounds", "bounds", "scheme", {"kind": "multi", "p": 2},
     "scheme: a multi scheme takes no p, got 2"),
    ("two_moons", "train", "model/layer_widths", [2, 8, 1],
     "model/layer_widths: softmax output needs width >= 2"),
    ("two_moons", "train", "train/beta_rule", "fixed",
     "train: beta_rule 'fixed' needs fixed_betas"),
    ("two_moons", "train", "train/terms", ["mse"],
     "train: warm-start needs a cross-entropy term"),
    ("bounds", "bounds", "train", {"beta_rule": "paper-max", "terms": ["ce", "mse", "jsd"]},
     "train: paper-max rule needs exactly two terms"),
    ("two_moons", "train", "schemes/0", {"kind": "single", "index": 5},
     "schemes/0: single-scheme index 5 out of range"),
    ("spectral", "spectral", "schemes/0", {"kind": "single", "index": 5},
     "schemes/0: single-scheme index 5 out of range"),
    ("klsweep", "klsweep", "grid/points", 20_000_000, "grid: grid exceeds the point budget"),
    ("klsweep", "klsweep", "grid/lo", 5.0, "grid: bad bounds (5.0, 3.0)"),
    ("spectral", "spectral", "amplitudes", [0, 0, 0],
     "amplitudes: amplitudes [0, 0, 0] at frequencies [1.0, 3.0, 5.0] give a constant "
     "target"),
    ("spectral", "spectral", "amplitudes", [1.0, 0.5],
     "amplitudes: need matching nonempty frequency and amplitude lists"),
], ids=["klsweep-betas", "two_moons-val_fraction", "bounds-lambda", "bounds-m",
        "two_moons-multi-p", "spectral-multi-p", "bounds-multi-p", "two_moons-softmax-width",
        "two_moons-fixed-without-betas", "two_moons-warmup-without-ce",
        "bounds-paper-max-three-terms", "two_moons-single-index", "spectral-single-index",
        "klsweep-points", "klsweep-bounds", "spectral-constant-target",
        "spectral-amplitudes-length"])
def test_load_time_error_names_its_field(tmp_path, no_training, monkeypatch, capsys,
                                         config, command, path, value, message):
    def no_testbed(*args, **kwargs):
        raise AssertionError("built the KL testbed for a config that fails at load time")

    monkeypatch.setattr(analysis, "default_kl_testbed", no_testbed)
    shipped = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
    doc = with_value(json.loads(shipped.read_text()), path, value)
    code = run_cli([command, "--config", write_config(tmp_path, doc),
                    "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"validation error: config field {message}")
    assert not (tmp_path / "o").exists()


# sha256 of json.dumps(schema, sort_keys=True) for each published schema:
# a change to a config rule changes one of these, and says so here
PUBLISHED_SCHEMA_SHA256 = {
    "TRAIN_SCHEMA": "9c9fa6cfe50c9f56d6033a706de2495c08ba8c4a60c5e9e482a7a48a540db46e",
    "KLSWEEP_SCHEMA": "b3a2afb31d93b380355221aedc55536deb9a5a81ad749c51962ff889d42274cc",
    "SPECTRAL_SCHEMA": "12d906fed3d6305241ed0cda4c92c34521e1cfee3555167ea5bf0264ce051677",
    "BOUNDS_SCHEMA": "f364a63ce6df2ca05e814b91e4711babbec449ad51a58dacd3d9f87827b77223",
}


def test_published_schemas_are_pinned():
    got = {name: hashlib.sha256(json.dumps(getattr(cli, name), sort_keys=True)
                                .encode()).hexdigest() for name in PUBLISHED_SCHEMA_SHA256}
    assert got == PUBLISHED_SCHEMA_SHA256


def _train_config(**kwargs):
    return optim.TrainConfig(scheme=composite.Scheme.multi(), **kwargs)


def _bound_params(**kwargs):
    return pacbayes.BoundParams(**{"lam": 1.0, "l_max": 1.0, "delta": 0.05, "m": 100,
                                   **kwargs})


# each bound and enum a type's setting carries: the shipped config and the
# block the type is built from, the setting's config key, a value it
# rejects, and the same value given to the type directly
MOVED_RULES = [
    ("two_moons", "train", "terms", [], lambda v: _train_config(terms=v)),
    ("two_moons", "train", "terms", ["ce", "zero_one"], lambda v: _train_config(terms=v)),
    ("two_moons", "train", "mode", "bogus", lambda v: _train_config(mode=v)),
    ("two_moons", "train", "optimizer", "rmsprop", lambda v: _train_config(optimizer=v)),
    ("two_moons", "train", "learning_rate", 0, lambda v: _train_config(learning_rate=v)),
    ("two_moons", "train", "momentum", -0.5, lambda v: _train_config(momentum=v)),
    ("two_moons", "train", "epochs", 0, lambda v: _train_config(epochs=v)),
    ("two_moons", "train", "batch_size", 0, lambda v: _train_config(batch_size=v)),
    ("two_moons", "train", "noise_eps", -1e-4, lambda v: _train_config(noise_eps=v)),
    ("two_moons", "train", "warmup_epochs", -1,
     lambda v: _train_config(warmup_epochs=v)),
    ("two_moons", "train", "l2_reg", -1.0, lambda v: _train_config(l2_reg=v)),
    ("two_moons", "train", "init_scale", -0.5, lambda v: _train_config(init_scale=v)),
    ("two_moons", "train", "beta_rule", "max", lambda v: _train_config(beta_rule=v)),
    ("two_moons", "train", "fixed_betas", ["x", 1.0],
     lambda v: _train_config(beta_rule="fixed", fixed_betas=v)),
    ("two_moons", "model", "layer_widths", [2], lambda v: MLPSpec(v)),
    ("two_moons", "model", "layer_widths", [2, 0, 2], lambda v: MLPSpec(v)),
    ("two_moons", "model", "hidden_activation", "gelu",
     lambda v: MLPSpec((2, 4, 2), hidden_activation=v)),
    ("two_moons", "model", "output_kind", "logits",
     lambda v: MLPSpec((2, 4, 2), output_kind=v)),
    ("two_moons", "schemes/0", "kind", "double", lambda v: composite.Scheme(kind=v)),
    ("two_moons", "schemes/0", "index", -1,
     lambda v: composite.Scheme(kind="single", index=v)),
    ("two_moons", "schemes/2", "p", 0.5, lambda v: composite.Scheme(kind="nonlinear", p=v)),
    ("bounds", "scheme", "p", 0.5, lambda v: composite.Scheme(kind="nonlinear", p=v)),
    ("bounds", "posterior", "sigma", 0,
     lambda v: pacbayes.GaussianPosterior(mean=np.zeros(3), sigma=v)),
    ("bounds", "prior", "lambda_p", -1.0, lambda v: pacbayes.GaussianPrior(lambda_p=v)),
    ("bounds", "bound", "lambda", "1", lambda v: _bound_params(lam=v)),
    ("bounds", "bound", "l_max", 0, lambda v: _bound_params(l_max=v)),
    ("bounds", "bound", "delta", 0, lambda v: _bound_params(delta=v)),
    ("bounds", "bound", "delta", 1, lambda v: _bound_params(delta=v)),
    ("bounds", "bound", "eps_dp", -0.01, lambda v: _bound_params(eps_dp=v)),
    ("klsweep", "grid", "points", 2, lambda v: analysis.Grid(-3.0, 3.0, v)),
]


@pytest.mark.parametrize("config, block, key, value, make", MOVED_RULES,
                         ids=[f"{row[1]}/{row[2]}={row[3]!r}" for row in MOVED_RULES])
def test_type_and_config_reject_a_value_with_one_message(tmp_path, config, block, key,
                                                         value, make):
    shipped = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
    doc = with_value(json.loads(shipped.read_text()), f"{block}/{key}", value)
    schema_name = {"two_moons": "TRAIN_SCHEMA"}.get(config, f"{config.upper()}_SCHEMA")
    with pytest.raises(ValueError) as at_load:
        cli._load_config(write_config(tmp_path, doc), getattr(cli, schema_name))
    with pytest.raises(ValueError) as direct:
        make(value)
    prefix = f"config field {block}/"
    assert str(at_load.value).startswith(prefix + key)
    assert str(direct.value) == str(at_load.value).removeprefix(prefix)


# the generators do not check what the dataset block's schema already holds
@pytest.mark.parametrize("dataset, message", [
    ({"kind": "two_moons", "n": 1}, "dataset/n: 1 is less than the minimum of 2"),
    ({"kind": "blobs", "classes": 1}, "dataset/classes: 1 is less than the minimum of 2"),
    ({"kind": "blobs", "per_class": 0},
     "dataset/per_class: 0 is less than the minimum of 1"),
    ({"kind": "blobs", "dim": 0}, "dataset/dim: 0 is less than the minimum of 1"),
    ({"kind": "cifar10_bin", "path": "x.bin", "max_records": 0},
     "dataset/max_records: 0 is less than the minimum of 1"),
    ({"kind": "two_moons", "randomize_level": 1.2},
     "dataset/randomize_level: 1.2 is greater than the maximum of 1"),
    ({"kind": "two_moons", "randomize_level": -0.1},
     "dataset/randomize_level: -0.1 is less than the minimum of 0"),
    ({"kind": "two_moons", "val_fraction": 0},
     "dataset/val_fraction: 0 is less than or equal to the minimum of 0"),
    ({"kind": "two_moons", "val_fraction": 1},
     "dataset/val_fraction: 1 is greater than or equal to the maximum of 1"),
], ids=["moons-n", "blobs-classes", "blobs-per_class", "blobs-dim", "cifar-max_records",
        "randomize_level-above", "randomize_level-below", "val_fraction-0",
        "val_fraction-1"])
def test_dataset_value_no_generator_checks_rejected_at_load(tmp_path, no_training, capsys,
                                                           dataset, message):
    cfg = write_config(tmp_path, with_value(SMALL_CONFIGS["train"], "dataset", dataset))
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"validation error: config field {message}\n"
    assert not (tmp_path / "o").exists()


def test_integer_fields_take_any_integer():
    doc = dict(SMALL_CONFIGS["train"], seeds=[10 ** 400])
    assert check(doc, cli.TRAIN_SCHEMA) == doc


def result_files(root: Path) -> dict:
    """Each result file under root, keyed by its path below the config's
    directory; a JSON result is compared without the config's hash."""
    found = {}
    for path in root.rglob("*"):
        if path.name in ("trajectory.csv", "params.npz", "capture.csv", "certificate.json"):
            content = path.read_bytes()
            if path.suffix == ".json":
                content = json.loads(content)
                content.pop("config_sha256")
            found[path.relative_to(root).parts[1:]] = content
    return found


@pytest.mark.parametrize("command, path, value", [
    ("train", "train/epochs", 2),
    ("train", "train/batch_size", 32),
    ("train", "seeds/0", 1),
    ("train", "dataset/n", 80),
    ("train", "dataset/seed", 0),
    ("train", "schemes/0/index", 0),
    ("spectral", "epochs", 5),
    ("spectral", "n_points", 64),
    ("spectral", "seed", 2),
    ("bounds", "n_samples", 10),
    ("bounds", "seed", 3),
])
def test_integral_float_in_integer_field_is_read_as_int(tmp_path, capsys, command,
                                                        path, value):
    # JSON Schema counts 3.0 as an integer, so the program must read it as 3
    base = SMALL_CONFIGS[command]
    if path.startswith("schemes"):
        base = dict(base, schemes=[{"kind": "single", "index": 0}])
    results = []
    for form in (value, float(value)):
        cfg = write_config(tmp_path, with_value(base, path, form), f"{form!r}.json")
        out = tmp_path / repr(form)
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 0
        results.append(result_files(out))
    assert results[0] and results[0] == results[1]


def _written(root: Path) -> dict:
    """Each file under root by its path below root; run.json without its
    wall-clock times."""
    found = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            content = path.read_bytes()
            if path.name == "run.json":
                content = json.loads(content)
                del content["wall_clock"]
            found[path.relative_to(root).as_posix()] = content
    return found


@pytest.mark.parametrize("config, command", [
    ("two_moons", "train"), ("klsweep", "klsweep"), ("spectral", "spectral"),
    ("bounds", "bounds")])
def test_config_json_reruns_into_its_own_directory(tmp_path, capsys, config, command):
    # config.json is the document the directory's digest was taken of, so
    # it reruns into a directory of the same name with the same results
    shipped = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
    assert run_cli([command, "--config", str(shipped), "--out", str(tmp_path / "a")]) == 0
    (first,) = (tmp_path / "a").iterdir()
    saved = first / "config.json"
    doc = json.loads(shipped.read_text())
    assert saved.read_text() == json.dumps(doc, sort_keys=True, indent=2)
    assert run_cli([command, "--config", str(saved), "--out", str(tmp_path / "b")]) == 0
    (second,) = (tmp_path / "b").iterdir()
    assert second.name == first.name
    assert _written(second) == _written(first)


def _oracle_documents():
    """(schema name, document) of the shipped configs and of the benchmark's
    workloads, which are read and left as they are."""
    root = Path(__file__).resolve().parents[1]
    shipped = {"two_moons": "TRAIN_SCHEMA", "spectral": "SPECTRAL_SCHEMA",
               "klsweep": "KLSWEEP_SCHEMA", "bounds": "BOUNDS_SCHEMA"}
    docs = [(schema, json.loads((root / "configs" / f"{name}.json").read_text()))
            for name, schema in shipped.items()]
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.NAMES:
        docs += [tuple(entry) for entry in
                 workloads.inputs(name, 0, Path("configs"))["configs"].values()]
    return docs


ORACLE_DOCUMENTS = _oracle_documents()
WRONG_VALUES = [True, False, None, "text", [], {}, 0.0, 1.0, 2.0, 3.0]
BOUND_KEYWORDS = ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum")


def _nodes(doc, path=()):
    yield path, doc
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _schema_at(schema, path):
    for key in path:
        step = (schema.get("properties", {}).get(key) if isinstance(key, str)
                else schema.get("items"))
        schema = step if isinstance(step, dict) else {}
    return schema


def _mutate(data, schema, doc):
    """doc after one drawn mutation: a key dropped or added, a value swapped
    for a wrong type, a bool or a zero-fraction float, a bounded value moved
    to its bound or one step either side (an ulp, or 1 in an integer field),
    or an array resized."""
    nodes = list(_nodes(doc))
    kind = data.draw(st.sampled_from(["drop", "add", "swap", "nudge", "resize"]))
    if kind == "drop":
        _, node = data.draw(st.sampled_from([n for n in nodes if isinstance(n[1], dict)]))
        if node:
            del node[data.draw(st.sampled_from(sorted(node)))]
    elif kind == "add":
        _, node = data.draw(st.sampled_from([n for n in nodes if isinstance(n[1], dict)]))
        node.update(dict.fromkeys(data.draw(st.lists(
            st.sampled_from(["zz", "bogus", "learning_rte"]), min_size=1, unique=True)), 1))
    elif kind == "resize":
        lists = [n for n in nodes if isinstance(n[1], list) and n[1]]
        if lists:
            _, node = data.draw(st.sampled_from(lists))
            size = data.draw(st.integers(0, len(node) + 1))
            node[:] = copy.deepcopy(node * 2)[:size]
    else:
        # by keyword first, so the one field with a maximum is not a rare draw
        bounded = {}
        for path, _ in nodes[1:]:
            for key, rule in _schema_at(schema, path).items():
                if key in BOUND_KEYWORDS:
                    bounded.setdefault(key, []).append((path, rule))
        if kind == "nudge" and bounded:
            keyword = data.draw(st.sampled_from(sorted(bounded)))
            path, bound = data.draw(st.sampled_from(bounded[keyword]))
            if _schema_at(schema, path)["type"] == "integer":
                near = [bound - 1, bound + 1]
            else:
                near = [math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
            value = data.draw(st.sampled_from([bound] + near))
        else:
            path, _ = data.draw(st.sampled_from(nodes[1:]))
            value = data.draw(st.sampled_from(WRONG_VALUES))
        parent = next(node for p, node in nodes if p == path[:-1])
        # a copy, so that a later mutation cannot edit WRONG_VALUES' [] or {}
        parent[path[-1]] = copy.deepcopy(value)
    return doc


# the profile's 50 examples let a checker that counts a bool as a number, or
# that misreads maximum or exclusiveMinimum, pass; 500 catch each of them
@settings(max_examples=500)
@given(st.data())
def test_checker_agrees_with_jsonschema(data):
    schema_name, original = data.draw(st.sampled_from(ORACLE_DOCUMENTS))
    schema = getattr(cli, schema_name)
    doc = copy.deepcopy(original)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, schema, doc)
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    expected = None
    if errors:
        where = "/".join(str(p) for p in errors[0].absolute_path) or "<root>"
        expected = f"config field {where}: {errors[0].message}"
    try:
        checked, got = check(doc, schema), None
    except ValueError as exc:
        got = str(exc)
    assert got == expected
    if got is None:
        assert checked == doc
