"""Tests of the benchmark itself: span arithmetic, wrapper removal, exact
counts between traced repeats, and failure counting on corrupted outputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402
import spantrace  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_is_duration_minus_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.5, 10.0])
    tracer = spantrace.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    tracer.wrap(body, "outer")()
    # outer 0-10 holds inner 1-3 and 4-6.5
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert spantrace.self_times(tracer.spans) == [5.5, 2.0, 2.5]


def test_overlapping_child_time_is_counted_once():
    spans = [["outer", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 4.0, 12.0, 0]]
    assert spantrace.self_times(spans)[0] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def lab_passes(tmp_path_factory):
    """Two traced repeats of the lab workload, in this process."""
    work = tmp_path_factory.mktemp("lab")
    inputs = bench.Runner("lab", 0, work).inputs
    from lossmix import cli  # noqa: F401 - every patched module is loaded
    originals = {(module, attr): vars(sys.modules[module])[attr]
                 for _, module, attr in spantrace.LAYERS if "." not in attr}
    passes = []
    for number in range(2):
        tracer = spantrace.Tracer().install()
        passes.append(worker.run_pass("lab", inputs, work / f"pass-{number}", tracer))
    return inputs, work, originals, passes


def test_wrappers_are_removed_after_a_traced_run(lab_passes):
    _, _, originals, passes = lab_passes
    assert all(p["leftover_wrappers"] == [] for p in passes)
    assert spantrace.leftover_wrappers() == []
    for (module, attr), fn in originals.items():
        assert vars(sys.modules[module])[attr] is fn, (module, attr)


def test_exact_counts_repeat_between_traced_runs(lab_passes):
    _, _, _, (first, second) = lab_passes
    for key in spantrace.EXACT:
        assert first["layers"][key] == second["layers"][key], key
    assert first["layers"]["netcore.forward.calls"] > 0
    assert first["layers"]["pacbayes.draws"] == 100
    assert first["layers"]["optim.forwards_per_epoch"] > 0
    for p in (first, second):
        assert p["layers"]["span_self_sum_s"] <= p["wall_s"]
    bench.trace_problems([first, second])
    assert bench.check_passes([first, second], None, False)[1] == 0


def test_corrupted_output_makes_failed_frac_nonzero(lab_passes):
    inputs, work, _, (first, _) = lab_passes
    cert = next((work / "pass-0").glob("bounds-*/certificate.json"))
    doc = json.loads(cert.read_text())
    cert.write_text(json.dumps(dict(doc, risk_upper=2.0), indent=2, sort_keys=True))
    ops, _ = workloads.check_lab(inputs, work / "pass-0", first["codes"])
    corrupted = dict(first, ops=ops, trace_problems=[])
    attempted, failed, problems = bench.check_passes([first, corrupted], None, False)
    assert not ops["bounds"]["ok"]
    assert failed == 1 and 0 < failed / attempted
    assert "bytes differ from the first repeat" in problems[0]


def test_reference_mismatch_counts_as_failed():
    op = {"ok": True, "detail": "", "digest": "ab", "capture": [3, 5, None]}
    passes = [{"ops": {"spectral:multi": op}}]
    same = {"ops": {"spectral:multi": {"digest": "ab", "capture": [3, 5, None]}}}
    moved = {"ops": {"spectral:multi": {"digest": "cd", "capture": [3, 6, None]}}}
    assert bench.check_passes(passes, same, True)[:2] == (1, 0)
    # other BLAS: bytes are not compared, capture epochs still are
    assert bench.check_passes(passes, moved, False)[:2] == (1, 1)
    assert len(bench.check_passes(passes, moved, True)[2][0].split(";")) == 2


def _spectral_run(tmp_path, caps_by_label):
    """A spectral output directory whose rows capture each band at the given
    epoch, and the check's view of it."""
    inputs = workloads.inputs("spectral", 0, tmp_path / "configs")
    cfg = next(doc for _, doc in inputs["configs"].values())
    from lossmix import cli
    labels = [cli._scheme_from(s).label() for s in cfg["schemes"]]
    bands = [[0.0, 2.0], [2.0, 4.0], [4.0, 6.0]]
    run = tmp_path / f"spectral-{workloads.config_digest(cfg)[:12]}"
    run.mkdir()
    rows = ["scheme,epoch,band_lo,band_hi,rel_error"]
    for label, caps in zip(labels, caps_by_label):
        for e in range(cfg["epochs"]):
            rows += [f"{label},{e},{lo:g},{hi:g},{0.1 if e >= c else 0.9}"
                     for (lo, hi), c in zip(bands, caps)]
    (run / "capture.csv").write_text("\n".join(rows) + "\n")
    summary = {"threshold": 0.2, "bands": bands,
               "config_sha256": workloads.config_digest(cfg),
               "capture_epochs": {label: {f"{lo:g}-{hi:g}": c for (lo, hi), c
                                          in zip(bands, caps)}
                                  for label, caps in zip(labels, caps_by_label)}}
    (run / "capture.json").write_text(json.dumps(summary))
    return inputs, run, labels


def test_spectral_check_accepts_any_capture_order(tmp_path):
    inputs, _, labels = _spectral_run(tmp_path, [[3, 5, 7], [18, 0, 2], [1, 1, 1]])
    ops, epochs = workloads.check_spectral(inputs, tmp_path, [0])
    assert all(op["ok"] for op in ops.values()), ops
    assert ops[f"spectral:{labels[1]}"]["capture"] == [18, 0, 2]
    assert epochs == 3 * workloads.SPECTRAL_EPOCHS


def test_spectral_summary_that_disagrees_with_its_rows_fails(tmp_path):
    inputs, run, labels = _spectral_run(tmp_path, [[3, 5, 7]] * 3)
    summary = json.loads((run / "capture.json").read_text())
    summary["capture_epochs"][labels[0]]["4-6"] = 6
    (run / "capture.json").write_text(json.dumps(summary))
    ops, _ = workloads.check_spectral(inputs, tmp_path, [0])
    assert [op["ok"] for op in ops.values()] == [False, True, True]


def test_end_to_end_times_are_scaled_to_the_reference_host_speed():
    setup = {"setup_s": 1.0, "host_scale": 0.5}
    rep = dict(setup, wall_s=4.0, cpu_s=3.0, epochs=10, peak_rss_mb=80.0)
    run = {"plain": [rep], "setups": [rep, setup]}
    scaled = bench.end_to_end(run)
    assert scaled["setup_s"] == [0.5, 0.5]
    assert (scaled["wall_s"], scaled["cpu_s"]) == ([2.0], [1.5])
    assert scaled["epochs_per_s"] == [5.0] and scaled["peak_rss_mb"] == [80.0]
    assert bench.end_to_end(run, scaled=False)["wall_s"] == [4.0]
