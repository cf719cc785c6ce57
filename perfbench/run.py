"""lossmix benchmark: time a workload end to end, or layer by layer when traced.

    python3 perfbench/run.py --workload {spectral,train,lab,all} --seed N
                             --seconds S --trace {0,1}

Every repeat is a fresh interpreter (perfbench/worker.py) running the
workload's lossmix CLI commands with ``--jobs 1``. Repeats run back to back
(a closed loop with one client) until --seconds is used up, after one
untimed set-up to fill the bytecode and file caches. Each metric is the
median over the repeats; the table above the last line also gives the
quartiles and the sample count. End-to-end times are scaled to a reference
host speed (see PROBE_REF_S). The last line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

--trace 1 alternates untraced and traced repeats: the traced ones give the
per-layer numbers, and their wall-time difference is the tracing overhead.

    python3 perfbench/run.py --record-reference 0-31

re-records perfbench/reference.json from one untraced repeat per seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spantrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
MIN_PASSES = 3        # untraced repeats with --trace 0
MIN_TRACE_PASSES = 2  # repeats of each kind with --trace 1
MIN_SETUPS = 7
CHILD_TIMEOUT_S = 150
# The 2-vCPU VM the benchmark was defined on runs every process up to 1.7x
# slower for tens of seconds at a time, so a 40 s run's median followed the
# host rather than the program. The end-to-end times are therefore scaled to
# one host speed: each repeat's times are multiplied by PROBE_REF_S over the
# probe time measured just before and just after it. PROBE_REF_S is a round
# figure just below the fastest probe time seen on that VM (Intel Xeon,
# OpenBLAS SkylakeX kernel): 16.9 ms.
PROBE_REF_S = 0.015


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def probe() -> float:
    """Seconds for a fixed mix of interpreter work, small-matrix work and
    256x200 matrix products, the best of five: a measure of the host's
    current speed that lossmix cannot move."""
    small = np.full((64, 64), 0.5)
    wide, square = np.full((256, 200), 0.01), np.full((200, 200), 0.01)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        b = small
        for _ in range(200):
            b = np.tanh(b @ small * 0.01)
        for _ in range(20):
            np.tanh(wide @ square)
        best = min(best, time.perf_counter() - t0)
    return best


def host() -> dict:
    """What the parent process can see: cores, CPU model, commit."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            model = next((ln.split(":", 1)[1].strip() for ln in info
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unavailable (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "platform": platform.platform(), "commit": commit}


class Runner:
    """Spawns worker processes for one workload and seed inside a work dir."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.work = name, work
        self.inputs_path = work / "inputs.json"
        self.inputs = workloads.inputs(name, seed, work / "configs")
        (work / "configs").mkdir(parents=True, exist_ok=True)
        for path, (_, doc) in self.inputs["configs"].items():
            Path(path).write_text(json.dumps(doc, indent=2))
        self.inputs_path.write_text(json.dumps(self.inputs, indent=2))
        self.count = 0
        self.probe_s = probe()
        self.spans_path = work.parent / f"spans-{name}-seed{seed}.json"

    def spawn(self, setup_only=False, traced=False) -> tuple[dict | None, str]:
        """One worker process; returns (result or None, error text)."""
        self.count += 1
        out = self.work / f"pass-{self.count}"
        result_path = self.work / f"result-{self.count}.json"
        env = dict(os.environ)
        env.pop("LOSSMIX_MUTATE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.name,
               "--inputs", str(self.inputs_path), "--out", str(out),
               "--result", str(result_path)]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--trace", str(self.spans_path)] if traced else []
        try:
            proc = subprocess.run(cmd + ["--spawn-time", repr(time.monotonic())],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            error = "" if proc.returncode == 0 else (
                f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        except subprocess.TimeoutExpired:
            error = f"worker timed out after {CHILD_TIMEOUT_S} s"
        before, self.probe_s = self.probe_s, probe()
        result = None
        if not error and result_path.is_file():
            result = json.loads(result_path.read_text())
            result["host_scale"] = PROBE_REF_S / ((before + self.probe_s) / 2)
        shutil.rmtree(out, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        return result, error or ("" if result else "worker wrote no result")


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def _env_key(env: dict) -> str:
    # output bytes are compared with the reference only where the arithmetic
    # is the same: same machine type, numpy and OpenBLAS kernel
    return f"{env['machine']} numpy {env['numpy']} {env['blas']} {env['blas_core']}"


def check_passes(passes: list[dict], reference: dict | None,
                 compare_bytes: bool) -> tuple[int, int, list[str]]:
    """Count operations attempted and failed over all repeats of one run.

    An operation fails on its own output check, on bytes that differ from
    the first repeat or from the reference, or on capture epochs that differ
    from the reference. Each traced repeat is one more operation, which fails
    when the tracer breaks its own invariants.
    """
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, str] = {}
    ref_ops = (reference or {}).get("ops", {})
    for number, p in enumerate(passes, 1):
        for op, rec in p["ops"].items():
            attempted += 1
            why = [rec["detail"] or "check failed"] if not rec["ok"] else []
            want = ref_ops.get(op, {})
            if rec["digest"] is not None:
                if first.setdefault(op, rec["digest"]) != rec["digest"]:
                    why.append("bytes differ from the first repeat")
                if compare_bytes and want.get("digest", rec["digest"]) != rec["digest"]:
                    why.append("bytes differ from the reference")
            if "capture" in want and want["capture"] != rec.get("capture"):
                why.append(f"capture epochs {rec.get('capture')} != "
                           f"reference {want['capture']}")
            if why:
                failed += 1
                problems.append(f"repeat {number} {op}: {'; '.join(why)}")
        if "layers" in p:
            attempted += 1
            if p.get("trace_problems"):
                failed += 1
                problems.append(f"repeat {number} trace: "
                                f"{'; '.join(p['trace_problems'])}")
    return attempted, failed, problems


def trace_problems(traced: list[dict]) -> None:
    """Attach to each traced repeat what breaks the tracer's own invariants."""
    base = traced[0]["layers"] if traced else {}
    for p in traced:
        found = []
        if p["leftover_wrappers"]:
            found.append(f"wrappers left installed: {p['leftover_wrappers']}")
        if p["layers"]["span_self_sum_s"] > p["wall_s"]:
            found.append("span self times exceed the traced wall time")
        moved = [k for k in spantrace.EXACT if p["layers"][k] != base[k]]
        if moved:
            found.append(f"exact counts differ between traced repeats: {moved}")
        p["trace_problems"] = found


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, then repeat the workload until the time budget is spent."""
    work = ROOT / ".bench_build" / "perfbench" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(name, seed, work)
        warm, error = runner.spawn(setup_only=True)
        if warm is None:
            raise SystemExit(f"perfbench: lossmix does not set up: {error}")
        setups, plain, traced, passes = [], [], [], []
        last = {False: 0.0, True: 0.0}
        start = time.monotonic()
        while True:
            traced_now = trace and len(traced) < len(plain)
            short = (min(len(plain), len(traced)) < MIN_TRACE_PASSES if trace
                     else len(plain) < MIN_PASSES)
            if not short and time.monotonic() - start + last[traced_now] > seconds:
                break
            t0 = time.monotonic()
            result, error = runner.spawn(traced=traced_now)
            last[traced_now] = time.monotonic() - t0
            if result is None:
                raise SystemExit(f"perfbench: repeat {len(passes) + 1}: {error}")
            passes.append(result)
            (traced if traced_now else plain).append(result)
            setups.append(result)
        while len(setups) < MIN_SETUPS:
            result, error = runner.spawn(setup_only=True)
            if result is None:
                raise SystemExit(f"perfbench: set-up failed: {error}")
            setups.append(result)
        elapsed = time.monotonic() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    trace_problems(traced)
    reference = _load_reference()
    ref = reference.get("workloads", {}).get(name, {}).get(str(seed))
    compare_bytes = bool(ref) and reference.get("env") == _env_key(warm["env"])
    attempted, failed, problems = check_passes(passes, ref, compare_bytes)
    return {"workload": name, "seed": seed, "trace": trace, "elapsed_s": elapsed,
            "env": dict(host(), **warm["env"]), "setups": setups, "plain": plain,
            "traced": traced, "attempted": attempted, "failed": failed,
            "problems": problems, "reference": bool(ref),
            "compare_bytes": compare_bytes}


def end_to_end(run: dict, scaled: bool = True) -> dict[str, list[float]]:
    """Samples of each end-to-end metric; times at the reference host speed
    unless ``scaled`` is false."""
    plain = run["plain"]

    def at_ref(p: dict, key: str) -> float:
        return p[key] * (p["host_scale"] if scaled else 1.0)

    return {
        "setup_s": [at_ref(p, "setup_s") for p in run["setups"]],
        "wall_s": [at_ref(p, "wall_s") for p in plain],
        "cpu_s": [at_ref(p, "cpu_s") for p in plain],
        "epochs_per_s": [p["epochs"] / at_ref(p, "wall_s") for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }


def per_layer(run: dict) -> dict[str, list[float]]:
    traced = run["traced"]
    samples = {k: [p["layers"][k] for p in traced] for k in traced[0]["layers"]}
    samples["trace.wall_s"] = [p["wall_s"] for p in traced]
    overhead = (statistics.median(samples["trace.wall_s"])
                - statistics.median(p["wall_s"] for p in run["plain"]))
    samples["trace.overhead_s"] = [overhead]
    return samples


def report(run: dict, spec: dict) -> dict:
    """Print the human-readable table and return the contract's JSON object."""
    env = run["env"]
    print(f"== {run['workload']} (seed {run['seed']}, trace {int(run['trace'])}): "
          f"{len(run['plain'])} untraced + {len(run['traced'])} traced repeats, "
          f"{len(run['setups'])} set-ups, {run['elapsed_s']:.1f} s")
    print(f"why: {workloads.WHY[run['workload']]}")
    print(f"env: nproc {env['nproc']} (usable {env['cpus_usable']}), "
          f"{env['cpu_model']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']} core {env['blas_core']} "
          f"threads {env['blas_threads']}, commit {env['commit']}; "
          "every layer is single-threaded and nothing queues, so no wait times")
    print("reference: " + (
        ("recorded for this seed; output bytes compared" if run["compare_bytes"]
         else "recorded for this seed; capture epochs only (other numpy or BLAS)")
        if run["reference"] else "none for this seed; outputs checked for repeat "
        "identity and their own invariants"))
    unscaled = {k: statistics.median(v)
                for k, v in end_to_end(run, scaled=False).items()}
    print(f"host speed: {statistics.median(p['host_scale'] for p in run['setups']):.3f}"
          f" of the reference (probe {PROBE_REF_S * 1e3:g} ms); unscaled medians: "
          + ", ".join(f"{k} {v:.4g}" for k, v in unscaled.items()))
    rows = spec["per_layer"] if run["trace"] else spec["end_to_end"]
    samples = per_layer(run) if run["trace"] else end_to_end(run)
    if run["trace"]:
        wall = statistics.median(p["wall_s"] for p in run["plain"])
        print(f"untraced wall_s median {wall:.4f} s")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    metrics = {}
    for row in rows:
        values = samples[row["name"]]
        q1, med, q3 = _quartiles(values)
        metrics[row["name"]] = {"value": med, "unit": row["unit"]}
        print(f"{row['name']:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(values):3}  {row['unit']}")
    print(f"{'failed_frac':32} {run['failed'] / run['attempted']:12.6g} "
          f"{'':12} {'':12} {run['attempted']:3}  ratio "
          f"({run['failed']} of {run['attempted']} operations)")
    for line in run["problems"][:20]:
        print(f"FAILED {line}")
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def record_reference(seeds: list[int]) -> None:
    """Write reference.json: digests and capture epochs per workload and seed."""
    out = {"recorded_at": host()["commit"], "env": None, "workloads": {}}
    for name in workloads.NAMES:
        for seed in seeds:
            work = ROOT / ".bench_build" / "perfbench" / f"ref-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                runner = Runner(name, seed, work)
                warm, _ = runner.spawn(setup_only=True)
                result, error = runner.spawn()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            bad = error or [k for k, op in result["ops"].items() if not op["ok"]]
            if bad:
                raise SystemExit(f"perfbench: {name} seed {seed} fails: {bad}")
            out["env"] = _env_key(warm["env"])
            out["workloads"].setdefault(name, {})[str(seed)] = {"ops": {
                op: {k: rec[k] for k in ("digest", "capture") if rec.get(k) is not None}
                for op, rec in result["ops"].items()
                if rec["digest"] is not None}}
            print(f"{name} seed {seed}: {len(result['ops'])} operations recorded")
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", metavar="FIRST-LAST", default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lossmix" / "__init__.py").is_file():
        print(f"perfbench: no lossmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        first, last = (int(x) for x in args.record_reference.split("-"))
        record_reference(list(range(first, last + 1)))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results_dir = ROOT / ".bench_build" / "perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        line = report(run, spec)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (results_dir / f"{stem}.json").write_text(json.dumps(
            dict(run, result=line), indent=1, default=str))
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
