"""One benchmark repeat in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --inputs INPUTS.json --out DIR
        --result FILE --spawn-time T [--trace SPANS.json] [--setup-only]

Set-up is timed from --spawn-time, the CLOCK_MONOTONIC reading run.py took
just before starting this process, through ``import lossmix`` and the load
and schema validation of every config. The pass then runs every command
through ``lossmix.cli.main``; outputs are checked after the clock stops.
The result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import time
from pathlib import Path

import spantrace
import workloads


def run_pass(name: str, inp: dict, out: Path, tracer=None) -> dict:
    """Run the workload's commands once, then check what they wrote."""
    from lossmix import cli

    out.mkdir(parents=True, exist_ok=True)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    codes = [cli.main(argv + ["--out", str(out)]) for argv in inp["commands"]]
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result = {"wall_s": wall, "cpu_s": cpu, "codes": codes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spantrace.layer_metrics(tracer, t0, wall)
        result["leftover_wrappers"] = spantrace.leftover_wrappers()
    ops, epochs = workloads.CHECKS[name](inp, out, codes)
    result.update(ops=ops, epochs=epochs)
    if tracer is not None:
        result["layers"]["verify.check.failed"] = sum(
            not op["ok"] for key, op in ops.items() if key.startswith("verify:"))
    return result


def _openblas():
    # the OpenBLAS that numpy loaded; threadpoolctl would find it the same way
    with open("/proc/self/maps") as maps:
        paths = {ln.split()[-1] for ln in maps if "openblas" in ln.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                core = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if threads is not None and core is not None:
                    threads.restype, core.restype = ctypes.c_int, ctypes.c_char_p
                    return int(threads()), core().decode()
    return None, None


def environment() -> dict:
    """Interpreter, numpy/scipy and BLAS of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, core = _openblas()
    return {"python": platform.python_version(), "machine": platform.machine(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "blas_core": core}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from lossmix import cli

    tracer = spantrace.Tracer().install() if args.trace else None
    inp = json.loads(Path(args.inputs).read_text())
    for path, (schema, _) in inp["configs"].items():
        cli._load_config(path, getattr(cli, schema))
    result = {"setup_s": time.monotonic() - args.spawn_time}
    if args.setup_only:
        result["env"] = environment()
    else:
        result.update(run_pass(args.workload, inp, Path(args.out), tracer))
    if tracer is not None:
        Path(args.trace).write_text(json.dumps(tracer.spans))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
