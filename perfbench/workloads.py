"""The benchmark's workloads: CLI inputs made from a seed, and output checks.

The base configs are copies of the shipped ``configs/`` files, so editing
``configs/`` does not move the benchmark. Seed 0 reproduces the shipped
configs exactly (apart from the shortened spectral epoch count).

An operation is one training run, one invariant or one command; each check
below returns one record per operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

WHY = {
    "spectral": "criterion-08 shape: 1-200-1 sigmoid net, 256 points, full-batch "
                "Adam, three schemes; 256x200 netcore matmuls and per-epoch "
                "curvature telemetry dominate",
    "train": "lossmix train on two_moons: 9 runs of a 2-16-2 net, minibatch 32; "
             "thousands of tiny calls, so per-call overhead in losses, forward "
             "and the optimizer step dominates",
    "lab": "verify, klsweep, then bounds: forward-only posterior draws and "
           "finite-difference oracles; the only workload where analysis, "
           "pacbayes and verify do real work",
}
NAMES = tuple(WHY)

# criterion 08 trains 1200 epochs; 100 keep the per-epoch work and the low
# and mid band captures while letting several repeats fit in one run
SPECTRAL_EPOCHS = 100

SPECTRAL = {
    "frequencies": [1.0, 3.0, 5.0], "amplitudes": [1.0, 1.0, 1.0],
    "n_points": 256, "width": 200, "epochs": SPECTRAL_EPOCHS,
    "learning_rate": 0.02, "init_scale": 3.0, "threshold": 0.2,
    "schemes": [{"kind": "single", "index": 0}, {"kind": "multi"},
                {"kind": "nonlinear", "p": 2.0}],
    "seed": 1,
}
TWO_MOONS = {
    "dataset": {"kind": "two_moons", "n": 400, "noise": 0.1, "seed": 7,
                "val_fraction": 0.75, "randomize_level": 0.2,
                "randomize_seed": 11},
    "model": {"layer_widths": [2, 16, 2], "hidden_activation": "tanh",
              "output_kind": "softmax"},
    "train": {"optimizer": "adam", "learning_rate": 0.02, "epochs": 30,
              "batch_size": 32, "warmup_epochs": 5, "noise_eps": 1e-4,
              "l2_reg": 5e-4, "beta_rule": "softmax"},
    "schemes": [{"kind": "single", "index": 0}, {"kind": "multi"},
                {"kind": "nonlinear", "p": 2.0}],
    "seeds": [1, 2, 3],
}
KLSWEEP = {
    "grid": {"lo": -3.0, "hi": 3.0, "points": 601},
    "p_list": [1.0, 2.0, 3.0, 4.0],
    "betas": [0.5, 0.5],
}
BOUNDS = {
    "dataset": {"kind": "two_moons", "n": 300, "noise": 0.1, "seed": 2},
    "model": {"layer_widths": [2, 12, 2], "output_kind": "softmax"},
    "train": {"optimizer": "adam", "learning_rate": 0.02, "epochs": 20,
              "batch_size": 32, "warmup_epochs": 3},
    "scheme": {"kind": "nonlinear", "p": 2.0},
    "posterior": {"sigma": 0.05},
    "prior": {"lambda_p": 1.0},
    "bound": {"lambda": 1.0, "l_max": 1.0, "delta": 0.05, "eps_dp": 0.01},
    "n_samples": 100,
    "seed": 3,
}


def config_digest(config: dict) -> str:
    """The SHA-256 the CLI names output directories by."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def inputs(name: str, seed: int, config_dir: Path) -> dict:
    """Configs and CLI commands of one workload for one seed.

    Returns {"configs": {path: [schema name, document]}, "commands": [argv]};
    the worker appends ``--out`` to every command.
    """
    if name == "spectral":
        docs = {"spectral": ("SPECTRAL_SCHEMA", dict(SPECTRAL, seed=seed + 1))}
        commands = [["spectral", "--config", "@spectral"]]
    elif name == "train":
        seeds = [3 * seed + 1, 3 * seed + 2, 3 * seed + 3]
        docs = {"train": ("TRAIN_SCHEMA", dict(TWO_MOONS, seeds=seeds))}
        commands = [["train", "--config", "@train", "--jobs", "1"]]
    elif name == "lab":
        docs = {"klsweep": ("KLSWEEP_SCHEMA", KLSWEEP),
                "bounds": ("BOUNDS_SCHEMA", dict(BOUNDS, seed=seed + 3))}
        commands = [["verify"], ["klsweep", "--config", "@klsweep"],
                    ["bounds", "--config", "@bounds"]]
    else:
        raise ValueError(f"unknown workload {name!r}")
    paths = {f"@{key}": str(Path(config_dir) / f"{key}.json") for key in docs}
    return {
        "configs": {paths[f"@{key}"]: [schema, doc]
                    for key, (schema, doc) in docs.items()},
        "commands": [[paths.get(arg, arg) for arg in argv] for argv in commands],
    }


def _config(inp: dict, schema: str) -> dict:
    return next(doc for s, doc in inp["configs"].values() if s == schema)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _op(ok: bool, detail: str = "", digest: str | None = None, **extra) -> dict:
    return dict(ok=bool(ok), detail=detail, digest=digest, **extra)


def _finite(cells) -> bool:
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def _captures(fields: list[list[str]], keys: list[str], threshold: float) -> list:
    """First epoch each band's rel_error is strictly below threshold, from
    (epoch, band_lo, band_hi, rel_error) rows in epoch order."""
    caps = dict.fromkeys(keys)
    for epoch, lo, hi, error in fields:
        key = f"{lo}-{hi}"
        if key in caps and caps[key] is None and float(error) < threshold:
            caps[key] = int(epoch)
    return [caps[k] for k in keys]


def check_spectral(inp: dict, out: Path, codes: list[int]) -> tuple[dict, int]:
    from lossmix import cli

    cfg = _config(inp, "SPECTRAL_SCHEMA")
    labels = [cli._scheme_from(s).label() for s in cfg["schemes"]]
    run = out / f"spectral-{config_digest(cfg)[:12]}"
    if codes[0] != 0 or not (run / "capture.csv").is_file():
        return {f"spectral:{lb}": _op(False, f"exit code {codes[0]}")
                for lb in labels}, 0
    summary = json.loads((run / "capture.json").read_text())
    keys = [f"{lo:g}-{hi:g}" for lo, hi in summary["bands"]]
    lines = (run / "capture.csv").read_text().splitlines()[1:]
    ops, epochs = {}, 0
    for label in labels:
        rows = [ln for ln in lines if ln.startswith(label + ",")]
        caps = [summary["capture_epochs"].get(label, {}).get(k) for k in keys]
        problems = []
        if len(rows) != cfg["epochs"] * len(keys):
            problems.append(f"{len(rows)} csv rows")
        fields = [row[len(label) + 1:].split(",") for row in rows]
        if (any(len(f) != 4 for f in fields) or not _finite(f[3] for f in fields)
                or any(float(f[3]) < 0.0 for f in fields)):
            problems.append("malformed row or rel_error that is not a finite "
                            "energy ratio")
        elif caps != (want := _captures(fields, keys, summary["threshold"])):
            # the low-before-high order is a tendency criterion 08 asserts
            # for its own seeds at 1200 epochs, not a property of every
            # seed, so the check is that the summary agrees with the rows
            problems.append(f"capture epochs {caps} disagree with capture.csv {want}")
        if summary.get("config_sha256") != config_digest(cfg):
            problems.append("config hash differs")
        epochs += len(rows) // len(keys)
        ops[f"spectral:{label}"] = _op(
            not problems, "; ".join(problems),
            _sha("\n".join(rows).encode()), capture=caps)
    return ops, epochs


def check_train(inp: dict, out: Path, codes: list[int]) -> tuple[dict, int]:
    """Each run's trajectory is complete and finite, and its last row's loss
    values equal the losses of the saved final params on the training split."""
    import numpy as np
    from lossmix import cli, netcore
    from lossmix.losses import LossKind, loss_value

    cfg = _config(inp, "TRAIN_SCHEMA")
    spec = cli._model_from(cfg["model"])
    train_set, _ = cli._dataset_from(cfg["dataset"])
    root = out / f"train-{config_digest(cfg)[:12]}"
    ops, epochs = {}, 0
    for scheme_doc in cfg["schemes"]:
        for seed in cfg["seeds"]:
            name = f"{cli._slug(cli._scheme_from(scheme_doc))}-seed{seed}"
            run = root / name
            if codes[0] != 0 or not (run / "trajectory.csv").is_file():
                ops[f"train:{name}"] = _op(False, f"exit code {codes[0]}")
                continue
            raw = (run / "trajectory.csv").read_bytes()
            header, *rows = [ln.split(",") for ln in raw.decode().splitlines()]
            problems = []
            if len(rows) != cfg["train"]["epochs"]:
                problems.append(f"{len(rows)} rows")
            if not all(_finite(r) and len(r) == len(header) for r in rows):
                problems.append("malformed or non-finite row")
            elif rows:
                preds = netcore.forward(spec, np.load(run / "params.npz")["params"],
                                        train_set.as_batch())
                for col, cell in zip(header, rows[-1]):
                    if col.startswith("loss_"):
                        want = loss_value(LossKind(col[5:]), preds,
                                          train_set.targets).value
                        if not math.isclose(float(cell), want, rel_tol=1e-9):
                            problems.append(f"{col} {cell} != {want!r} from params")
            epochs += len(rows)
            ops[f"train:{name}"] = _op(not problems, "; ".join(problems), _sha(raw))
    return ops, epochs


def check_lab(inp: dict, out: Path, codes: list[int]) -> tuple[dict, int]:
    ops = {}
    summary_path = out / "verify_summary.json"
    if summary_path.is_file():
        for item in json.loads(summary_path.read_text())["invariants"]:
            ops[f"verify:{item['name']}"] = _op(item["passed"], item["detail"])
    else:
        ops["verify"] = _op(False, f"no summary, exit code {codes[0]}")

    kl_cfg = _config(inp, "KLSWEEP_SCHEMA")
    path = out / f"klsweep-{config_digest(kl_cfg)[:12]}" / "kl_report.json"
    if codes[1] == 0 and path.is_file():
        raw = path.read_bytes()
        report = json.loads(raw)
        problems = []
        if report.get("config_sha256") != config_digest(kl_cfg):
            problems.append("config hash differs")
        # exact in p for the unweighted norm, so it must hold on any grid
        if not report.get("unweighted", {}).get("orderings", {}).get(
                "d_non_non_increasing_in_p"):
            problems.append("unweighted divergence increases in p")
        ops["klsweep"] = _op(not problems, "; ".join(problems), _sha(raw))
    else:
        ops["klsweep"] = _op(False, f"exit code {codes[1]}")

    b_cfg = _config(inp, "BOUNDS_SCHEMA")
    path = out / f"bounds-{config_digest(b_cfg)[:12]}" / "certificate.json"
    epochs = 0
    if codes[2] == 0 and path.is_file():
        raw = path.read_bytes()
        cert = json.loads(raw)
        problems = []
        if not 0.0 <= cert["emp_risk"] <= cert["risk_upper"] <= 1.0:
            problems.append("risk_upper is not a rate at or above emp_risk")
        if not cert["dp_bound"] > 0.0 or cert["kl_q_p"] < 0.0:
            problems.append("negative bound term")
        if cert.get("config_sha256") != config_digest(b_cfg):
            problems.append("config hash differs")
        ops["bounds"] = _op(not problems, "; ".join(problems), _sha(raw))
        epochs = b_cfg["train"]["epochs"]
    else:
        ops["bounds"] = _op(False, f"exit code {codes[2]}")
    return ops, epochs


CHECKS = {"spectral": check_spectral, "train": check_train, "lab": check_lab}
