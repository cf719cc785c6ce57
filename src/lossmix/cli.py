"""Batch experiment runner: verify | train | klsweep | spectral | bounds.

Configs are JSON documents checked at load time against a published JSON
Schema (2020-12) by this module's own checker. Load time rejects, with exit
1, unknown keys (so a typo cannot silently drop a hyperparameter), values out
of range or of the wrong type, and the literals NaN, Infinity and -Infinity
and number literals that overflow to infinity: a float such as 1e400, or in
a number field an integer no float holds, such as 1 followed by 400 zeros
(an integer field takes any integer). A number with a zero fraction, such
as 3.0, in an integer field is read as the integer 3.
Every output directory is named by the SHA-256 of the config as parsed, so
reruns land in the same place with the same bytes: every seed is a config
key, and no flag (--config, --out, train's --jobs) changes a result.

Exit codes: 0 success, 1 validation failure, 2 runtime failure,
3 invariant failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, data, optim, pacbayes, spectral, verify
from .composite import MODES, SCHEME_KINDS, BetaWeights, Scheme
from .losses import LossKind
from .netcore import HIDDEN_ACTIVATIONS, OUTPUT_KINDS, MLPSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_INVARIANT = 3

_SCHEME_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(SCHEME_KINDS)},
        "index": {"type": "integer", "minimum": 0},
        "p": {"type": "number", "minimum": 1.0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "layer_widths": {"type": "array", "items": {"type": "integer", "minimum": 1},
                         "minItems": 2},
        "hidden_activation": {"enum": list(HIDDEN_ACTIVATIONS)},
        "output_kind": {"enum": list(OUTPUT_KINDS)},
    },
    "required": ["layer_widths"],
    "additionalProperties": False,
}

_DATASET_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["two_moons", "blobs", "cifar10_bin"]},
        "n": {"type": "integer", "minimum": 2},
        "noise": {"type": "number", "minimum": 0},
        "classes": {"type": "integer", "minimum": 2},
        "per_class": {"type": "integer", "minimum": 1},
        "dim": {"type": "integer", "minimum": 1},
        "spread": {"type": "number", "minimum": 0},
        "path": {"type": "string"},
        "max_records": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "val_fraction": {"type": "number", "exclusiveMinimum": 0,
                         "exclusiveMaximum": 1},
        "split_seed": {"type": "integer"},
        "randomize_level": {"type": "number", "minimum": 0, "maximum": 1},
        "randomize_seed": {"type": "integer"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

# the fields that only one dataset kind reads; every kind reads the others
_DATASET_KIND_FIELDS = {
    "two_moons": ("n", "noise"),
    "blobs": ("classes", "per_class", "dim", "spread"),
    "cifar10_bin": ("path", "max_records"),
}

_TRAIN_FIELDS = {
    # the 0-1 loss has no gradient, so it cannot be a training term
    "terms": {"type": "array", "minItems": 1, "items": {
        "enum": [k.value for k in LossKind if k is not LossKind.ZERO_ONE]}},
    "mode": {"enum": list(MODES)},
    "optimizer": {"enum": list(optim.OPTIMIZERS)},
    "learning_rate": {"type": "number", "exclusiveMinimum": 0},
    "momentum": {"type": "number", "minimum": 0},
    "epochs": {"type": "integer", "minimum": 1},
    "batch_size": {"type": "integer", "minimum": 1},
    "noise_eps": {"type": "number", "minimum": 0},
    "warmup_epochs": {"type": "integer", "minimum": 0},
    "l2_reg": {"type": "number", "minimum": 0},
    "init_scale": {"type": "number", "minimum": 0},
    "beta_rule": {"enum": list(optim.BETA_RULES)},
    "fixed_betas": {"type": "array", "items": {"type": "number"}},
}
_TRAIN_SCHEMA = {"type": "object", "properties": _TRAIN_FIELDS,
                 "additionalProperties": False}

_BOUND_SCHEMA = {
    "type": "object",
    "properties": {
        "lambda": {"type": "number"},
        "l_max": {"type": "number", "exclusiveMinimum": 0},
        "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "eps_dp": {"type": "number", "minimum": 0},
    },
    "required": ["lambda", "l_max", "delta"],
    "additionalProperties": False,
}

TRAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "dataset": _DATASET_SCHEMA,
        "model": _MODEL_SCHEMA,
        "train": _TRAIN_SCHEMA,
        "schemes": {"type": "array", "items": _SCHEME_SCHEMA, "minItems": 1},
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
    },
    "required": ["dataset", "model", "schemes", "seeds"],
    "additionalProperties": False,
}

KLSWEEP_SCHEMA = {
    "type": "object",
    "properties": {
        "grid": {
            "type": "object",
            "properties": {
                "lo": {"type": "number"},
                "hi": {"type": "number"},
                "points": {"type": "integer", "minimum": 3},
            },
            "required": ["lo", "hi", "points"],
            "additionalProperties": False,
        },
        "p_list": {"type": "array", "items": {"type": "number", "minimum": 1},
                   "minItems": 1},
        "betas": {"type": "array", "items": {"type": "number"}, "minItems": 2,
                  "maxItems": 2},
    },
    "required": [],
    "additionalProperties": False,
}

SPECTRAL_SCHEMA = {
    "type": "object",
    "properties": {
        # a tone between DFT bins would leak energy into every band
        "frequencies": {"type": "array", "items": {"type": "integer", "minimum": 1},
                        "minItems": 1},
        "amplitudes": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "n_points": {"type": "integer", "minimum": 8},
        "width": {"type": "integer", "minimum": 1},
        "epochs": {"type": "integer", "minimum": 1},
        "learning_rate": {"type": "number", "exclusiveMinimum": 0},
        "init_scale": {"type": "number", "minimum": 0},
        "threshold": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "schemes": {"type": "array", "items": _SCHEME_SCHEMA, "minItems": 1},
        "seed": {"type": "integer"},
    },
    "required": ["schemes"],
    "additionalProperties": False,
}

BOUNDS_SCHEMA = {
    "type": "object",
    "properties": {
        "dataset": _DATASET_SCHEMA,
        "model": _MODEL_SCHEMA,
        "train": _TRAIN_SCHEMA,
        "scheme": _SCHEME_SCHEMA,
        "posterior": {
            "type": "object",
            "properties": {
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "params_file": {"type": "string"},
            },
            "required": ["sigma"],
            "additionalProperties": False,
        },
        "prior": {
            "type": "object",
            "properties": {"lambda_p": {"type": "number", "exclusiveMinimum": 0}},
            "required": ["lambda_p"],
            "additionalProperties": False,
        },
        "bound": _BOUND_SCHEMA,
        "n_samples": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
    },
    "required": ["dataset", "model", "posterior", "prior", "bound"],
    "additionalProperties": False,
}


# keyword -> (test that fails a number, the failure's message)
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}


def _is_type(value, name: str) -> bool:
    """JSON Schema's types: a bool is not a number, and 2.0 is an integer."""
    if name in ("integer", "number"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return name == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, {"object": dict, "array": list, "string": str}[name])


def _checked(value, schema: dict, path: list, errors: list):
    """value with each integer field's float made an int. Appends (path,
    message) for each keyword of schema that value breaks, in the order
    jsonschema's iter_errors yields them and with its message texts. An
    integer in a number field that no float holds raises ValueError, as a
    float literal beyond range does at parse time."""
    out = value
    for key, rule in schema.items():
        fail = None
        if key == "type":
            if not _is_type(value, rule):
                fail = f"is not of type {rule!r}"
            elif rule == "integer":
                out = int(value)
            elif isinstance(value, int):  # a number; it may lie beyond float range
                _finite(str(value))
        elif key == "enum":
            if value not in rule:
                fail = f"is not one of {rule!r}"
        elif key in _BOUNDS:
            test, text = _BOUNDS[key]
            if _is_type(value, "number") and test(value, rule):
                fail = f"{text} {rule!r}"
        elif isinstance(value, list):
            if key == "items":
                out = [_checked(v, rule, path + [i], errors) for i, v in enumerate(value)]
            elif key == "minItems" and len(value) < rule:
                fail = "should be non-empty" if rule == 1 else "is too short"
            elif key == "maxItems" and len(value) > rule:
                fail = "is too long"
        elif isinstance(value, dict):
            if key == "properties":
                out = {k: _checked(v, rule[k], path + [k], errors) if k in rule else v
                       for k, v in value.items()}
            elif key == "required":
                errors.extend((path, f"{k!r} is a required property")
                              for k in rule if k not in value)
            elif key == "additionalProperties":
                extras = sorted(set(value) - set(schema.get("properties", {})), key=str)
                if extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    errors.append((path, f"Additional properties are not allowed "
                                         f"({names} {verb} unexpected)"))
        if fail is not None:
            errors.append((path, f"{value!r} {fail}"))
    return out


def _check(config, schema: dict):
    """config as the program reads it, or ValueError naming the first
    error in path order, ties kept in schema keyword order."""
    errors = []
    checked = _checked(config, schema, [], errors)
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        where = "/".join(map(str, path)) or "<root>"
        raise ValueError(f"config field {where}: {message}")
    return checked


def _finite(text: str) -> float:
    """A JSON number literal as a float, or ValueError if it is not finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"config number {text} is not finite")
    return value


def _load_config(path: str, schema: dict) -> tuple[dict, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    try:
        # json.loads hands NaN, Infinity and -Infinity to parse_constant
        config = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()
    return _check(config, schema), digest


def _scheme_from(doc: dict) -> Scheme:
    return Scheme(**doc)


def _dataset_from(doc: dict) -> tuple[data.Dataset, data.Dataset]:
    kind = doc["kind"]
    unread = [key for other, keys in _DATASET_KIND_FIELDS.items() if other != kind
              for key in keys if key in doc]
    if unread:
        raise ValueError(f"config field dataset/{unread[0]}: a {kind} dataset does not "
                         f"read it")
    seed = doc.get("seed", 0)
    if kind == "two_moons":
        full = data.two_moons(doc.get("n", 400), doc.get("noise", 0.1), seed)
    elif kind == "blobs":
        full = data.gaussian_blobs(doc.get("classes", 3), doc.get("per_class", 100),
                                   doc.get("dim", 2), doc.get("spread", 0.5), seed)
    elif "path" not in doc:
        raise ValueError("config field dataset/path: a cifar10_bin dataset needs a path")
    else:
        try:
            full = data.load_cifar10_bin(doc["path"], doc.get("max_records", 3000))
        except OSError as exc:
            raise ValueError(f"config field dataset/path: cannot read "
                             f"{doc['path']}: {exc.strerror}") from exc
    level = doc.get("randomize_level", 0.0)
    if level > 0:
        full = data.randomize_labels(full, level, doc.get("randomize_seed", seed))
    return data.train_val_split(full, doc.get("val_fraction", 0.75),
                                doc.get("split_seed", seed))


def _model_from(doc: dict) -> MLPSpec:
    return MLPSpec(**doc)


def _check_widths(spec: MLPSpec, train_set: data.Dataset) -> None:
    """Reject a model whose input or output width the dataset cannot feed."""
    want = (train_set.inputs.shape[1], train_set.targets.shape[1])
    got = (spec.input_dim, spec.output_dim)
    if got != want:
        raise ValueError(
            f"config field model/layer_widths: input/output widths {got[0]}/{got[1]} "
            f"do not match the dataset's {want[0]}/{want[1]}")


def _train_configs(config: dict, schemes, seeds) -> list[optim.TrainConfig]:
    """One TrainConfig per scheme and seed, from the config's train block."""
    doc = config.get("train", {})
    if "momentum" in doc and doc.get("optimizer") != "momentum":  # adam by default
        raise ValueError("config field train/momentum: only the momentum optimizer reads it")
    return [optim.TrainConfig(scheme=scheme, seed=seed, **doc)
            for scheme in schemes for seed in seeds]


def _check_distinct(field: str, values) -> None:
    """Reject a repeat in a list that names output directories."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"config field {field}: {value} is repeated")
        seen.add(value)


def _write_json(path: Path, doc: dict, digest: str | None = None) -> Path:
    """Write doc as sorted, indented JSON, with the config's hash if given."""
    if digest is not None:
        doc = {**doc, "config_sha256": digest}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


def _slug(scheme: Scheme) -> str:
    if scheme.kind == "single":
        return f"single{scheme.index}"
    if scheme.kind == "multi":
        return "multi"
    return f"nonlinear{scheme.p:g}"


def cmd_verify(out: Path) -> int:
    summary = verify.run_all()
    path = _write_json(out / "verify_summary.json", summary)
    for item in summary["invariants"]:
        status = "pass" if item["passed"] else "FAIL"
        print(f"[{status}] {item['name']}: {item['detail']}")
    print(f"summary written to {path}")
    if not summary["all_passed"]:
        failing = [i["name"] for i in summary["invariants"] if not i["passed"]]
        print(f"failing invariants: {', '.join(failing)}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_train(config: dict, digest: str, out: Path) -> int:
    spec = _model_from(config["model"])
    train_set, val_set = _dataset_from(config["dataset"])
    _check_widths(spec, train_set)
    schemes = [_scheme_from(s) for s in config["schemes"]]
    seeds = config["seeds"]
    # each run writes <scheme>-seed<seed>, so a repeat would overwrite a run
    _check_distinct("schemes", [s.label() for s in schemes])
    _check_distinct("seeds", seeds)

    configs = _train_configs(config, schemes, seeds)
    run_dirs = [out / f"{_slug(c.scheme)}-seed{c.seed}" for c in configs]
    for run_dir in run_dirs:
        if len(run_dir.name) > 255:  # an ASCII name, one byte a character
            raise ValueError(f"config field seeds: run name {run_dir.name[:32]}... "
                             f"is longer than a file name's 255 bytes")
    try:
        records = optim.train(spec, train_set, val_set, configs)
    except optim.TrainingDiverged as exc:
        for run_dir, record in zip(run_dirs, exc.finished):
            optim.save_run(run_dir, record, digest)
        run_dir = optim.save_run(run_dirs[exc.run], exc.record, digest)
        _write_json(run_dir / "failure.json",
                    {"run": run_dir.name, "epoch": exc.epoch, "message": str(exc)})
        print(f"runtime error: {exc}; partial trajectory in {run_dir}", file=sys.stderr)
        return EXIT_RUNTIME
    for run_dir, record in zip(run_dirs, records, strict=True):
        optim.save_run(run_dir, record, digest)
    print(f"{len(records)} runs written under {out}")
    return EXIT_OK


def cmd_klsweep(config: dict, digest: str, out: Path) -> int:
    grid = config.get("grid", {})
    if grid and grid["lo"] >= grid["hi"]:
        raise ValueError("config field grid: lo must be below hi")
    p_list = config.get("p_list", [1.0, 2.0, 3.0, 4.0])
    for p in p_list:
        if p + analysis.P_STEP == p:  # the report's dD_dp would divide by 0
            raise ValueError(f"config field p_list: {p} is too large for the "
                             f"p step {analysis.P_STEP}")
    L1, L2, p_opt = analysis.default_kl_testbed(**grid)
    betas_doc = config.get("betas", [0.5, 0.5])
    betas = BetaWeights(tuple(betas_doc))
    report = analysis.scheme_kl_report(L1, L2, p_opt, betas, p_list)
    path = _write_json(out / "kl_report.json", report.to_json_dict(), digest)
    print(f"report written to {path}")
    return EXIT_OK


def cmd_spectral(config: dict, digest: str, out: Path) -> int:
    # read as integers, but a target's frequencies are floats
    freqs = tuple(map(float, config.get("frequencies", [1.0, 3.0, 5.0])))
    amps = tuple(config.get("amplitudes", [1.0] * len(freqs)))
    if len(amps) != len(freqs):
        raise ValueError("config field amplitudes: must match frequencies")
    target = spectral.SpectralTarget(frequencies=freqs, amplitudes=amps,
                                     n_points=config.get("n_points", 256))
    schemes = [_scheme_from(s) for s in config["schemes"]]
    seed = config.get("seed", 1)
    # spectral_scheme_compare sets each run's scheme, seed, epochs and batch
    base = optim.TrainConfig(scheme=Scheme.multi(),
                             learning_rate=config.get("learning_rate", 0.02),
                             init_scale=config.get("init_scale", 3.0))
    comparison = spectral.spectral_scheme_compare(
        base, schemes, target, epochs=config.get("epochs", 1200), seed=seed,
        width=config.get("width", 200), threshold=config.get("threshold", 0.2))
    _write_json(out / "capture.json", comparison.to_json_dict(), digest)
    (out / "capture.csv").write_text(comparison.to_csv_text())
    print(f"capture reports written under {out}")
    return EXIT_OK


def cmd_bounds(config: dict, digest: str, out: Path) -> int:
    post_doc = config["posterior"]
    for key in ("scheme", "train"):
        if key in config and "params_file" in post_doc:
            raise ValueError(f"config field {key}: a posterior mean read from "
                             f"posterior/params_file is not trained")
    spec = _model_from(config["model"])
    train_set, val_set = _dataset_from(config["dataset"])
    _check_widths(spec, train_set)
    seed = config.get("seed", 0)
    # built before any training, so a bad bound or prior block fails up front
    prior = pacbayes.GaussianPrior(lambda_p=config["prior"]["lambda_p"])
    bound = config["bound"]
    params = pacbayes.BoundParams(lam=bound["lambda"], l_max=bound["l_max"],
                                  delta=bound["delta"], m=train_set.n,
                                  eps_dp=bound.get("eps_dp", 0.0))
    if "params_file" in post_doc:
        path = Path(post_doc["params_file"])
        if not path.exists():
            raise ValueError(f"config field posterior/params_file: "
                             f"missing model file {path}")
        try:
            with np.load(path) as archive:  # a .npy gives an array: a TypeError
                mean = archive["params"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"config field posterior/params_file: no params "
                             f"array in {path}: {exc}") from exc
    else:
        scheme = _scheme_from(config.get("scheme", {"kind": "multi"}))
        configs = _train_configs(config, [scheme], [seed])
        # only the final weights are read, so no telemetry rows
        mean = optim.train(spec, train_set, val_set, configs, rows=False)[0].final_params
    q = pacbayes.GaussianPosterior(mean=mean, sigma=post_doc["sigma"])
    cert = pacbayes.risk_certificate(q, prior, spec, val_set, params,
                                     n_samples=config.get("n_samples", 100),
                                     seed=seed)
    path = _write_json(out / "certificate.json", asdict(cert), digest)
    print(f"certificate written to {path}")
    return EXIT_OK


# command -> (its config schema, or None for a command with no config; its handler)
COMMANDS = {
    "verify": (None, cmd_verify),
    "train": (TRAIN_SCHEMA, cmd_train),
    "klsweep": (KLSWEEP_SCHEMA, cmd_klsweep),
    "spectral": (SPECTRAL_SCHEMA, cmd_spectral),
    "bounds": (BOUNDS_SCHEMA, cmd_bounds),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """A bad command line is a validation failure: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lossmix",
        description="Experiment runner for the composed-loss training lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (schema, _) in COMMANDS.items():
        cmd = sub.add_parser(name)
        if schema is not None:
            cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default="runs", help="output directory root")
        if name == "train":
            cmd.add_argument("--jobs", type=_positive_int, default=1,
                             help="kept for old command lines; a config's runs "
                                  "train as stacks in one process")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    schema, handler = COMMANDS[args.command]
    try:
        if schema is None:
            return handler(Path(args.out))
        config, digest = _load_config(args.config, schema)
        return handler(config, digest, Path(args.out) / f"{args.command}-{digest[:12]}")
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
