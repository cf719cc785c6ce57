"""Batch experiment runner: verify | train | klsweep | spectral | bounds.

Configs are JSON documents checked at load time against a published JSON
Schema (2020-12) by ``schema.check``. Each block that builds a type (the
model, the train block, a scheme, the grid, the posterior, the prior and
the bound) has the schema of that type's settings, whose keywords live
in their dataclass fields; this module writes only the dataset block,
which builds no type, and each command's own keys. Load time rejects,
with exit 1, unknown keys (so a typo cannot silently drop a
hyperparameter), values out of range or of the wrong type, and the
literals NaN, Infinity and -Infinity and number literals that overflow to
infinity: a float such as 1e400, or in a number field an integer no float
holds, such as 1 followed by 400 zeros (an integer field takes any
integer). A number with a zero fraction, such as 3.0, in an integer field
is read as the integer 3.
Every output directory is named by the SHA-256 of the config as parsed,
and holds that document as config.json, so reruns land in the same place
with the same bytes: every seed is a config key, and no flag (--config,
--out, train's --jobs) changes a result.

Each command loads only the modules it runs. Importing this module loads
what ``train`` runs: ``data`` and ``optim``, and with them ``netcore``,
``composite``, ``losses`` and ``schema``. ``verify``, ``klsweep``,
``spectral`` and ``bounds`` import ``verify``, ``analysis``, ``spectral``
and ``pacbayes`` when they run, and ``KLSWEEP_SCHEMA`` and
``BOUNDS_SCHEMA``, which need the types of ``analysis`` and ``pacbayes``,
are built when first read.

Exit codes: 0 success, 1 validation failure, 2 runtime failure,
3 invariant failure. main records a run that stops being finite in
failure.json, in the command's output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data, optim
from .composite import BetaWeights, Scheme
from .netcore import MLPSpec
from .schema import check, finite, object_schema

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_INVARIANT = 3

# the fields that only one dataset kind reads; every kind reads the others
_DATASET_KIND_FIELDS = {
    "two_moons": ("n", "noise"),
    "blobs": ("classes", "per_class", "dim", "spread"),
    "cifar10_bin": ("path", "max_records"),
}

# the dataset block builds no type, so its rules are written here alone
_DATASET_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(_DATASET_KIND_FIELDS)},
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

_SCHEME_SCHEMA = object_schema(Scheme)
_MODEL_SCHEMA = object_schema(MLPSpec)
_TRAIN_SCHEMA = object_schema(optim.TrainConfig)
_TRAIN_FIELDS = _TRAIN_SCHEMA["properties"]

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

SPECTRAL_SCHEMA = {
    "type": "object",
    "properties": {
        # a tone between DFT bins would leak energy into every band
        "frequencies": {"type": "array", "items": {"type": "integer", "minimum": 1},
                        "minItems": 1},
        "amplitudes": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "n_points": {"type": "integer", "minimum": 8},
        # the hidden layer's width
        "width": _MODEL_SCHEMA["properties"]["layer_widths"]["items"],
        "epochs": _TRAIN_FIELDS["epochs"],
        "learning_rate": _TRAIN_FIELDS["learning_rate"],
        "init_scale": _TRAIN_FIELDS["init_scale"],
        "threshold": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "schemes": {"type": "array", "items": _SCHEME_SCHEMA, "minItems": 1},
        "seed": {"type": "integer"},
    },
    "required": ["schemes"],
    "additionalProperties": False,
}


def _klsweep_schema() -> dict:
    from . import analysis

    return {
        "type": "object",
        "properties": {
            "grid": object_schema(analysis.Grid),
            "p_list": {"type": "array", "items": {"type": "number", "minimum": 1},
                       "minItems": 1},
            "betas": {"type": "array", "items": {"type": "number"}, "minItems": 2,
                      "maxItems": 2},
        },
        "required": [],
        "additionalProperties": False,
    }


def _bounds_schema() -> dict:
    from . import pacbayes

    return {
        "type": "object",
        "properties": {
            "dataset": _DATASET_SCHEMA,
            "model": _MODEL_SCHEMA,
            "train": _TRAIN_SCHEMA,
            "scheme": _SCHEME_SCHEMA,
            "posterior": object_schema(pacbayes.GaussianPosterior,
                                       {"params_file": {"type": "string"}}),
            "prior": object_schema(pacbayes.GaussianPrior),
            "bound": object_schema(pacbayes.BoundParams),
            "n_samples": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer"},
        },
        "required": ["dataset", "model", "posterior", "prior", "bound"],
        "additionalProperties": False,
    }


# the published schemas whose types live in modules only their own command
# loads: each is built on its first read and then kept as a module global
_DEFERRED_SCHEMAS = {"KLSWEEP_SCHEMA": _klsweep_schema, "BOUNDS_SCHEMA": _bounds_schema}


def __getattr__(name: str):
    # called only for a name the module does not hold (PEP 562)
    if name not in _DEFERRED_SCHEMAS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    schema = globals()[name] = _DEFERRED_SCHEMAS[name]()
    return schema


def _load_config(path: str, schema: dict) -> tuple[dict, dict, str]:
    """The config at path as the program reads it, the document as parsed,
    and the SHA-256 of that document, which names the output directory."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    try:
        # json.loads hands NaN, Infinity and -Infinity to parse_constant
        doc = json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return check(doc, schema), doc, digest


def _scheme_from(doc: dict) -> Scheme:
    return Scheme(**doc)


def _dataset_from(doc: dict) -> tuple[data.Dataset, data.Dataset]:
    kind = doc["kind"]
    unread = [key for other, keys in _DATASET_KIND_FIELDS.items() if other != kind
              for key in keys if key in doc]
    if unread:
        raise ValueError(f"config field dataset/{unread[0]}: a {kind} dataset does not "
                         f"read it")
    if "randomize_seed" in doc and doc.get("randomize_level", 0.0) <= 0:
        raise ValueError("config field dataset/randomize_seed: only a positive "
                         "randomize_level reads it")
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
    return _reading("dataset/val_fraction", data.train_val_split, full,
                    doc.get("val_fraction", 0.75), doc.get("split_seed", seed))


def _model_from(doc: dict) -> MLPSpec:
    if "hidden_activation" in doc and len(doc["layer_widths"]) == 2:
        raise ValueError("config field model/hidden_activation: a net with no hidden "
                         "layer does not read it")
    return _reading("model/layer_widths", MLPSpec, **doc)


def _schemes(config: dict) -> dict[str, Scheme]:
    """The config's schemes by config field, each label once: it names outputs."""
    schemes = {f"schemes/{i}": _reading(f"schemes/{i}", _scheme_from, doc)
               for i, doc in enumerate(config["schemes"])}
    _check_distinct("schemes", [s.label() for s in schemes.values()])
    return schemes


def _check_widths(spec: MLPSpec, train_set: data.Dataset) -> None:
    """Reject a model whose input or output width the dataset cannot feed."""
    want = (train_set.inputs.shape[1], train_set.targets.shape[1])
    got = (spec.input_dim, spec.output_dim)
    if got != want:
        raise ValueError(
            f"config field model/layer_widths: input/output widths {got[0]}/{got[1]} "
            f"do not match the dataset's {want[0]}/{want[1]}")


def _train_configs(config: dict, schemes: dict, seeds) -> list[optim.TrainConfig]:
    """One TrainConfig per scheme (by config field) and seed, from the config's
    train block."""
    doc = config.get("train", {})
    if "momentum" in doc and doc.get("optimizer") != "momentum":  # adam by default
        raise ValueError("config field train/momentum: only the momentum optimizer reads it")
    # multi reads no term index: what fails here is the train block
    base = _reading("train", optim.TrainConfig, scheme=Scheme.multi(), **doc)
    return [_reading(field, replace, base, scheme=scheme, seed=seed)
            for field, scheme in schemes.items() for seed in seeds]


def _check_distinct(field: str, values) -> None:
    """Reject a repeat in a list whose entries name separate outputs."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"config field {field}: {value} is repeated")
        seen.add(value)


def _reading(field: str, make, *args, **kwargs):
    """make(*args, **kwargs), whose ValueError names the config field it reads."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"config field {field}: {exc}") from exc


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
    from . import verify

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
    seeds = config["seeds"]
    configs = _train_configs(config, _schemes(config), seeds)
    # each run writes <scheme>-seed<seed>, so a repeat would overwrite a run
    _check_distinct("seeds", seeds)

    def run_dir(cfg: optim.TrainConfig) -> Path:
        return out / f"{_slug(cfg.scheme)}-seed{cfg.seed}"

    for cfg in configs:
        if len(run_dir(cfg).name) > 255:  # an ASCII name, one byte a character
            raise ValueError(f"config field seeds: run name {run_dir(cfg).name[:32]}... "
                             f"is longer than a file name's 255 bytes")
    try:
        records = optim.train(spec, train_set, val_set, configs)
    except optim.TrainingDiverged as exc:  # main reports it
        for record in exc.finished + [exc.record]:
            optim.save_run(run_dir(record.config), record, digest)
        raise
    for record in records:
        optim.save_run(run_dir(record.config), record, digest)
    print(f"{len(records)} runs written under {out}")
    return EXIT_OK


def cmd_klsweep(config: dict, digest: str, out: Path) -> int:
    from . import analysis

    grid = config.get("grid", {})
    if grid:
        _reading("grid", analysis.Grid, grid["lo"], grid["hi"], grid["points"])
        if not math.isfinite(grid["hi"] - grid["lo"]):
            raise ValueError("config field grid: hi - lo overflows a float")
    p_list = config.get("p_list", [1.0, 2.0, 3.0, 4.0])
    # the report keys each p's results by its %g text
    _check_distinct("p_list", [f"{p:g}" for p in p_list])
    for p in p_list:
        if p + analysis.P_STEP == p:  # the report's dD_dp would divide by 0
            raise ValueError(f"config field p_list: {p} is too large for the "
                             f"p step {analysis.P_STEP}")
    betas = _reading("betas", BetaWeights, tuple(config.get("betas", [0.5, 0.5])))
    L1, L2, p_opt = analysis.default_kl_testbed(**grid)
    report = analysis.scheme_kl_report(L1, L2, p_opt, betas, p_list)
    path = _write_json(out / "kl_report.json", report.to_json_dict(), digest)
    print(f"report written to {path}")
    return EXIT_OK


def cmd_spectral(config: dict, digest: str, out: Path) -> int:
    from . import spectral

    # read as integers, but a target's frequencies are floats
    freqs = tuple(map(float, config.get("frequencies", [1.0, 3.0, 5.0])))
    amps = tuple(config.get("amplitudes", [1.0] * len(freqs)))
    target = _reading("frequencies", spectral.SpectralTarget, frequencies=freqs,
                      amplitudes=amps, n_points=config.get("n_points", 256))
    _reading("amplitudes", lambda: target.data)  # built once, and kept
    seed = config.get("seed", 1)
    # spectral_scheme_compare sets each run's scheme, seed, epochs and batch
    base = optim.TrainConfig(scheme=Scheme.multi(),
                             learning_rate=config.get("learning_rate", 0.02),
                             init_scale=config.get("init_scale", 3.0))
    # a single index past the terms fails here
    schemes = [_reading(field, replace, base, scheme=scheme).scheme
               for field, scheme in _schemes(config).items()]
    comparison = spectral.spectral_scheme_compare(
        base, schemes, target, epochs=config.get("epochs", 1200), seed=seed,
        width=config.get("width", 200), threshold=config.get("threshold", 0.2))
    _write_json(out / "capture.json", comparison.to_json_dict(), digest)
    (out / "capture.csv").write_text(comparison.to_csv_text())
    print(f"capture reports written under {out}")
    return EXIT_OK


def cmd_bounds(config: dict, digest: str, out: Path) -> int:
    from . import pacbayes

    post_doc = config["posterior"]
    for key in ("scheme", "train"):
        if key in config and "params_file" in post_doc:
            raise ValueError(f"config field {key}: a posterior mean read from "
                             f"posterior/params_file is not trained")
    spec = _model_from(config["model"])
    train_set, val_set = _dataset_from(config["dataset"])
    _check_widths(spec, train_set)
    seed = config.get("seed", 0)
    # built before any training, so a bad bound or prior block fails up front,
    # and so do the certificate's terms that the config alone fixes
    prior = _reading("prior/lambda_p", pacbayes.GaussianPrior,
                     lambda_p=config["prior"]["lambda_p"])
    _reading("posterior/sigma", pacbayes.kl_spread_term, spec.n_params,
             post_doc["sigma"], prior)
    # m is the training set's size
    if train_set.n < 2:
        raise ValueError(f"config field dataset: a certificate needs at least 2 "
                         f"training points, got {train_set.n}")
    bound = config["bound"]
    params = _reading("bound/lambda", pacbayes.BoundParams, lam=bound["lambda"],
                      l_max=bound["l_max"], delta=bound["delta"], m=train_set.n,
                      eps_dp=bound.get("eps_dp", 0.0))
    _reading("bound/eps_dp", pacbayes.privacy_term, params.m, params.eps_dp)
    if "params_file" in post_doc:
        path = Path(post_doc["params_file"])
        if not path.exists():
            raise ValueError(f"config field posterior/params_file: "
                             f"missing model file {path}")
        try:
            with np.load(path) as archive:  # a .npy gives an array: a TypeError
                mean = np.asarray(archive["params"], dtype=np.float64)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"config field posterior/params_file: no params "
                             f"array in {path}: {exc}") from exc
        if not np.isfinite(mean).all():  # no draw about it would be finite
            raise ValueError(f"config field posterior/params_file: the params in "
                             f"{path} are not all finite")
    else:
        scheme = _reading("scheme", _scheme_from, config.get("scheme", {"kind": "multi"}))
        configs = _train_configs(config, {"scheme": scheme}, [seed])
        # only the final weights are read, so no telemetry rows
        mean = optim.train(spec, train_set, val_set, configs, rows=False)[0].final_params
    q = pacbayes.GaussianPosterior(mean=mean, sigma=post_doc["sigma"])
    cert = pacbayes.risk_certificate(q, prior, spec, val_set, params,
                                     n_samples=config.get("n_samples", 100),
                                     seed=seed)
    path = _write_json(out / "certificate.json", asdict(cert), digest)
    print(f"certificate written to {path}")
    return EXIT_OK


# command -> (the name of its config schema, or None for a command with no
# config; its handler)
COMMANDS = {
    "verify": (None, cmd_verify),
    "train": ("TRAIN_SCHEMA", cmd_train),
    "klsweep": ("KLSWEEP_SCHEMA", cmd_klsweep),
    "spectral": ("SPECTRAL_SCHEMA", cmd_spectral),
    "bounds": ("BOUNDS_SCHEMA", cmd_bounds),
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
    out = Path(args.out)
    try:
        if schema is None:
            return handler(out)
        config, doc, digest = _load_config(args.config,
                                           getattr(sys.modules[__name__], schema))
        out = out / f"{args.command}-{digest[:12]}"
        code = handler(config, digest, out)
        _write_json(out / "config.json", doc)
        return code
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (optim.TrainingDiverged, FloatingPointError) as exc:
        # a run that stopped being finite: the command's directory says where
        record = {"message": str(exc)}
        if isinstance(exc, optim.TrainingDiverged):
            cfg = exc.record.config
            record.update(run=cfg.scheme.label(), seed=cfg.seed, epoch=exc.epoch)
        _write_json(out / "failure.json", record)
        _write_json(out / "config.json", doc)
        print(f"runtime error: {exc}; failure record in {out}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
