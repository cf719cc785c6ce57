"""In-memory spans around the calls into each lossmix module.

A span records its name, start, end and the index of the span that was open
when it began (-1 at top level). Spans stay in memory until the pass ends.

Wrappers go on the attribute each caller looks the function up by. lossmix
modules use ``from .x import f``, so one function object can sit in several
module namespaces; ``Tracer.patch`` wraps it in every lossmix namespace that
holds it, and ``Tracer.uninstall`` puts every original back.

Span names follow the layer's role (``netcore.forward``), not the current
function name (``_forward_cache``), so a rename keeps metrics comparable.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

WRAPPED = "__perfbench_wrapped__"


def _matmul_flops(spec, rows: int, backward: bool) -> int:
    # matmul multiply-adds only: x @ W per layer forward; dW = a.T @ delta per
    # layer plus delta @ W.T for every layer but the first backward
    pairs = [a * b for a, b in zip(spec.layer_widths, spec.layer_widths[1:])]
    work = sum(pairs) + (sum(pairs[1:]) if backward else 0)
    return 2 * rows * work


# (span name, module, attribute); "Class.method" patches the class itself
LAYERS = (
    ("netcore.forward", "lossmix.netcore", "_forward_cache"),
    ("netcore.backward", "lossmix.netcore", "_backward_from_cache"),
    ("netcore.fd_grad", "lossmix.netcore", "finite_diff_grad"),
    ("losses.value", "lossmix.losses", "loss_value"),
    ("losses.grad", "lossmix.losses", "loss_output_grad"),
    ("composite.value", "lossmix.composite", "composite_value"),
    ("composite.grad", "lossmix.composite", "composite_grad"),
    ("composite.betas", "lossmix.composite", "adaptive_betas"),
    ("composite.curvature", "lossmix.composite", "directional_curvature"),
    ("optim.step", "lossmix.optim", "optimizer_step"),
    ("optim.telemetry", "lossmix.optim", "_epoch_row"),
    ("optim.train", "lossmix.optim", "train"),
    ("optim.save", "lossmix.optim", "save_run"),
    ("data.build", "lossmix.data", "two_moons"),
    ("data.build", "lossmix.data", "gaussian_blobs"),
    ("data.build", "lossmix.data", "freq_target_1d"),
    ("data.build", "lossmix.data", "load_cifar10_bin"),
    ("data.build", "lossmix.data", "randomize_labels"),
    ("data.build", "lossmix.data", "train_val_split"),
    ("data.batch", "lossmix.netcore", "Batch.__init__"),
    ("analysis.kl_report", "lossmix.analysis", "scheme_kl_report"),
    ("analysis.boltzmann", "lossmix.analysis", "boltzmann"),
    ("analysis.entropy", "lossmix.analysis", "generalized_entropy"),
    ("analysis.entropy", "lossmix.analysis", "generalized_entropy_mc"),
    ("analysis.sharpness", "lossmix.analysis", "box_sharpness"),
    ("pacbayes.risk", "lossmix.pacbayes", "empirical_risk"),
    ("pacbayes.kl_inverse", "lossmix.pacbayes", "kl_inverse"),
    ("spectral.capture", "lossmix.spectral", "frequency_capture"),
    ("spectral.compare", "lossmix.spectral", "spectral_scheme_compare"),
    ("cli.config", "lossmix.cli", "_load_config"),
)
# metrics reported as {calls, self_s}; the rest are reported on their own
CALL_METRICS = ("netcore.forward", "netcore.backward", "netcore.fd_grad",
                "losses.value", "losses.grad", "composite.value", "composite.grad",
                "composite.betas", "composite.curvature", "optim.step",
                "optim.telemetry", "optim.save", "data.build", "data.batch",
                "analysis.kl_report", "analysis.boltzmann", "analysis.entropy",
                "analysis.sharpness", "pacbayes.risk", "pacbayes.kl_inverse",
                "verify.check", "spectral.capture", "cli.config")
# counts that must repeat exactly between two traced passes of one input
EXACT = tuple(f"{n}.calls" for n in CALL_METRICS) + (
    "optim.forwards_per_epoch", "pacbayes.draws", "netcore.gflop")


class Tracer:
    """Collects spans and counts from the wrappers it installs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, after=None):
        """fn inside a span; after(args, result) may add to self.counts."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def count(self, fn, name: str):
        """fn with a call counter and no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def patch(self, module: str, attr: str, make) -> None:
        """Replace module.attr, wherever a lossmix namespace holds it, by
        make(original). A dotted attr names a method, patched on its class."""
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(sys.modules[module], cls_name)
            self._set(owner, method, make(vars(owner)[method]))
            return
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "lossmix" and not name.startswith("lossmix."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def install(self) -> "Tracer":
        """Wrap every layer in LAYERS plus the verify checks and posterior draws."""
        import lossmix.cli  # noqa: F401 - loads every module the patches touch
        from lossmix import verify

        counts = self.counts

        def flops(backward):
            def after(args, _result):
                counts["netcore.flop"] += _matmul_flops(
                    args[0], len(args[2]), backward)
            return after

        def saved_bytes(_args, out_dir):
            counts["optim.save.bytes"] += sum(
                f.stat().st_size for f in out_dir.iterdir() if f.is_file())

        hooks = {"netcore.forward": flops(False), "netcore.backward": flops(True),
                 "optim.save": saved_bytes}
        for name, module, attr in LAYERS:
            self.patch(module, attr,
                       lambda fn, n=name: self.wrap(fn, n, hooks.get(n)))
        self.patch("lossmix.pacbayes", "GaussianPosterior.sample",
                   lambda fn: self.count(fn, "pacbayes.draws"))
        self._set(verify, "INVARIANTS", [(n, self.wrap(fn, "verify.check"))
                                         for n, fn in verify.INVARIANTS])
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def leftover_wrappers() -> list[str]:
    """Names of lossmix attributes that are still tracer wrappers."""
    found = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != "lossmix" and not name.startswith("lossmix."):
            continue
        for key, value in vars(mod).items():
            owners = [(key, value)]
            if isinstance(value, type) and value.__module__ == name:
                owners += [(f"{key}.{k}", v) for k, v in vars(value).items()]
            found += [f"{name}.{k}" for k, v in owners if hasattr(v, WRAPPED)]
        if name == "lossmix.verify":
            found += [f"{name}.INVARIANTS[{n}]" for n, fn in mod.INVARIANTS
                      if hasattr(fn, WRAPPED)]
    return found


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, start: float, wall_s: float) -> dict:
    """Per-layer metrics of the spans that began at or after `start`.

    Spans before `start` (the config loads of set-up) count toward cli.config
    only; the self-time sum and unattributed time cover the timed pass.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    under_train = [False] * len(spans)
    train_forwards = 0
    pass_self = 0.0
    for i, ((name, s, e, parent), own) in enumerate(zip(spans, selfs)):
        calls[name] += 1
        self_s[name] += own
        total_s[name] += e - s
        if parent >= 0:
            under_train[i] = under_train[parent] or spans[parent][0] == "optim.train"
        if name == "netcore.forward" and under_train[i]:
            train_forwards += 1
        if s >= start:
            pass_self += own
    out = {}
    for name in CALL_METRICS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    gflop = tracer.counts["netcore.flop"] / 1e9
    net_s = self_s["netcore.forward"] + self_s["netcore.backward"]
    epochs = calls["optim.telemetry"]
    out.update({
        "netcore.gflop": gflop,
        "netcore.gflop_per_s": gflop / net_s if net_s > 0 else 0.0,
        "composite.curvature.total_s": total_s["composite.curvature"],
        "optim.telemetry.total_s": total_s["optim.telemetry"],
        "optim.train.self_s": self_s["optim.train"],
        "optim.forwards_per_epoch": train_forwards / epochs if epochs else 0.0,
        "optim.save.bytes": tracer.counts["optim.save.bytes"],
        "pacbayes.draws": tracer.counts["pacbayes.draws"],
        "spectral.compare.self_s": self_s["spectral.compare"],
        "trace.unattributed_s": wall_s - pass_self,
        "span_self_sum_s": pass_self,
    })
    return out
