"""Frequency-domain machinery: the closed-form sigmoid Fourier transform,
residual DFT tracking during training, and per-band capture-order
comparison across training schemes.

The scheme comparison trains a one-hidden-layer sigmoid net on a
multi-tone 1-d target whose tones sit on exact DFT bins of the evaluation
grid, then watches how fast each band's residual energy falls. The one
residual DFT is ``residual_spectrum``, in numpy's bin order: bin k of n
grid points has the integer frequency min(k, n - k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import optim
from .composite import Scheme
from .data import Dataset, freq_target_1d
from .netcore import MLPSpec


@dataclass(frozen=True)
class SigmoidUnit:
    """One sigmoid activation sigma(a x + b)."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.a == 0.0:
            raise ValueError("slope a must be nonzero")


def _csch(t: float) -> float:
    # 1/sinh with the exponential asymptote for large |t| to dodge overflow
    if abs(t) > 350.0:
        return math.copysign(2.0 * math.exp(-abs(t)), t)
    return 1.0 / math.sinh(t)


def sigmoid_ft(unit: SigmoidUnit, omega: float) -> complex:
    """Fourier transform of sigma(a x + b) at a nonzero frequency.

    -(i pi / |a|) exp(i b omega / a) / sinh(pi omega / a); the
    distributional delta at omega = 0 is excluded.
    """
    if omega == 0.0:
        raise ValueError("distributional component excluded at omega = 0")
    phase = complex(math.cos(unit.b * omega / unit.a),
                    math.sin(unit.b * omega / unit.a))
    return -1j * math.pi / abs(unit.a) * phase * _csch(math.pi * omega / unit.a)


def residual_spectrum(outputs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """DFT of (outputs - target) along the last axis, in numpy's bin order.

    outputs is one row of n samples or an (epochs, n) block of rows; each
    row's transform has the bits of a transform of its own. When the n
    samples span one 2 pi period, bin k has the integer frequency
    min(k, n - k). Parseval holds: sum |r|^2 = (1/n) sum |DFT|^2.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64).ravel()
    if outputs.shape[-1:] != target.shape:
        raise ValueError(f"length mismatch: outputs of shape {outputs.shape} "
                         f"vs {target.size} targets")
    return np.fft.fft(outputs - target, axis=-1)


def check_bands(bands: Sequence[tuple[float, float]], n_points: int) -> None:
    """Reject bands that are empty, overlap, or reach past the Nyquist
    frequency n_points // 2 of n_points samples over one 2 pi period."""
    bands = sorted(bands)
    for lo, hi in bands:
        if not 0.0 <= lo < hi:
            raise ValueError(f"bad band ({lo}, {hi})")
        if hi > n_points // 2:
            raise ValueError(f"band ({lo}, {hi}) exceeds the Nyquist frequency")
    for (lo1, hi1), (lo2, hi2) in zip(bands, bands[1:]):
        if lo2 < hi1 - 1e-12 and not np.isclose(lo2, hi1):
            raise ValueError(f"bands ({lo1},{hi1}) and ({lo2},{hi2}) overlap")


@dataclass
class FrequencyCaptureReport:
    """Per-epoch relative residual energy per band, plus capture epochs.
    A band with no target energy has a NaN column and no capture."""

    rel_errors: np.ndarray  # (epochs, bands)
    capture_epochs: list[int | None]


def frequency_capture(outputs_by_epoch: Sequence[np.ndarray], target: np.ndarray,
                      bands: Sequence[tuple[float, float]],
                      threshold: float) -> FrequencyCaptureReport:
    """First epoch at which each band's relative residual energy
    drops below threshold (strict), scanning the recorded trajectory.

    The n target samples span one 2 pi period, so a tone k sits on DFT
    bin k; bin k has the integer frequency min(k, n - k), and each band
    sums the bins whose frequency lies strictly inside it (never the DC
    bin). The scan takes one DFT per block of epochs, and each epoch's row
    keeps the bits of a scan of its own."""
    if len(outputs_by_epoch) < 1:
        raise ValueError("need at least one epoch of outputs")
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must be in [0, 1)")
    target = np.asarray(target, dtype=np.float64).ravel()
    n = target.size
    check_bands(bands, n)
    k = np.arange(n)
    freqs = np.minimum(k, n - k)
    target_f = np.fft.fft(target)
    masks = [(freqs > lo) & (freqs < hi) for lo, hi in bands]
    target_energy = np.array([float((np.abs(target_f[m]) ** 2).sum()) for m in masks])
    # fft roundoff leaves ~1e-30 of relative leakage in truly empty bands
    total = float((np.abs(target_f) ** 2).sum())
    filled = [b for b, te in enumerate(target_energy) if te > 1e-12 * max(total, 1e-300)]

    epochs = len(outputs_by_epoch)
    rel = np.full((epochs, len(bands)), np.nan)
    # a block costs six float64 per sample: its outputs, their residual, and
    # the complex copy and transform np.fft.fft makes. Within the element
    # budget of a training stack, the scan reuses heap a training epoch
    # freed and leaves the peak RSS where training set it
    rows = max(1, optim.STACK_ELEMENTS // (6 * n))
    for first in range(0, epochs, rows):
        count = min(rows, epochs - first)
        # an epoch's outputs may be an (n, 1) column, so each becomes one row
        block = np.reshape(outputs_by_epoch[first:first + count], (count, -1))
        res_f = residual_spectrum(block, target)
        for b in filled:
            # compress keeps each row contiguous, so each row sums pairwise as
            # an epoch's own would; a mask index lays the block out by column
            # and sums a band of 8 or more bins in another order
            band = np.abs(res_f.compress(masks[b], axis=-1)) ** 2
            rel[first:first + count, b] = band.sum(axis=-1) / target_energy[b]

    # NaN is never below the threshold, so an empty band is never captured
    captures = [int(c.argmax()) if c.any() else None for c in (rel < threshold).T]
    return FrequencyCaptureReport(rel_errors=rel, capture_epochs=captures)


def default_bands(frequencies: Sequence[float]) -> list[tuple[float, float]]:
    """One open window (k - 1, k + 1) around each exact-bin tone."""
    return [(float(k) - 1.0, float(k) + 1.0) for k in sorted(frequencies)]


@dataclass(frozen=True)
class SpectralTarget:
    """The multi-tone regression target of the capture experiment. The
    tones' default_bands must be valid bands of n_points samples, checked
    when the target is made."""

    frequencies: tuple[float, ...]
    amplitudes: tuple[float, ...]
    n_points: int

    def __post_init__(self):
        check_bands(default_bands(self.frequencies), self.n_points)

    @cached_property
    def data(self) -> Dataset:
        """Dataset scaled into [0.1, 0.9], inside the sigmoid head's range.

        The affine rescale shifts energy into the DC bin only; every tone
        keeps its exact bin, so band-relative errors are unaffected. A
        constant target has no range to rescale and is rejected.
        """
        raw = freq_target_1d(self.frequencies, self.amplitudes, self.n_points)
        y = raw.targets[:, 0]
        if y.max() == y.min():
            raise ValueError(f"amplitudes {list(self.amplitudes)} at frequencies "
                             f"{list(self.frequencies)} give a constant target")
        scaled = 0.1 + 0.8 * (y - y.min()) / (y.max() - y.min())
        return Dataset(inputs=raw.inputs, targets=scaled[:, None])


@dataclass
class SpectralComparison:
    reports: dict  # scheme label -> FrequencyCaptureReport
    bands: list[tuple[float, float]]
    threshold: float

    def to_csv_text(self) -> str:
        lines = ["scheme,epoch,band_lo,band_hi,rel_error"]
        for label, report in self.reports.items():
            for e, errors in enumerate(report.rel_errors):
                lines.extend(f"{label},{e},{lo:g},{hi:g},{err:.17g}"
                             for (lo, hi), err in zip(self.bands, errors))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "bands": [[lo, hi] for lo, hi in self.bands],
            "capture_epochs": {
                label: {f"{lo:g}-{hi:g}": cap
                        for (lo, hi), cap in zip(self.bands, report.capture_epochs)}
                for label, report in self.reports.items()},
        }


def spectral_scheme_compare(base_config: optim.TrainConfig, schemes: Sequence[Scheme],
                            target: SpectralTarget, epochs: int, seed: int,
                            width: int, threshold: float) -> SpectralComparison:
    """Train one sigmoid net per scheme on the tone target and compare
    per-band capture epochs side by side. The target has already rejected
    bands that overlap or pass the Nyquist frequency."""
    spec = MLPSpec(layer_widths=(1, width, 1), hidden_activation="sigmoid",
                   output_kind="sigmoid")
    bands = default_bands(target.frequencies)  # checked by the target
    data = target.data
    configs = [replace(base_config, scheme=scheme, seed=seed, epochs=epochs,
                       batch_size=target.n_points) for scheme in schemes]
    # the capture reads only each epoch's predictions, so no telemetry rows
    records = optim.train(spec, data, data, configs, rows=False)
    reports = {scheme.label(): frequency_capture(record.predictions, data.targets[:, 0],
                                                 bands, threshold)
               for scheme, record in zip(schemes, records)}
    return SpectralComparison(reports=reports, bands=bands, threshold=threshold)
