import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lossmix import netcore, spectral, verify
from lossmix.optim import TrainConfig
from lossmix.composite import Scheme
from lossmix.spectral import (SigmoidUnit, SpectralTarget, check_bands,
                              default_bands, frequency_capture, residual_spectrum,
                              sigmoid_ft)


class TestSigmoidFT:
    def test_magnitude_and_phase_at_unit(self):
        got = sigmoid_ft(SigmoidUnit(a=1.0, b=0.0), 1.0)
        assert abs(got) == pytest.approx(0.27202905498213314, abs=1e-9)
        assert np.angle(got) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_shift_changes_phase_only(self):
        for b in (-2.0, 0.5, 3.0):
            base = abs(sigmoid_ft(SigmoidUnit(a=1.0, b=0.0), 1.3))
            shifted = abs(sigmoid_ft(SigmoidUnit(a=1.0, b=b), 1.3))
            assert shifted == pytest.approx(base, abs=1e-15)

    def test_omega_zero_excluded(self):
        with pytest.raises(ValueError, match="distributional"):
            sigmoid_ft(SigmoidUnit(a=1.0), 0.0)

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            SigmoidUnit(a=0.0)

    def test_strictly_decreasing_magnitude(self):
        unit = SigmoidUnit(a=2.0, b=0.0)
        mags = [abs(sigmoid_ft(unit, w)) for w in np.linspace(0.1, 30, 100)]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_large_omega_no_overflow(self):
        got = sigmoid_ft(SigmoidUnit(a=0.01, b=0.0), 50.0)
        assert got == 0.0 or np.isfinite(abs(got))


class TestResidualSpectrum:
    def test_perfect_fit_zero_spectrum(self):
        target = np.sin(np.linspace(0, 2 * np.pi, 64, endpoint=False))
        spectrum = residual_spectrum(target, target)
        assert np.all(spectrum == 0.0)

    def test_pure_tone_concentrates(self):
        n = 256
        k = 7
        x = np.arange(n)
        residual = np.sin(2 * np.pi * k * x / n)
        energy = np.abs(residual_spectrum(residual, np.zeros(n))) ** 2
        # bin j has the integer frequency min(j, n - j)
        freqs = np.minimum(np.arange(n), n - np.arange(n))
        assert energy[freqs == k].sum() / energy.sum() > 0.999

    # float32 values, so that no square underflows below float64's normal range
    @given(arrays(np.float64, st.integers(1, 256),
                  elements=st.floats(-10.0, 10.0, width=32)))
    def test_parseval(self, residual):
        assert verify.parseval_identity(residual)[0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            residual_spectrum(np.zeros(8), np.zeros(9))


class TestFrequencyCapture:
    def grid(self, n=256):
        return np.linspace(-np.pi, np.pi, n, endpoint=False)

    def test_exact_fit_captured_at_zero(self):
        x = self.grid()
        target = np.sin(x) + np.sin(5 * x)
        report = frequency_capture([target], target, default_bands([1, 5]), 0.2)
        assert report.capture_epochs == [0, 0]

    def test_partial_fit_band_errors(self):
        x = self.grid()
        target = np.sin(x) + np.sin(5 * x)
        report = frequency_capture([np.sin(x)], target, default_bands([1, 5]), 0.2)
        assert report.rel_errors[0, 0] == pytest.approx(0.0, abs=1e-20)
        assert report.rel_errors[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert report.capture_epochs == [0, None]

    def test_zero_threshold_never_captures(self):
        x = self.grid()
        target = np.sin(x)
        report = frequency_capture([target], target, default_bands([1]), 0.0)
        assert report.capture_epochs == [None]

    def test_zero_target_energy_flagged(self):
        x = self.grid()
        target = np.sin(x)
        report = frequency_capture([target], target, [(0.0, 2.0), (6.0, 8.0)], 0.2)
        # a band with no target energy has no relative error and no capture
        assert not np.isnan(report.rel_errors[:, 0]).any()
        assert np.isnan(report.rel_errors[:, 1]).all()
        assert report.capture_epochs[1] is None

    @pytest.mark.parametrize("n, tone, leak, band", [
        (256, 5, 4, (4.0, 6.0)),
        (256, 8, 7, (7.0, 9.0)),
        (100, 1, 2, (0.0, 2.0)),
    ], ids=["n256-tone5", "n256-tone8", "n100-tone1"])
    def test_band_sums_only_the_bins_inside_it(self, n, tone, leak, band):
        # bin k has the integer frequency min(k, n - k), so residual energy
        # on the neighbouring tone's bin stays out of the open band
        x = self.grid(n)
        target = np.sin(tone * x)
        outputs = target + 0.1 * np.sin(leak * x)
        report = frequency_capture([outputs], target, [band], 0.2)
        assert report.rel_errors[0, 0] == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("bands, n", [
        ([(9.0, 11.0)], 22),
        ([(126.0, 128.0)], 256),
    ], ids=["n22", "n256"])
    def test_bands_up_to_nyquist_accepted(self, bands, n):
        check_bands(bands, n)

    def test_blocked_scan_gives_each_epochs_own_bits(self):
        # 600 epochs at n = 256 span many blocks of the scan, the last one
        # short; the wide last band sums 178 bins, pairwise in numpy
        n = 256
        x = self.grid(n)
        tones = [1, 5, 20, 50]
        target = sum(np.sin(k * x) for k in tones)
        bands = default_bands(tones[:3]) + [(30.0, 120.0)]
        rng = np.random.default_rng(8)
        outputs = [target[:, None] + rng.uniform(0.0, 2.0) * rng.standard_normal((n, 1))
                   for _ in range(600)]
        report = frequency_capture(outputs, target, bands, 0.2)
        freqs = np.minimum(np.arange(n), n - np.arange(n))
        masks = [(freqs > lo) & (freqs < hi) for lo, hi in bands]
        target_f = np.fft.fft(target)
        want = np.array([[float((np.abs(np.fft.fft(out[:, 0] - target)[m]) ** 2).sum())
                          / float((np.abs(target_f[m]) ** 2).sum()) for m in masks]
                         for out in outputs])
        assert report.rel_errors.tobytes() == want.tobytes()

    def test_band_validation(self):
        x = self.grid()
        with pytest.raises(ValueError, match="Nyquist"):
            frequency_capture([np.sin(x)], np.sin(x), [(120.0, 200.0)], 0.2)
        with pytest.raises(ValueError, match="overlap"):
            frequency_capture([np.sin(x)], np.sin(x), [(0.0, 3.0), (2.0, 5.0)], 0.2)


class TestSchemeCompare:
    def base_config(self, epochs):
        return TrainConfig(scheme=Scheme.multi(), optimizer="adam",
                           learning_rate=0.02, epochs=epochs, batch_size=64,
                           seed=1)

    def test_single_tone_single_scheme(self):
        target = SpectralTarget(frequencies=(1.0,), amplitudes=(1.0,),
                                n_points=64)
        comparison = spectral.spectral_scheme_compare(
            self.base_config(30), [Scheme.single(0)], target, epochs=30,
            seed=1, width=16, threshold=0.2)
        report = comparison.reports["single[0]"]
        assert comparison.bands == [(0.0, 2.0)]
        assert report.rel_errors.shape == (30, 1)

    def test_three_schemes_deterministic(self):
        target = SpectralTarget(frequencies=(1.0, 3.0), amplitudes=(1.0, 1.0),
                                n_points=64)
        schemes = [Scheme.single(0), Scheme.multi(), Scheme.nonlinear(2.0)]
        a = spectral.spectral_scheme_compare(self.base_config(10), schemes, target,
                                             epochs=10, seed=2, width=8, threshold=0.2)
        b = spectral.spectral_scheme_compare(self.base_config(10), schemes, target,
                                             epochs=10, seed=2, width=8, threshold=0.2)
        assert a.to_csv_text() == b.to_csv_text()
        assert set(a.reports) == {"single[0]", "multi", "nonlinear(p=2)"}

    def test_one_forward_per_full_batch_epoch(self, monkeypatch):
        # each full-batch step's forward also serves the previous epoch's
        # capture, which runs again only the layers from the first with
        # fan-in > 1 on (layer 1, the hidden-to-output product), as a net of
        # their own; the last epoch ends with one full capture forward. No
        # telemetry row is built, so the only backward is the step's, one
        # call for every term, and at width 8 the three schemes train as
        # one stack
        nets, backwards = [], []
        cached, backward = netcore._forward_cache, netcore._backward_from_cache

        def forward(spec, params, inputs):
            nets.append(spec.layer_widths)
            return cached(spec, params, inputs)

        def counted_backward(*args):
            backwards.append((len(args[2]), np.shape(args[2][0])[0]))
            return backward(*args)

        monkeypatch.setattr(netcore, "_forward_cache", forward)
        monkeypatch.setattr(netcore, "_backward_from_cache", counted_backward)
        target = SpectralTarget(frequencies=(1.0, 3.0), amplitudes=(1.0, 1.0),
                                n_points=32)
        schemes = [Scheme.single(0), Scheme.multi(), Scheme.nonlinear(2.0)]
        config = self.base_config(5)
        spectral.spectral_scheme_compare(config, schemes, target,
                                         epochs=5, seed=4, width=8, threshold=0.2)
        net = (1, 8, 1)
        assert nets == [net] + [net, net[1:]] * 4 + [net]
        assert backwards == [(len(config.terms), 3)] * 5

    def test_capture_bytes_are_pinned(self):
        # the digest of the capture CSV that full telemetry rows gave; the
        # capture reads only predictions, so skipping the rows moves no byte
        base = TrainConfig(scheme=Scheme.multi(), optimizer="adam",
                           learning_rate=0.02, epochs=40, batch_size=64, seed=1,
                           init_scale=3.0)
        schemes = [Scheme.single(0), Scheme.multi(), Scheme.nonlinear(2.0)]
        target = SpectralTarget(frequencies=(1.0, 3.0, 5.0),
                                amplitudes=(1.0, 1.0, 1.0), n_points=64)
        comparison = spectral.spectral_scheme_compare(
            base, schemes, target, epochs=40, seed=1, width=16, threshold=0.2)
        digest = hashlib.sha256(comparison.to_csv_text().encode()).hexdigest()
        assert digest == ("74f1a99e6cdbc21aae05666bba1eccc18cc9c38e"
                          "919bc89c119dde030d5ebdec")
        assert [r.capture_epochs[0] for r in comparison.reports.values()] == [31, 30, 30]

    def test_csv_and_json_exports(self):
        target = SpectralTarget(frequencies=(1.0,), amplitudes=(1.0,),
                                n_points=64)
        comparison = spectral.spectral_scheme_compare(
            self.base_config(5), [Scheme.multi()], target, epochs=5, seed=3,
            width=8, threshold=0.2)
        assert comparison.to_csv_text().splitlines()[0] == \
            "scheme,epoch,band_lo,band_hi,rel_error"
        doc = comparison.to_json_dict()
        assert "capture_epochs" in doc and "bands" in doc
