import numpy as np
import pytest

from lossmix import data
from lossmix.data import (Dataset, freq_target_1d, gaussian_blobs, load_cifar10_bin,
                          randomize_labels, train_val_split, two_moons,
                          write_cifar10_bin)


def linear_probe_accuracy(ds: Dataset) -> float:
    """Least-squares linear classifier, the sanity probe for separability."""
    X = np.hstack([ds.inputs, np.ones((ds.n, 1))])
    y = np.where(ds.targets[:, 1] > 0.5, 1.0, -1.0)
    w, *_ = np.linalg.lstsq(X, y, rcond=None)
    return float(np.mean(np.sign(X @ w) == y))


class TestGenerators:
    def test_two_moons_not_linearly_separable(self):
        ds = two_moons(200, 0.0, seed=0)
        assert linear_probe_accuracy(ds) < 0.95

    def test_two_moons_deterministic(self):
        a = two_moons(150, 0.1, seed=3)
        b = two_moons(150, 0.1, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_blobs_shapes(self):
        ds = gaussian_blobs(3, 40, 5, 0.4, seed=1)
        assert ds.inputs.shape == (120, 5)
        assert ds.targets.shape == (120, 3)
        assert ds.is_classification

    def test_freq_target_single_tone(self):
        ds = freq_target_1d([1], [1.0], 256)
        assert ds.inputs.shape == (256, 1)
        assert abs(ds.targets).max() == pytest.approx(1.0, abs=1e-6)
        assert not ds.is_classification

    def test_freq_target_on_exact_bins(self):
        ds = freq_target_1d([3], [2.0], 128)
        spectrum = np.fft.fft(ds.targets[:, 0])
        energy = np.abs(spectrum) ** 2
        assert (energy[3] + energy[-3]) / energy.sum() > 0.999999

    def test_one_hot_validation(self):
        with pytest.raises(ValueError, match="one-hot"):
            Dataset(inputs=np.zeros((2, 2)), targets=np.array([[0.5, 0.4]] * 2),
                    k_classes=2)

    def test_nonfinite_input_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(inputs=np.array([[0.0], [np.nan]]), targets=np.zeros((2, 1)))

    def test_nonfinite_target_rejected_at_construction(self):
        # bad data is a config error (exit 1), not divergence 30 epochs in
        targets = np.linspace(-1.0, 1.0, 20)[:, None]
        targets[7, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite targets"):
            Dataset(inputs=np.zeros((20, 2)), targets=targets, k_classes=0)

    def test_as_batch_is_built_once(self):
        ds = two_moons(20, 0.1, seed=2)
        assert ds.as_batch() is ds.as_batch()
        assert ds.as_batch().inputs is ds.inputs


class TestRandomizeLabels:
    def test_zero_level_identity(self):
        ds = two_moons(100, 0.1, seed=4)
        out = randomize_labels(ds, 0.0, seed=5)
        assert np.array_equal(out.targets, ds.targets)

    def test_paper_levels_accepted(self):
        ds = gaussian_blobs(10, 30, 3, 0.5, seed=6)
        for level in (0.2, 0.8):
            out = randomize_labels(ds, level, seed=7)
            changed = int((out.targets != ds.targets).any(axis=1).sum())
            # round(r n) rows are redrawn; a redraw may keep its class
            assert 0 < changed <= round(level * ds.n)

    def test_labels_stay_one_hot(self):
        ds = gaussian_blobs(4, 50, 2, 0.5, seed=10)
        out = randomize_labels(ds, 0.5, seed=11)
        np.testing.assert_allclose(out.targets.sum(axis=1), 1.0, atol=0)

    def test_regression_rejected(self):
        ds = freq_target_1d([1], [1.0], 64)
        with pytest.raises(ValueError, match="classification"):
            randomize_labels(ds, 0.2, seed=0)

    def test_level_validation(self):
        ds = gaussian_blobs(3, 10, 2, 0.5, seed=12)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            randomize_labels(ds, 1.2, seed=0)


class TestCifarLoader:
    def make_file(self, tmp_path, n=50, seed=0):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 10, n)
        pixels = rng.integers(0, 256, (n, data.CIFAR_PIXELS))
        path = tmp_path / "batch.bin"
        write_cifar10_bin(path, labels, pixels)
        return path, labels, pixels

    def test_roundtrip_bit_exact(self, tmp_path):
        path, labels, pixels = self.make_file(tmp_path)
        ds = load_cifar10_bin(path, 50)
        assert ds.inputs.shape == (50, 3072)
        assert ds.k_classes == 10
        assert np.array_equal(np.argmax(ds.targets, 1), labels)
        assert np.array_equal(ds.inputs, pixels / 255.0)

    def test_partial_read(self, tmp_path):
        path, labels, _ = self.make_file(tmp_path, n=30)
        ds = load_cifar10_bin(path, 10)
        assert ds.n == 10
        assert np.array_equal(np.argmax(ds.targets, 1), labels[:10])

    def test_truncated_file(self, tmp_path):
        path, _, _ = self.make_file(tmp_path, n=4)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(ValueError, match=f"offset {3 * 3073}"):
            load_cifar10_bin(path, 3)

    def test_bad_label_offset(self, tmp_path):
        path, _, _ = self.make_file(tmp_path, n=4)
        raw = bytearray(path.read_bytes())
        raw[2 * 3073] = 11
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"offset {2 * 3073}"):
            load_cifar10_bin(path, 4)

    def test_zero_request(self, tmp_path):
        path, _, _ = self.make_file(tmp_path, n=4)
        with pytest.raises(ValueError, match="empty request"):
            load_cifar10_bin(path, 0)

    def test_too_many_records(self, tmp_path):
        path, _, _ = self.make_file(tmp_path, n=4)
        with pytest.raises(ValueError, match="holds 4"):
            load_cifar10_bin(path, 5)


class TestSplit:
    def test_sizes(self):
        ds = two_moons(100, 0.1, seed=12)
        train, val = train_val_split(ds, 0.8, seed=13)
        assert (train.n, val.n) == (80, 20)

    def test_disjoint_exhaustive(self):
        ds = gaussian_blobs(2, 50, 3, 0.5, seed=14)
        train, val = train_val_split(ds, 0.7, seed=15)
        merged = np.vstack([train.inputs, val.inputs])
        assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.inputs, axis=0))

    def test_deterministic(self):
        ds = two_moons(60, 0.1, seed=16)
        a, _ = train_val_split(ds, 0.5, seed=17)
        b, _ = train_val_split(ds, 0.5, seed=17)
        assert np.array_equal(a.inputs, b.inputs)

    def test_empty_side_rejected(self):
        ds = two_moons(4, 0.1, seed=18)
        with pytest.raises(ValueError, match="empty"):
            train_val_split(ds, 0.01, seed=19)

