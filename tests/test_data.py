"""Synthetic dataset: balance, determinism, and separability."""

import numpy as np
import pytest

from helpers import nearest_centroid_accuracy
from poolbench.data import make_synthetic


class TestBalanceAndSplit:
    def test_exact_balance(self):
        ds = make_synthetic(classes=4, samples=1000, seed=1)
        np.testing.assert_array_equal(np.bincount(ds.labels), [250, 250, 250, 250])

    def test_balance_within_one_for_ragged_sizes(self):
        ds = make_synthetic(classes=4, samples=1003, seed=1)
        counts = np.bincount(ds.labels)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 1003

    def test_split_disjoint_and_80_20(self):
        ds = make_synthetic(classes=4, samples=1000, seed=2)
        assert len(ds.train_idx) == 800
        assert len(ds.test_idx) == 200
        assert not set(ds.train_idx) & set(ds.test_idx)
        np.testing.assert_array_equal(np.bincount(ds.train_labels), [200] * 4)

    def test_class_count_limits(self):
        with pytest.raises(ValueError):
            make_synthetic(classes=9)
        with pytest.raises(ValueError):
            make_synthetic(classes=0)
        assert set(make_synthetic(classes=1, samples=10).labels) == {0}

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        # a negative or nan noise would build the noise-free dataset; inf, non-finite images
        with pytest.raises(ValueError):
            make_synthetic(classes=4, samples=40, noise=noise)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = make_synthetic(seed=5)
        b = make_synthetic(seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_different_pixels_same_structure(self):
        a = make_synthetic(seed=5)
        b = make_synthetic(seed=6)
        assert (a.images != b.images).any()
        np.testing.assert_array_equal(np.bincount(a.labels), np.bincount(b.labels))


class TestSeparability:
    def test_noise_free_centroid_classifier_is_perfect(self):
        for seed in (0, 1, 2):
            ds = make_synthetic(classes=4, samples=400, seed=seed, noise=0.0)
            assert nearest_centroid_accuracy(ds) == 1.0

    def test_eight_classes_supported(self):
        ds = make_synthetic(classes=8, samples=400, seed=3, noise=0.0)
        assert nearest_centroid_accuracy(ds) == 1.0

    def test_default_noise_still_separable(self):
        ds = make_synthetic(classes=4, samples=400, seed=4, noise=0.1)
        assert nearest_centroid_accuracy(ds) >= 0.99
