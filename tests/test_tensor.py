"""Window geometry: output sizes, extraction, and per-window mapping."""

import numpy as np
import pytest

from poolbench import ShapeError, WindowSpec, output_size
from window_reference import WindowMapError, as_tensor, extract_window, map_windows


def brute_force_placements(h, w, spec):
    """Oracle: enumerate every full-window top-left corner by brute force."""
    rows = [r for r in range(0, h, spec.s1) if r + spec.k1 <= h]
    # strides define the lattice; only multiples of s are valid corners
    rows = [r for r in range(0, h - spec.k1 + 1) if r % spec.s1 == 0]
    cols = [c for c in range(0, w - spec.k2 + 1) if c % spec.s2 == 0]
    return len(rows), len(cols)


def brute_force_window(x, spec, i, j):
    """Oracle: naive double loop over the window entries."""
    r0 = spec.s1 * (i - 1)
    c0 = spec.s2 * (j - 1)
    out = []
    for u in range(spec.k1):
        for v in range(spec.k2):
            out.append(x[r0 + u][c0 + v])
    return np.array(out, dtype=float)


IOTA4 = np.arange(1.0, 17.0).reshape(4, 4)
POOL22 = WindowSpec(2, 2, 2, 2)


class TestAsTensor:
    def test_reshape_and_dtype(self):
        t = as_tensor([1, 2, 3, 4], shape=(2, 2))
        assert t.dtype == np.float64
        assert t.shape == (2, 2)
        assert t.flags["C_CONTIGUOUS"]

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            as_tensor([1.0, 2.0, 3.0], shape=(2, 2))

    def test_scalar_rejected(self):
        with pytest.raises(ShapeError):
            as_tensor(3.0)


class TestWindowSpec:
    def test_entries(self):
        assert WindowSpec(2, 3, 1, 1).n == 6

    @pytest.mark.parametrize("bad", [(0, 2, 2, 2), (2, 2, 0, 2), (2, -1, 1, 1)])
    def test_positive_ints_required(self, bad):
        with pytest.raises(ShapeError):
            WindowSpec(*bad)


class TestOutputSize:
    def test_six_by_six_halved(self):
        assert output_size(6, 6, POOL22) == (3, 3)

    def test_single_placement(self):
        assert output_size(2, 2, POOL22) == (1, 1)

    def test_trailing_row_dropped(self):
        # brute-force enumeration: the 7th row/column fits no full window
        assert brute_force_placements(7, 7, POOL22) == (3, 3)
        assert output_size(7, 7, POOL22) == (3, 3)

    def test_error_names_offending_axis(self):
        with pytest.raises(ShapeError, match="height"):
            output_size(1, 5, POOL22)
        with pytest.raises(ShapeError, match="width"):
            output_size(5, 1, POOL22)

    def test_matches_brute_force_on_random_specs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            k1, k2 = rng.integers(1, 5, 2)
            s1, s2 = rng.integers(1, 4, 2)
            spec = WindowSpec(int(k1), int(k2), int(s1), int(s2))
            h = int(rng.integers(k1, k1 + 10))
            w = int(rng.integers(k2, k2 + 10))
            assert output_size(h, w, spec) == brute_force_placements(h, w, spec)


class TestExtractWindow:
    def test_whole_tensor(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            extract_window(x, POOL22, 1, 1), [1.0, 2.0, 3.0, 4.0]
        )

    def test_bottom_right_of_iota(self):
        np.testing.assert_array_equal(
            extract_window(IOTA4, POOL22, 2, 2),
            brute_force_window(IOTA4, POOL22, 2, 2),
        )
        np.testing.assert_array_equal(
            extract_window(IOTA4, POOL22, 2, 2), [11.0, 12.0, 15.0, 16.0]
        )

    def test_overlapping_stride_one(self):
        x = np.arange(9.0).reshape(3, 3)
        spec = WindowSpec(2, 2, 1, 1)
        np.testing.assert_array_equal(
            extract_window(x, spec, 2, 2), x[1:3, 1:3].reshape(-1)
        )

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            extract_window(IOTA4, POOL22, 3, 1)
        with pytest.raises(IndexError):
            extract_window(IOTA4, POOL22, 0, 1)

    def test_pure_read(self):
        x = IOTA4.copy()
        win = extract_window(x, POOL22, 1, 1)
        win[0] = -99.0
        np.testing.assert_array_equal(x, IOTA4)

    def test_agrees_with_naive_reference_on_random_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            k1, k2 = (int(v) for v in rng.integers(1, 4, 2))
            s1, s2 = (int(v) for v in rng.integers(1, 4, 2))
            spec = WindowSpec(k1, k2, s1, s2)
            h = int(rng.integers(k1, k1 + 8))
            w = int(rng.integers(k2, k2 + 8))
            x = rng.normal(size=(h, w))
            h_out, w_out = output_size(h, w, spec)
            i = int(rng.integers(1, h_out + 1))
            j = int(rng.integers(1, w_out + 1))
            np.testing.assert_array_equal(
                extract_window(x, spec, i, j), brute_force_window(x, spec, i, j)
            )


class TestMapWindows:
    def test_max_on_iota(self):
        out = map_windows(IOTA4[None], POOL22, np.max)
        np.testing.assert_array_equal(out, [[[6.0, 8.0], [14.0, 16.0]]])

    def test_unit_window_identity(self):
        x = np.random.default_rng(3).normal(size=(2, 3, 3))
        out = map_windows(x, WindowSpec(1, 1, 1, 1), lambda w: w[0])
        np.testing.assert_array_equal(out, x)

    def test_mean_of_constant(self):
        x = np.full((2, 4, 4), 0.75)
        out = map_windows(x, POOL22, np.mean)
        np.testing.assert_array_equal(out, np.full((2, 2, 2), 0.75))

    def test_order_independence(self):
        # evaluating placements in a shuffled order must give the same output
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6, 6))
        expected = map_windows(x, POOL22, np.max)
        shuffled = np.empty_like(expected)
        placements = [(c, i, j) for c in range(3) for i in range(1, 4) for j in range(1, 4)]
        rng.shuffle(placements)
        for c, i, j in placements:
            shuffled[c, i - 1, j - 1] = extract_window(x[c], POOL22, i, j).max()
        np.testing.assert_array_equal(shuffled, expected)

    def test_nonoverlapping_windows_partition_input(self):
        # with s = k and k | H, W every element lands in exactly one window
        spec = WindowSpec(2, 2, 2, 2)
        counts = np.zeros((1, 6, 6))
        h_out, w_out = output_size(6, 6, spec)
        for i in range(1, h_out + 1):
            for j in range(1, w_out + 1):
                r0, c0 = spec.s1 * (i - 1), spec.s2 * (j - 1)
                counts[0, r0 : r0 + 2, c0 : c0 + 2] += 1.0
        np.testing.assert_array_equal(counts, np.ones((1, 6, 6)))

    def test_errors_annotated_with_placement(self):
        def fussy(window):
            if window.max() > 10.0:
                raise ValueError("too large")
            return window.max()

        with pytest.raises(WindowMapError, match=r"channel 0, placement \(2, 1\)") as exc:
            map_windows(IOTA4[None], POOL22, fussy)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_requires_channel_axis(self):
        with pytest.raises(ShapeError):
            map_windows(IOTA4, POOL22, np.max)
