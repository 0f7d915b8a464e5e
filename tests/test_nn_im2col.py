"""im2col/col2im: shapes, values, and the adjoint property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import col2im, conv_output_size, deconv_output_size, im2col


class TestOutputSizes:
    def test_same_padding_stride1(self):
        assert conv_output_size(224, 3, 1, 1) == 224

    def test_stride2(self):
        assert conv_output_size(224, 3, 2, 1) == 112

    def test_no_padding(self):
        assert conv_output_size(7, 3, 1, 0) == 5

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)

    def test_deconv_doubles(self):
        assert deconv_output_size(48, 4, 2, 1) == 96

    def test_deconv_identity(self):
        assert deconv_output_size(10, 5, 1, 2) == 10

    def test_deconv_invalid_raises(self):
        with pytest.raises(ValueError):
            deconv_output_size(1, 1, 1, 3)

    def test_conv_deconv_inverse_sizes(self):
        # deconv with mirrored params inverts conv spatial size (even input).
        for h in (8, 16, 64):
            down = conv_output_size(h, 3, 2, 1)
            up = deconv_output_size(down, 4, 2, 1)
            assert up == h


class TestIm2Col:
    """Columns are per image, channel-major: ``cols[n, (c, i, j), (y, x)]``
    is pixel ``(y*stride + i - pad, x*stride + j - pad)`` of channel ``c``,
    so patch ``p`` of image ``n`` is the column ``cols[n, :, p]``."""

    def test_shape(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=np.float32).reshape(2, 3, 5, 5)
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2, 3 * 9, 5 * 5)

    def test_center_patch_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = im2col(x, 3, 3, 1, 0)
        # first patch = rows 0-2, cols 0-2
        expected = x[0, 0, 0:3, 0:3].reshape(-1)
        np.testing.assert_array_equal(cols[0, :, 0], expected)

    def test_padding_zeros(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        cols = im2col(x, 3, 3, 1, 1)
        # corner patch includes 5 padded zeros
        assert cols[0, :, 0].sum() == 4.0

    def test_stride_skips(self):
        x = np.arange(36, dtype=np.float32).reshape(1, 1, 6, 6)
        cols = im2col(x, 2, 2, 2, 0)
        assert cols.shape == (1, 4, 9)
        np.testing.assert_array_equal(cols[0, :, 0], [0, 1, 6, 7])
        np.testing.assert_array_equal(cols[0, :, 1], [2, 3, 8, 9])


class TestCol2Im:
    def test_roundtrip_non_overlapping(self):
        # kernel == stride: col2im(im2col(x)) == x exactly
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, 2, 2, 2, 0)
        back = col2im(cols, x.shape, 2, 2, 2, 0)
        np.testing.assert_allclose(back, x, rtol=1e-6)

    def test_overlap_counts(self):
        # all-ones columns scatter to per-pixel patch-coverage counts:
        # 4x4 input, 3x3 kernel, pad 0 -> 2x2 patches
        x_shape = (1, 1, 4, 4)
        cols = np.ones((1, 9, 4), dtype=np.float32)
        img = col2im(cols, x_shape, 3, 3, 1, 0)
        # corner covered by one patch; center pixels by all four
        assert img[0, 0, 0, 0] == 1.0
        assert img[0, 0, 1, 1] == 4.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            col2im(np.ones((5, 5)), (1, 1, 4, 4), 3, 3, 1, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 2), c=st.integers(1, 3), h=st.integers(4, 9),
        k=st.integers(1, 3), stride=st.integers(1, 2),
        pad=st.integers(0, 1), seed=st.integers(0, 10**6),
    )
    def test_adjoint_property(self, n, c, h, k, stride, pad, seed):
        """col2im is the exact adjoint of im2col:
        <im2col(x), y> == <x, col2im(y)> for all x, y."""
        if h + 2 * pad < k:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, h)).astype(np.float64)
        cols = im2col(x, k, k, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, k, k, stride, pad)
        rhs = float((x * back).sum())
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))
