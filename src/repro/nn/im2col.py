"""im2col / col2im: the lowering that turns convolution into GEMM.

MKL's DNN primitives (and most CPU conv implementations of the paper's era)
lower convolution onto a matrix multiply; we do the same so that NumPy's BLAS
plays the role of MKL. ``im2col`` is built on a zero-copy strided view
(copying only once at the final reshape), and ``col2im`` scatters back with a
small loop over the kernel footprint — both idioms straight from the
"advanced NumPy" optimization playbook.

Layout convention: images are ``(N, C, H, W)``; columns are Caffe's
per-image, channel-major ``(N, C * kh * kw, out_h * out_w)``. Why this
layout and not the patch-row ``(N * out_h * out_w, C * kh * kw)`` one:

- a conv forward is ``W(F, C*k*k) @ cols`` batched over ``N``, whose
  ``(N, F, out_h * out_w)`` result already *is* the NCHW output;
- the backward reads ``grad_out`` as ``(N, F, out_h * out_w)`` with a
  reshape, not a transpose copy; the weight gradient is the batched
  ``g @ cols^T`` summed over ``N`` and the data gradient is ``W^T @ g``;
- the gather and the scatter move whole ``out_w``-long rows per kernel tap,
  so both stream through memory instead of striding by ``C * k * k``.

Every conv-like layer (``Conv2D``, ``FFTConv2D``, ``WinogradConv2D``'s
backward, ``Deconv2D`` and its variants) uses these two functions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def conv_output_size(size: int, k: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * pad - k) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size for input={size}, k={k}, "
            f"stride={stride}, pad={pad}")
    return out


def deconv_output_size(size: int, k: int, stride: int, pad: int) -> int:
    """Spatial output size of a transposed convolution along one axis."""
    out = (size - 1) * stride - 2 * pad + k
    if out <= 0:
        raise ValueError(
            f"non-positive deconv output size for input={size}, k={k}, "
            f"stride={stride}, pad={pad}")
    return out


def im2col(x: np.ndarray, kh: int, kw: int, stride: int,
           pad: int) -> np.ndarray:
    """Lower ``(N, C, H, W)`` into ``(N, C*kh*kw, oh*ow)`` patch columns."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sn, sc, sh, sw = x.strides
    # View of shape (N, C, kh, kw, oh, ow): no data copied until reshape.
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return view.reshape(n, c * kh * kw, oh * ow)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int,
           kw: int, stride: int, pad: int) -> np.ndarray:
    """Inverse scatter of :func:`im2col`: accumulate patch columns back to an
    image.

    Overlapping patches sum, which is exactly the adjoint of the im2col
    gather — this is the conv backward-data operation, and (via the paper's
    SIII-C trick) also the deconvolution forward operation.
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    expected = (n, c * kh * kw, oh * ow)
    if cols.shape != expected:
        raise ValueError(f"cols shape {cols.shape} != expected {expected}")
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    # Loop only over the (small) kernel footprint; each iteration is a fully
    # vectorized strided add over all patch positions.
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            out[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, :, i, j]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out
