"""Transposed convolution (deconvolution) via the conv forward/backward swap.

Paper SIII-C: *"We used the fact that the convolutions in the backward pass
can be used to compute the deconvolutions of the forward pass and vice-versa
in order to develop optimized deconvolution implementations."*

Concretely, with weights ``(in_channels, out_channels, kh, kw)`` read as the
matrix ``W(C_in, C_out*k*k)`` and each image ``x_n`` as ``(C_in, h*w)``:

- deconv **forward**  == conv **backward-data**: ``W^T @ x_n`` followed by
  ``col2im``;
- deconv **backward-data** == conv **forward**: ``im2col`` followed by
  ``W @ cols_n``;
- deconv **weight gradient** is ``x_n @ cols_n^T`` summed over images.

All three use the shared per-image, channel-major lowering of
:mod:`repro.nn.im2col`, so no step transposes between NCHW and NHWC.

This makes the deconv layers "perform very similarly to the corresponding
convolution layers", which is the property Fig 5b relies on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.initializers import he_normal, zeros
from repro.core.module import Module
from repro.core.parameter import Parameter
from repro.nn.im2col import col2im, deconv_output_size, im2col
from repro.nn.kernel_cache import PackedWeightCache
from repro.utils.rng import SeedLike


class Deconv2D(Module):
    """Transposed convolution over ``(N, C, H, W)`` inputs.

    The climate decoder (paper Table II: "5xDeconv") upsamples the coarse
    encoder features back to the 768x768x16 input resolution.
    """

    kind = "deconv"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, pad: Optional[int] = None,
                 name: Optional[str] = None, rng: SeedLike = None) -> None:
        super().__init__(name=name or "deconv")
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0:
            raise ValueError("channels and kernel_size must be positive")
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = (kernel_size - stride) // 2 if pad is None else pad
        if self.pad < 0:
            raise ValueError(f"pad must be non-negative, got {self.pad}")

        # Same fan-in convention as the matching conv direction.
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal((in_channels, out_channels, kernel_size, kernel_size),
                      fan_in, rng), name="weight")
        self.bias = Parameter(zeros(out_channels), name="bias")
        self._cache: Optional[Tuple] = None

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Conv backward-data applied as a forward op (the swap trick)."""
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, "
                f"got {c}")
        k, s, p = self.kernel_size, self.stride, self.pad
        oh = deconv_output_size(h, k, s, p)
        ow = deconv_output_size(w, k, s, p)
        # x as the "gradient" of the mirrored conv: (N, C_in, h*w)
        x_mat = x.reshape(n, self.in_channels, h * w)
        w_mat = self.weight.data.reshape(self.in_channels, -1)
        cols = np.matmul(w_mat.T, x_mat)          # (N, C_out*k*k, h*w)
        out = col2im(cols, (n, self.out_channels, oh, ow), k, k, s, p)
        out += self.bias.data[None, :, None, None]
        # As in Conv2D: eval-mode forwards never run backward, so don't pin
        # the input in memory.
        self._cache = (x.shape, x_mat) if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Conv forward applied as a backward op, plus the weight gradient."""
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        x_shape, x_mat = self._cache
        k, s, p = self.kernel_size, self.stride, self.pad
        g_cols = im2col(grad_out, k, k, s, p)     # (N, C_out*k*k, h*w)
        w_mat = self.weight.data.reshape(self.in_channels, -1)
        # Weight gradient couples the input activations with gathered grads.
        self.weight.grad += np.matmul(x_mat, g_cols.transpose(0, 2, 1)).sum(
            axis=0).reshape(self.weight.data.shape)
        self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        grad_in = np.matmul(w_mat, g_cols)        # (N, C_in, h*w)
        return grad_in.reshape(x_shape)

    # -- parameters / accounting -------------------------------------------
    def params(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, input_shape):
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, got {c}")
        k, s, p = self.kernel_size, self.stride, self.pad
        return (self.out_channels,
                deconv_output_size(h, k, s, p),
                deconv_output_size(w, k, s, p))

    def flops(self, batch: int, input_shape=None) -> int:
        """Forward FLOPs: identical GEMM volume to the mirrored convolution."""
        if input_shape is None:
            raise ValueError(
                f"{self.name}: deconv FLOPs depend on spatial size; pass "
                "input_shape or use repro.flops.count_net")
        _c, h, w = input_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        oh = deconv_output_size(h, k, s, p)
        ow = deconv_output_size(w, k, s, p)
        macs = batch * self.in_channels * h * w * self.out_channels * k * k
        bias_adds = batch * self.out_channels * oh * ow
        return 2 * macs + bias_adds


class GatherDeconv2D(Deconv2D):
    """Transposed convolution computed by gathering instead of scattering.

    The base :class:`Deconv2D` forward is GEMM + ``col2im``: overlapping
    patch columns are *scattered* back into the output with ``k^2`` strided
    accumulation passes — memory traffic that dominates the layer at large
    spatial sizes. This variant inverts the data flow: output pixels of each
    parity class ``(oy % s, ox % s)`` are produced by an ordinary *gather*
    convolution (``im2col`` + GEMM) of the input against the flipped weight
    taps that land on that class — the sub-pixel decomposition of a
    transposed conv. Same FLOPs, no scatter, and each parity GEMM is
    BLAS-shaped. For ``stride=1`` there is a single class and this is
    exactly "deconv = conv with the kernel flipped".

    Eval-mode forwards use the gather path (same values as the base layer to
    fp32 tolerance — the summation order differs). Training-mode forwards
    and backward fall through to the base scatter/im2col implementation, so
    gradients stay bit-identical to :class:`Deconv2D`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._wpack = PackedWeightCache()

    def _parity_taps(self):
        """Per output parity class (a, b): the flipped-tap GEMM weights.

        Taps landing on parity ``a`` satisfy ``(ki - pad) % s == a`` — an
        arithmetic progression, so the flipped sub-kernel is a pure view of
        the weights; only the final GEMM layout copies it. Cached while the
        weights are frozen (the serving case).
        """
        k, s, p = self.kernel_size, self.stride, self.pad

        def build(wd: np.ndarray):
            packed = []
            for a in range(s):
                for b in range(s):
                    kis = [ki for ki in range(k) if (ki - p) % s == a]
                    kjs = [kj for kj in range(k) if (kj - p) % s == b]
                    if not kis or not kjs:
                        packed.append((a, b, kis, kjs, None))
                        continue
                    sub = wd[:, :, kis[0]::s, kjs[0]::s][:, :, ::-1, ::-1]
                    w_mat = np.ascontiguousarray(
                        sub.transpose(1, 0, 2, 3)).reshape(
                        self.out_channels, -1)
                    packed.append((a, b, kis, kjs, w_mat))
            return packed

        return self._wpack.get(self.weight.data, build)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            return super().forward(x)
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, "
                f"got {c}")
        k, s, p = self.kernel_size, self.stride, self.pad
        oh = deconv_output_size(h, k, s, p)
        ow = deconv_output_size(w, k, s, p)
        out = np.empty((n, self.out_channels, oh, ow), dtype=x.dtype)
        # Generous halo: every tap offset is within k of the input window.
        xp = np.pad(x, ((0, 0), (0, 0), (k, k), (k, k)))
        for a, b, kis, kjs, w_mat in self._parity_taps():
            toh = (oh - 1 - a) // s + 1
            tow = (ow - 1 - b) // s + 1
            if w_mat is None:
                out[:, :, a::s, b::s] = 0.0
                continue
            # Input offsets (ki - p - a) / s are consecutive integers, so
            # the gather is a contiguous im2col window; ascending window
            # rows correspond to descending taps — the kernel flip.
            i0 = k - (kis[-1] - p - a) // s
            j0 = k - (kjs[-1] - p - b) // s
            cols = im2col(
                xp[:, :, i0:i0 + toh + len(kis) - 1,
                   j0:j0 + tow + len(kjs) - 1],
                len(kis), len(kjs), 1, 0)
            out[:, :, a::s, b::s] = np.matmul(w_mat, cols).reshape(
                n, self.out_channels, toh, tow)
        out += self.bias.data[None, :, None, None]
        self._cache = None
        return out


class TapDeconv2D(Deconv2D):
    """Transposed convolution with a transposed-layout scatter.

    This variant computes the *transposed* GEMM
    ``(k*k*C_out, C_in) x (C_in, M)`` so each kernel tap's contribution is a
    contiguous ``(C_out, N, h, w)`` block, then accumulates the ``k^2`` taps
    with wide contiguous rows. It was written against an older base layer
    whose ``col2im`` read ``C_out``-float chunks at a ``C_out*k*k`` stride.
    The base :class:`Deconv2D` now uses the per-image, channel-major
    lowering, whose GEMM already yields one contiguous block per tap and
    whose scatter moves whole rows, so this variant no longer has a layout
    advantage over it; it is kept only until a simplification pass removes
    it. Identical arithmetic (only the output layout moves), so it matches
    the base layer to fp32 tolerance; eval-only like
    :class:`GatherDeconv2D` — training-mode forwards and backward use the
    base implementation.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._wpack = PackedWeightCache()

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            return super().forward(x)
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, "
                f"got {c}")
        k, s, p = self.kernel_size, self.stride, self.pad
        f = self.out_channels
        oh = deconv_output_size(h, k, s, p)
        ow = deconv_output_size(w, k, s, p)
        x_mat = np.ascontiguousarray(
            x.transpose(1, 0, 2, 3)).reshape(c, -1)      # (C_in, N*h*w)
        w_mat = self._wpack.get(
            self.weight.data,
            lambda wd: np.ascontiguousarray(
                wd.transpose(2, 3, 1, 0)).reshape(-1, c))  # (k*k*F, C_in)
        cols = (w_mat @ x_mat).reshape(k, k, f, n, h, w)
        span_h, span_w = (h - 1) * s + k, (w - 1) * s + k
        acc = np.zeros((f, n, span_h, span_w), dtype=x.dtype)
        for ki in range(k):
            for kj in range(k):
                acc[:, :, ki:ki + s * h:s, kj:kj + s * w:s] += cols[ki, kj]
        out = acc[:, :, p:p + oh, p:p + ow].transpose(1, 0, 2, 3)
        out = np.ascontiguousarray(out)
        out += self.bias.data[None, :, None, None]
        self._cache = None
        return out
