"""Differential tests of the conv, deconv and max-pool fast paths.

Each fast path is compared against an independent reference, with the
tolerance it is held to stated next to the comparison:

- ``Conv2D`` and ``Deconv2D`` (im2col/col2im lowering, float32 GEMMs)
  against a direct per-tap einsum evaluation in float64, for kernel sizes
  1-4, strides 1-2 and padding 0-2: forward, input gradient (dX), weight
  gradient (dW) and bias gradient;
- ``MaxPool2D``'s strided-maximum path against the reshape/mask
  implementation it replaced, kept here as the oracle: forward bit for bit,
  backward equal to the oracle's float64 gradient rounded to float32.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn.conv import Conv2D
from repro.nn.deconv import Deconv2D
from repro.nn.im2col import conv_output_size, deconv_output_size
from repro.nn.pooling import MaxPool2D

# Inputs, weights and output gradients are O(1) normals and every reduction
# has at most a few hundred terms, so float32 GEMM results sit within a few
# hundred float32 ulps of the float64 reference.
#: forward and dX: each output sums at most C*k*k = 48 products
FWD_RTOL, FWD_ATOL = 1e-5, 1e-5
DX_RTOL, DX_ATOL = 1e-5, 1e-5
#: dW and bias: each sums up to N*oh*ow (~200) products
DW_RTOL, DW_ATOL = 1e-5, 1e-4

_geometry = dict(
    n=st.integers(1, 2), c=st.integers(1, 3), f=st.integers(1, 3),
    h=st.integers(1, 9), w=st.integers(1, 9), k=st.integers(1, 4),
    stride=st.integers(1, 2), pad=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)


def _normal(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


def _conv_reference(x, weight, bias, g, stride, pad):
    """Direct cross-correlation, one einsum per kernel tap, in float64.

    Returns ``(out, dx, dw, db)`` for output gradient ``g``."""
    x, weight, g = (a.astype(np.float64) for a in (x, weight, g))
    n, c, h, w = x.shape
    f, _, k, _ = weight.shape
    oh = conv_output_size(h, k, stride, pad)
    ow = conv_output_size(w, k, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.broadcast_to(bias.astype(np.float64)[None, :, None, None],
                          (n, f, oh, ow)).copy()
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(weight)
    for i in range(k):
        for j in range(k):
            win = (slice(None), slice(None),
                   slice(i, i + stride * oh, stride),
                   slice(j, j + stride * ow, stride))
            out += np.einsum("nchw,fc->nfhw", xp[win], weight[:, :, i, j])
            dxp[win] += np.einsum("nfhw,fc->nchw", g, weight[:, :, i, j])
            dw[:, :, i, j] = np.einsum("nfhw,nchw->fc", g, xp[win])
    dx = dxp[:, :, pad:pad + h, pad:pad + w]
    return out, dx, dw, g.sum(axis=(0, 2, 3))


def _deconv_reference(x, weight, bias, g, stride, pad):
    """Direct transposed convolution: each input pixel scatters its
    ``(C_out, k, k)`` footprint, one einsum per kernel tap, in float64.

    Returns ``(out, dx, dw, db)`` for output gradient ``g``."""
    x, weight, g = (a.astype(np.float64) for a in (x, weight, g))
    n, _c, h, w = x.shape
    _, f, k, _ = weight.shape
    oh = deconv_output_size(h, k, stride, pad)
    ow = deconv_output_size(w, k, stride, pad)
    # Uncropped output canvas: oh + 2*pad rows, the last tap lands on the
    # last row.
    canvas = np.zeros((n, f, oh + 2 * pad, ow + 2 * pad))
    gp = np.pad(g, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dx = np.zeros_like(x)
    dw = np.zeros_like(weight)
    for i in range(k):
        for j in range(k):
            win = (slice(None), slice(None),
                   slice(i, i + stride * (h - 1) + 1, stride),
                   slice(j, j + stride * (w - 1) + 1, stride))
            canvas[win] += np.einsum("nchw,cf->nfhw", x, weight[:, :, i, j])
            dx += np.einsum("nfhw,cf->nchw", gp[win], weight[:, :, i, j])
            dw[:, :, i, j] = np.einsum("nchw,nfhw->cf", x, gp[win])
    out = canvas[:, :, pad:pad + oh, pad:pad + ow] \
        + bias.astype(np.float64)[None, :, None, None]
    return out, dx, dw, g.sum(axis=(0, 2, 3))


def _check_layer(layer, x, reference, rng):
    layer.bias.data[...] = _normal(rng, layer.bias.data.shape)
    layer.train()
    layer.zero_grad()
    out = layer.forward(x)
    g = _normal(rng, out.shape)
    dx = layer.backward(g)
    ref_out, ref_dx, ref_dw, ref_db = reference(
        x, layer.weight.data, layer.bias.data, g, layer.stride, layer.pad)
    assert out.dtype == dx.dtype == layer.weight.grad.dtype == np.float32
    np.testing.assert_allclose(out, ref_out, rtol=FWD_RTOL, atol=FWD_ATOL)
    np.testing.assert_allclose(dx, ref_dx, rtol=DX_RTOL, atol=DX_ATOL)
    np.testing.assert_allclose(layer.weight.grad, ref_dw, rtol=DW_RTOL,
                               atol=DW_ATOL)
    np.testing.assert_allclose(layer.bias.grad, ref_db, rtol=DW_RTOL,
                               atol=DW_ATOL)


@settings(max_examples=80, deadline=None)
@given(**_geometry)
def test_conv_matches_direct_reference(n, c, f, h, w, k, stride, pad, seed):
    assume(h + 2 * pad >= k and w + 2 * pad >= k)
    conv = Conv2D(c, f, k, stride=stride, pad=pad, rng=seed)
    rng = np.random.default_rng(seed)
    _check_layer(conv, _normal(rng, (n, c, h, w)), _conv_reference, rng)


@settings(max_examples=80, deadline=None)
@given(**_geometry)
def test_deconv_matches_direct_reference(n, c, f, h, w, k, stride, pad,
                                         seed):
    assume((h - 1) * stride - 2 * pad + k > 0
           and (w - 1) * stride - 2 * pad + k > 0)
    deconv = Deconv2D(c, f, k, stride=stride, pad=pad, rng=seed)
    rng = np.random.default_rng(seed)
    _check_layer(deconv, _normal(rng, (n, c, h, w)), _deconv_reference, rng)


# -- max pooling -------------------------------------------------------------

def _pool_oracle(x, grad_out, k):
    """The reshape/mask max-pool this layer used before its strided-maximum
    path: ``(out, grad_in)``. Ties split the gradient by multiplicity; the
    integer tie count makes ``grad_in`` float64."""
    n, c, h, w = x.shape
    blocks = x.reshape(n, c, h // k, k, w // k, k)
    out = blocks.max(axis=(3, 5))
    mask = blocks == out[:, :, :, None, :, None]
    counts = mask.sum(axis=(3, 5), keepdims=True)
    g = grad_out[:, :, :, None, :, None] / counts
    return out, (mask * g).reshape(n, c, h, w)


@settings(max_examples=80, deadline=None)
@given(k=st.sampled_from([2, 3]), n=st.integers(1, 2), c=st.integers(1, 3),
       oh=st.integers(1, 5), ow=st.integers(1, 5),
       levels=st.integers(1, 4), relu=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_maxpool_matches_reshape_oracle(k, n, c, oh, ow, levels, relu, seed):
    """Inputs take only ``2*levels + 1`` distinct values, so most windows
    hold ties; with ``relu`` the negatives become zeros, as after a ReLU."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-levels, levels + 1,
                     size=(n, c, k * oh, k * ow)).astype(np.float32)
    if relu:
        x = np.maximum(x, 0, dtype=x.dtype)
    grad_out = _normal(rng, (n, c, oh, ow))
    pool = MaxPool2D(k)
    out = pool.forward(x)
    grad_in = pool.backward(grad_out)
    ref_out, ref_grad = _pool_oracle(x, grad_out, k)
    assert out.dtype == np.float32 and np.array_equal(out, ref_out)
    # float32 division by a small integer count is correctly rounded, and
    # so is float64 division rounded to float32 (53 >= 2*24 + 2 bits), so
    # the two gradients agree exactly.
    assert grad_in.dtype == np.float32
    assert np.array_equal(grad_in, ref_grad.astype(np.float32))
