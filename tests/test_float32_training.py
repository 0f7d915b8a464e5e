"""A training step stays float32 end to end.

One float64 intermediate anywhere in the backward (an integer tie count, a
Python-float scale that NumPy promotes, a float64 constant) turns every
GEMM below it into a dgemm at twice the bytes. These tests run one
training step of the HEP net and of the small ClimateNet on float32 input
and check the dtype of every layer's forward output, every input gradient
a layer returns and every parameter gradient.
"""

import numpy as np

from repro.models import SemiSupervisedLoss, build_climate_net, build_hep_net
from repro.models.bbox import encode_targets
from repro.nn.losses import SoftmaxCrossEntropyLoss


def _record_dtypes(layers):
    """Wrap each layer's forward/backward on the instance; returns the list
    the wrappers append ``(layer name, pass, dtype)`` to."""
    seen = []

    def wrap(layer, pass_name):
        inner = getattr(layer, pass_name)

        def recorded(arr):
            out = inner(arr)
            seen.append((layer.name, pass_name, out.dtype))
            return out
        setattr(layer, pass_name, recorded)

    for layer in layers:
        wrap(layer, "forward")
        wrap(layer, "backward")
    return seen


def _assert_float32(seen, layers, params):
    assert len(seen) == 2 * len(layers)
    wrong = [entry for entry in seen if entry[2] != np.float32]
    assert not wrong, f"non-float32 layer outputs/gradients: {wrong}"
    for p in params:
        assert p.grad.dtype == np.float32, p.name
        assert np.abs(p.grad).sum() > 0, f"{p.name} got no gradient"


def test_hep_training_step_is_float32():
    net = build_hep_net(filters=8, rng=0)
    layers = list(net)
    seen = _record_dtypes(layers)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    y = np.array([0, 1, 1, 0])
    net.train()
    net.zero_grad()
    _, grad = SoftmaxCrossEntropyLoss()(net.forward(x), y)
    gx = net.backward(grad)
    _assert_float32(seen, layers, net.params())
    assert gx.dtype == np.float32


def test_climate_training_step_is_float32(climate_ds):
    net = build_climate_net(in_channels=8, n_classes=3, preset="small",
                            rng=0)
    layers = (list(net.encoder) + list(net.decoder)
              + [net.conf_head, net.cls_head, net.box_head])
    seen = _record_dtypes(layers)
    x = climate_ds.images[:4]
    assert x.dtype == np.float32
    targets = encode_targets(climate_ds.boxes[:4], net.grid_shape((64, 64)),
                             net.stride, 3)
    net.train()
    net.zero_grad()
    _, _, grads = SemiSupervisedLoss()(net.forward(x), targets, x)
    gx = net.backward(grads)
    _assert_float32(seen, layers, net.params())
    assert gx.dtype == np.float32
