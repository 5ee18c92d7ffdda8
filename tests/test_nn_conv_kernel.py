"""Channel-major conv kernel: one im2col layout for graph, inference and
training paths.

* ``F.im2col`` returns ``(N, C*kh*kw, oh*ow)`` columns matching a naive
  patch gather, and ``F.col2im`` is its adjoint;
* compiled inference plans match the autodiff graph at ``RTOL`` across
  stride, padding, bias, batch size, ``Conv1d`` and every fused
  activation;
* a row of an ``N``-row plan forward is bitwise the 1-row forward;
* training plans match the graph at ``PARITY`` on the MiniWeather "m"
  CNN (k5/k3/k1 + CropPad2d);
* inference conv steps keep no shared scratch in ``_bufs``.
"""

import numpy as np
import pytest

import repro.nn.functional as F
from repro.nn import (Conv1d, Conv2d, LeakyReLU, ReLU, Sequential, Sigmoid,
                      Tanh, Tensor, compile_inference, compile_training,
                      mse_loss, no_grad)
from repro.search.builders import build_miniweather_cnn

pytestmark = pytest.mark.compile

RTOL = 1e-12
PARITY = 1e-10

ACTIVATIONS = {"none": None, "relu": ReLU, "tanh": Tanh,
               "sigmoid": Sigmoid, "leaky": lambda: LeakyReLU(0.05)}


def graph_forward(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).numpy()


def with_act(layer, act):
    make = ACTIVATIONS[act]
    return Sequential(layer) if make is None else Sequential(layer, make())


def test_im2col_channel_major_layout():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 7))
    kh, kw, stride, pad = 3, 2, 2, 1
    cols = F.im2col(x, kh, kw, stride, pad)
    oh = F.conv_output_size(5, kh, stride, pad)
    ow = F.conv_output_size(7, kw, stride, pad)
    assert cols.shape == (2, 3 * kh * kw, oh * ow)
    assert cols.flags.c_contiguous
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    for c in range(3):
        for ih in range(kh):
            for iw in range(kw):
                row = (c * kh + ih) * kw + iw
                want = xp[:, c, ih:ih + stride * oh:stride,
                          iw:iw + stride * ow:stride].reshape(2, -1)
                np.testing.assert_array_equal(cols[:, row], want)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("n", [1, 3])
def test_conv2d_plan_matches_graph(stride, padding, bias, n):
    rng = np.random.default_rng(10 * stride + padding)
    model = Sequential(Conv2d(3, 5, 3, stride=stride, padding=padding,
                              bias=bias, rng=rng))
    x = rng.normal(size=(n, 3, 9, 11))
    plan = compile_inference(model)
    np.testing.assert_allclose(plan(x), graph_forward(model, x),
                               rtol=RTOL, atol=1e-300)


@pytest.mark.parametrize("act", sorted(ACTIVATIONS))
@pytest.mark.parametrize("n", [1, 3])
def test_fused_activation_plan_matches_graph(act, n):
    rng = np.random.default_rng(1)
    model = with_act(Conv2d(4, 6, 5, padding=2, rng=rng), act)
    x = rng.normal(size=(n, 4, 8, 12))
    plan = compile_inference(model)
    if act != "none":
        assert plan.n_fused == 1
    np.testing.assert_allclose(plan(x), graph_forward(model, x),
                               rtol=RTOL, atol=1e-300)


@pytest.mark.parametrize("act", ["none", "relu", "leaky"])
@pytest.mark.parametrize("stride,bias", [(1, True), (2, False)])
@pytest.mark.parametrize("n", [1, 3])
def test_conv1d_plan_matches_graph(act, stride, bias, n):
    rng = np.random.default_rng(2)
    model = with_act(Conv1d(3, 4, 3, stride=stride, bias=bias, rng=rng),
                     act)
    x = rng.normal(size=(n, 3, 17))
    np.testing.assert_allclose(compile_inference(model)(x),
                               graph_forward(model, x),
                               rtol=RTOL, atol=1e-300)


@pytest.mark.parametrize("stride,padding", [(1, 2), (2, 1)])
def test_batched_rows_bitwise_equal_single_row(stride, padding):
    rng = np.random.default_rng(3)
    model = Sequential(Conv2d(4, 8, 5, stride=stride, padding=padding,
                              rng=rng), ReLU(),
                       Conv2d(8, 4, 1, rng=rng))
    plan = compile_inference(model)
    x = rng.normal(size=(5, 4, 12, 16))
    batched = np.array(plan(x))
    for i in range(len(x)):
        np.testing.assert_array_equal(batched[i], plan(x[i:i + 1])[0])


def test_miniweather_m_training_parity():
    arch = {"conv1_kernel": 5, "conv1_channels": 8, "conv2_kernel": 3}

    def build():
        return build_miniweather_cnn(arch, nz=8, nx=16, seed=0)

    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4, 8, 16))
    y = rng.normal(size=(3, 4, 8, 16))
    graph = build()
    graph.train()
    graph.zero_grad()
    loss = mse_loss(graph(Tensor(x)), Tensor(y))
    loss.backward()
    plan = compile_training(build(), mse_loss)
    assert plan.train_batch(x, y) == pytest.approx(loss.item(), abs=PARITY)
    grads = [p.grad for p in graph.parameters()]
    assert len(grads) == len(plan.grad_views) == 6
    for ref, got in zip(grads, plan.grad_views):
        assert np.abs(ref - got).max() <= PARITY


def test_inference_conv_steps_keep_no_scratch():
    rng = np.random.default_rng(5)
    plan = compile_inference(Sequential(Conv2d(2, 3, 3, padding=1, rng=rng),
                                        ReLU()))
    first = plan(rng.normal(size=(2, 2, 6, 6)))
    kept = first.copy()
    (step,) = plan._steps
    assert step._bufs == {}
    # Outputs are per call: a second call leaves the first one intact.
    plan(rng.normal(size=(2, 2, 6, 6)))
    np.testing.assert_array_equal(first, kept)
    assert step._bufs == {}
