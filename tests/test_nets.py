"""MLP forward/backward against finite differences and closed forms."""

import numpy as np
import pytest

from snl_ebm.models import MlpEnergy
from snl_ebm.nets import Mlp, Workspace, bind
from snl_ebm.proposals import MdnProposal
from snl_ebm.regression import ConditionalEnergyModel
from snl_ebm.rng import PortableRng


def fd_grad(f, theta, step=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += step
        down = theta.copy()
        down[i] -= step
        g[i] = (f(up) - f(down)) / (2 * step)
    return g


def test_zero_init_outputs_zero():
    net = Mlp([3, 8, 1])
    out, _ = net.forward(np.ones((5, 3)))
    assert np.array_equal(out, np.zeros((5, 1)))


@pytest.mark.parametrize("relu_output", [False, True])
def test_forward_without_cache_gives_the_same_output(relu_output):
    net = Mlp([3, 9, 6, 2], PortableRng(5), relu_output=relu_output)
    x = PortableRng(6).normal((11, 3))
    out, cache = net.forward(x, keep_cache=False)
    assert cache is None
    np.testing.assert_array_equal(out, net.forward(x)[0])


def test_param_count():
    net = Mlp([2, 200, 100, 50, 50, 1])
    want = (2 * 200 + 200) + (200 * 100 + 100) + (100 * 50 + 50) + (50 * 50 + 50) + (50 * 1 + 1)
    assert net.n_params == want == net.theta.size


def test_theta_roundtrip_exact():
    net = Mlp([4, 7, 3], PortableRng(1))
    flat = net.theta
    other = Mlp([4, 7, 3])
    other.theta = flat
    assert np.array_equal(other.theta, flat)
    out_a, _ = net.forward(np.linspace(-1, 1, 8).reshape(2, 4))
    out_b, _ = other.forward(np.linspace(-1, 1, 8).reshape(2, 4))
    assert np.array_equal(out_a, out_b)


def test_writing_theta_changes_forward():
    net = Mlp([2, 5, 1], PortableRng(11))
    x = PortableRng(12).normal((4, 2))
    before = net.forward(x)[0].copy()
    theta = net.theta
    theta[-1] += 1.0  # the output bias
    net.theta = theta
    np.testing.assert_array_equal(net.forward(x)[0], before + 1.0)
    theta[-1] = 0.0  # the getter handed out a copy, not the buffer
    assert net.theta[-1] != 0.0


def test_layers_are_views_that_cannot_be_rebound():
    net = Mlp([2, 3, 1], PortableRng(13))
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((2, 3))
    with pytest.raises(TypeError):
        net.biases[1] = np.zeros(1)
    net.weights[1][...] = 0.0
    net.biases[1][...] = 2.5
    np.testing.assert_array_equal(net.forward(np.ones((3, 2)))[0], np.full((3, 1), 2.5))


def test_bind_moves_parameters_into_one_buffer():
    nets = [Mlp([2, 3, 1], PortableRng(14)), Mlp([1, 4, 2], PortableRng(15))]
    x0, x1 = np.ones((2, 2)), np.ones((2, 1))
    before = [nets[0].forward(x0)[0].copy(), nets[1].forward(x1)[0].copy()]
    flat = np.concatenate([net.theta for net in nets])
    buffer = bind(nets)
    np.testing.assert_array_equal(buffer, flat)
    np.testing.assert_array_equal(nets[0].forward(x0)[0], before[0])
    np.testing.assert_array_equal(nets[1].forward(x1)[0], before[1])
    buffer[-1] += 1.0  # the second net's last output bias
    np.testing.assert_array_equal(nets[1].forward(x1)[0][:, 1], before[1][:, 1] + 1.0)
    with pytest.raises(ValueError):
        bind(nets, np.zeros(flat.size + 1))


@pytest.mark.parametrize("make, output", [
    (lambda rng: MlpEnergy([2, 5, 1], rng=rng), lambda g: g.energy(np.linspace(-1, 1, 6).reshape(3, 2))),
    (ConditionalEnergyModel, lambda g: g.energy_pairs(np.linspace(-1, 1, 3), np.linspace(0, 2, 3))),
    (lambda rng: MdnProposal(3, 2, rng), lambda g: g.heads(np.linspace(-1, 1, 9).reshape(3, 3)).mu),
], ids=["MlpEnergy", "ConditionalEnergyModel", "MdnProposal"])
def test_net_group_theta_roundtrip_and_bind(make, output):
    group, twin = make(PortableRng(16)), make(None)
    flat = group.theta
    assert flat.shape == (group.n_params,)
    np.testing.assert_array_equal(flat, np.concatenate([net.theta for net in group.nets]))
    twin.theta = flat
    np.testing.assert_array_equal(twin.theta, flat)
    np.testing.assert_array_equal(output(twin), output(group))
    with pytest.raises(ValueError, match=rf"expected {flat.size} parameters, got \(3,\)"):
        twin.theta = flat[:3]
    buffer = np.zeros(group.n_params)
    group.bind(buffer)
    np.testing.assert_array_equal(buffer, flat)
    before = output(group)
    buffer *= 0.5  # the bound buffer is the group's storage
    twin.theta = 0.5 * flat
    np.testing.assert_array_equal(group.theta, 0.5 * flat)
    np.testing.assert_array_equal(output(group), output(twin))
    assert not np.array_equal(output(group), before)


def test_theta_setter_rejects_wrong_length():
    net = Mlp([2, 3, 1])
    with pytest.raises(ValueError):
        net.theta = np.zeros(5)


def test_forward_rejects_wrong_input_shape():
    net = Mlp([2, 3, 1])
    with pytest.raises(ValueError):
        net.forward(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        net.forward(np.zeros(2))


def test_init_respects_fan_in_bound():
    net = Mlp([9, 16, 1], PortableRng(0))
    w0 = net.weights[0]
    assert np.all(np.abs(w0) <= 1.0 / 3.0)
    assert np.all(net.biases[0] == 0.0)


@pytest.mark.parametrize("relu_output", [False, True])
def test_backward_matches_finite_differences(relu_output):
    rng = PortableRng(5)
    net = Mlp([3, 10, 6, 2], rng, relu_output=relu_output)
    x = PortableRng(8).normal((7, 3))
    cot = PortableRng(9).normal((7, 2))

    def scalar(theta):
        net.theta = theta
        out, _ = net.forward(x)
        return float(np.sum(out * cot))

    theta0 = net.theta
    out, cache = net.forward(x)
    analytic = net.backward(cache, cot)
    numeric = fd_grad(scalar, theta0)
    net.theta = theta0
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_input_gradient_matches_finite_differences():
    net = Mlp([2, 12, 1], PortableRng(3))
    x = PortableRng(4).normal((5, 2))
    out, cache = net.forward(x)
    _, gx = net.backward(cache, np.ones((5, 1)), need_input_grad=True)
    step = 1e-6
    for i in range(5):
        for j in range(2):
            up = x.copy()
            up[i, j] += step
            down = x.copy()
            down[i, j] -= step
            num = (net.forward(up)[0].sum() - net.forward(down)[0].sum()) / (2 * step)
            np.testing.assert_allclose(gx[i, j], num, rtol=1e-6, atol=1e-8)


def test_linear_output_layer_is_affine():
    # with one layer ([d, 1], no hidden relu) the net is exactly x @ W + b
    net = Mlp([3, 1], PortableRng(2))
    x = PortableRng(6).normal((10, 3))
    out, _ = net.forward(x)
    np.testing.assert_allclose(out, x @ net.weights[0] + net.biases[0], atol=0)


def test_relu_output_clamps_negative():
    net = Mlp([2, 2], relu_output=True)
    net.weights[0][...] = np.array([[1.0, 0.0], [0.0, 1.0]])
    net.biases[0][...] = np.array([0.0, -5.0])
    out, _ = net.forward(np.array([[3.0, 1.0], [-2.0, 1.0]]))
    assert np.array_equal(out, np.array([[3.0, 0.0], [0.0, 0.0]]))


def test_relu_derivative_zero_at_kink():
    # an exactly-zero preactivation must contribute zero gradient
    net = Mlp([1, 1, 1])
    net.weights[0][...] = np.array([[1.0]])
    net.weights[1][...] = np.array([[1.0]])
    out, cache = net.forward(np.array([[0.0]]))
    grad = net.backward(cache, np.array([[1.0]]))
    # layout: W1, b1, W2, b2; d/db1 passes through the relu mask at z=0
    w1_g, b1_g, w2_g, b2_g = grad
    assert b1_g == 0.0 and w1_g == 0.0
    assert b2_g == 1.0


def test_gradient_accumulates_over_batch():
    net = Mlp([2, 4, 1], PortableRng(7))
    x = PortableRng(10).normal((6, 2))
    out, cache = net.forward(x)
    whole = net.backward(cache, np.ones((6, 1)))
    summed = np.zeros_like(whole)
    for row in x:
        _, c = net.forward(row.reshape(1, 2))
        summed += net.backward(c, np.ones((1, 1)))
    np.testing.assert_allclose(whole, summed, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("keep_cache", [True, False])
def test_nan_weight_gives_nan_output(keep_cache):
    # ReLU must not turn a NaN pre-activation into 0, or non-finite checks never fire
    net = Mlp([1, 4, 1], PortableRng(2))
    net.weights[0][0, :] = np.nan
    out, _ = net.forward(np.ones((3, 1)), keep_cache=keep_cache)
    assert np.all(np.isnan(out))


@pytest.mark.parametrize("relu_output", [False, True])
def test_workspace_passes_match_fresh_passes_and_reuse_memory(relu_output):
    net = Mlp([3, 9, 6, 2], PortableRng(5), relu_output=relu_output)
    ws = Workspace()
    outputs = []
    for seed in (6, 7):  # the second step runs in the first step's arrays
        x = PortableRng(seed).normal((11, 3))
        cot = PortableRng(seed + 10).normal((11, 2))
        cot_before = cot.copy()
        out, cache = net.forward(x)
        out_ws, cache_ws = net.forward(x, workspace=ws)
        np.testing.assert_array_equal(out_ws, out)
        flat, gx = net.backward(cache, cot, need_input_grad=True)
        flat_ws, gx_ws = net.backward(cache_ws, cot, need_input_grad=True, workspace=ws)
        np.testing.assert_array_equal(flat_ws, flat)
        np.testing.assert_array_equal(gx_ws, gx)
        np.testing.assert_array_equal(cot, cot_before)
        outputs.append(out_ws)
    assert np.shares_memory(outputs[0], outputs[1])
    # gradients handed back are the caller's to keep
    assert not any(np.shares_memory(flat_ws, a) for a in ws._arrays.values())
    assert not any(np.shares_memory(gx_ws, a) for a in ws._arrays.values())


def test_workspace_serves_two_nets_at_once():
    first = Mlp([2, 5, 1], PortableRng(1))
    second = Mlp([2, 5, 1], PortableRng(2))
    ws = Workspace()
    x = PortableRng(3).normal((4, 2))
    out_1, cache_1 = first.forward(x, workspace=ws)
    kept = out_1.copy()
    out_2, cache_2 = second.forward(x, workspace=ws)
    np.testing.assert_array_equal(out_1, kept)
    np.testing.assert_array_equal(first.backward(cache_1, np.ones((4, 1)), workspace=ws),
                                  first.backward(first.forward(x)[1], np.ones((4, 1))))


def test_workspace_serves_a_shorter_shape_from_its_array_and_grows_once():
    ws = Workspace()
    first = ws.array("k", (4, 3))
    shorter = ws.array("k", (2, 3))
    assert shorter.shape == (2, 3) and shorter.flags.c_contiguous
    assert np.shares_memory(shorter, first)
    assert ws.array("k", (12,)).base is shorter.base  # same size, other shape
    longer = ws.array("k", (5, 3))
    assert not np.shares_memory(longer, first)
    assert np.shares_memory(ws.array("k", (4, 3)), longer)
    assert ws.array("k", (2, 3), bool).dtype == bool


def plain_passes(net, x, cot):
    """Output, flat gradient and input gradient of ``net`` by plain float64
    numpy, in the operation order of ``Mlp``'s passes."""
    acts, h = [x], x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if i < len(net.weights) - 1 or net.relu_output:
            h = np.maximum(h, 0.0)
        acts.append(h)
    g, parts = cot, []
    for i in range(len(net.weights) - 1, -1, -1):
        if i < len(net.weights) - 1 or net.relu_output:
            g = g * (acts[i + 1] > 0.0)
        parts[:0] = [(acts[i].T @ g).ravel(), g.sum(axis=0)]
        g = g @ net.weights[i].T
    return h, np.concatenate(parts), g


@pytest.mark.parametrize("workspace", [None, "default"])
@pytest.mark.parametrize("relu_output", [False, True])
def test_float64_passes_keep_their_bits(workspace, relu_output):
    # without a workspace, or in a default one, the passes are float64 throughout
    net = Mlp([3, 9, 6, 2], PortableRng(5), relu_output=relu_output)
    ws = Workspace() if workspace else None
    x = PortableRng(6).normal((11, 3))
    cot = PortableRng(7).normal((11, 2))
    out, cache = net.forward(x, workspace=ws)
    flat, gx = net.backward(cache, cot, need_input_grad=True, workspace=ws)
    want_out, want_flat, want_gx = plain_passes(net, x, cot)
    for got, want in ((out, want_out), (flat, want_flat), (gx, want_gx)):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
    assert all(a.dtype == np.float64 for a in cache)
    if ws is not None:
        assert ws.dtype == np.float64 and ws.array("k", (2,)).dtype == np.float64


@pytest.mark.parametrize("relu_output", [False, True])
def test_float32_workspace_passes_give_float32_activations_and_float64_gradients(relu_output):
    net = Mlp([3, 9, 6, 2], PortableRng(5), relu_output=relu_output)
    ws = Workspace(np.float32)
    x = PortableRng(6).normal((11, 3))
    cot = PortableRng(7).normal((11, 2))
    out, cache = net.forward(x, workspace=ws)
    flat, gx = net.backward(cache, cot, need_input_grad=True, workspace=ws)
    assert out.dtype == np.float32 and all(a.dtype == np.float32 for a in cache)
    assert flat.dtype == np.float64 and gx.dtype == np.float64
    assert net.params.dtype == np.float64  # the parameters themselves are never cast
    assert ws.array("k", (2,)).dtype == np.float32 and ws.array("m", (2,), bool).dtype == bool
    want_out, want_flat, want_gx = plain_passes(net, x, cot)
    np.testing.assert_allclose(out, want_out, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(flat, want_flat, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(gx, want_gx, rtol=1e-5, atol=1e-6)
    assert not np.array_equal(flat, want_flat)  # the pass did run in float32
