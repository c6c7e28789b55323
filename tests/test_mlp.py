import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab.core import FormatError, ParameterError, ShapeError, make_rng
from advlab.data import synth_blobs
from advlab.mlp import (MlpConfig, backward, backward_stack, forward, forward_stack,
                        init_weights, input_grad, load_checkpoint, save_checkpoint)
from advlab.objectives import ce_loss

from fd_utils import fd_weight_grads, fd_matrix_grad, max_rel_err
from oracles import ce_logit_grad, full_backward


@st.composite
def small_nets(draw):
    """Random widths [d, ..., K] with one to three layers, and inputs in [0, 1]."""
    widths = draw(st.lists(st.integers(1, 8), min_size=2, max_size=4))
    seed = draw(st.integers(0, 2**31))
    weights = init_weights(MlpConfig(widths, seed=seed,
                                     init_scale=draw(st.sampled_from([None, 0.3, 3.0]))))
    x = make_rng(seed + 1).uniform(size=(draw(st.integers(1, 6)), widths[0]))
    return weights, x


@st.composite
def relu_nets(draw, stacked):
    """Random widths with one to three hidden layers, inputs in [0, 1] and a logit
    gradient; if stacked, S in 2..3 networks on their own batches or on one shared."""
    widths = draw(st.lists(st.integers(1, 8), min_size=3, max_size=5))
    seed = draw(st.integers(0, 2**31))
    scale = draw(st.sampled_from([None, 0.3, 3.0]))
    size = draw(st.integers(2, 3)) if stacked else 1
    nets = [init_weights(MlpConfig(widths, seed=seed + s, init_scale=scale))
            for s in range(size)]
    n = draw(st.integers(1, 6))
    rows = (size, n) if stacked else (n,)
    rng = make_rng(seed)
    weights = [np.stack(layer) for layer in zip(*nets)] if stacked else nets[0]
    x = rng.uniform(size=(*rows, widths[0]))
    if stacked and draw(st.booleans()):
        x = x[0]  # one batch shared by the stack
    return weights, x, rng.standard_normal((*rows, widths[-1]))


class TestInit:
    def test_shapes(self):
        w = init_weights(MlpConfig([784, 50, 10], seed=0))
        assert [m.shape for m in w] == [(50, 784), (10, 50)]

    def test_determinism(self):
        a = init_weights(MlpConfig([8, 4, 3], seed=7))
        b = init_weights(MlpConfig([8, 4, 3], seed=7))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_zero_scale_gives_zero_logits(self):
        w = init_weights(MlpConfig([5, 4, 3], seed=0, init_scale=0.0))
        logits = forward(w, make_rng(0).uniform(size=(6, 5))).logits
        assert np.array_equal(logits, np.zeros((6, 3)))

    def test_one_width_rejected(self):
        with pytest.raises(ParameterError, match="length >= 2"):
            MlpConfig([5])


class TestForward:
    def test_linear_case(self):
        w = init_weights(MlpConfig([5, 3], seed=1))
        x = make_rng(2).uniform(size=(4, 5))
        assert np.allclose(forward(w, x).logits, x @ w[0].T, atol=1e-15)

    def test_relu_inactive_equals_matrix_chain(self):
        rng = make_rng(3)
        w = [np.abs(rng.standard_normal((4, 5))), np.abs(rng.standard_normal((3, 4)))]
        x = rng.uniform(size=(6, 5))
        assert np.allclose(forward(w, x).logits, x @ w[0].T @ w[1].T, rtol=1e-12)

    def test_trace_keeps_each_activation_once(self):
        w = init_weights(MlpConfig([5, 4, 6, 3], seed=7))
        x = make_rng(8).uniform(size=(6, 5))
        trace = forward(w, x)
        h1 = np.maximum(x @ w[0].T, 0.0)
        h2 = np.maximum(h1 @ w[1].T, 0.0)
        assert np.array_equal(trace.inputs, x)
        assert len(trace.hidden) == 2
        assert np.array_equal(trace.hidden[0], h1) and np.array_equal(trace.hidden[1], h2)
        assert np.array_equal(trace.logits, h2 @ w[2].T)

    def test_last_layer_homogeneity(self):
        w = init_weights(MlpConfig([5, 4, 3], seed=4))
        x = make_rng(5).uniform(size=(6, 5))
        base = forward(w, x).logits
        scaled = forward([w[0], 3.0 * w[1]], x).logits
        assert np.allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_positive_homogeneity_all_layers(self):
        w = init_weights(MlpConfig([5, 6, 4, 3], seed=6))
        x = make_rng(7).uniform(size=(4, 5))
        base = forward(w, x).logits
        scaled = forward([2.0 * m for m in w], x).logits
        assert max_rel_err(scaled, 2.0 ** 3 * base) < 1e-9

    @settings(deadline=None, database=None, max_examples=200)
    @given(small_nets(), st.integers(-3, 3))
    def test_power_of_two_scaling_is_exact(self, net, j):
        # scaling by 2^j only shifts exponents, so every rounding commutes
        weights, x = net
        c = 2.0**j
        scaled = forward([c * w for w in weights], x).logits
        assert np.array_equal(scaled, c ** len(weights) * forward(weights, x).logits)

    @settings(deadline=None, database=None, max_examples=200)
    @given(small_nets(), st.floats(0.05, 20.0))
    def test_positive_scaling_property(self, net, c):
        # relative to the logits' term magnitudes, i.e. the same chain
        # with |W| on |x|, since single logits may cancel towards 0
        weights, x = net
        L = len(weights)
        scaled = forward([c * w for w in weights], x).logits
        base = forward(weights, x).logits
        magnitude = forward([np.abs(w) for w in weights], x).logits
        assert np.all(np.abs(scaled - c**L * base) <= 1e-12 * c**L * magnitude)

    def test_shape_error(self):
        w = init_weights(MlpConfig([5, 3], seed=0))
        with pytest.raises(ShapeError):
            forward(w, np.zeros((2, 4)))


class TestBackward:
    def test_zero_logit_grad(self):
        w = init_weights(MlpConfig([4, 3, 2], seed=0))
        trace = forward(w, make_rng(1).uniform(size=(5, 4)))
        wg = backward(w, trace, np.zeros_like(trace.logits))
        xg = input_grad(w, trace, np.zeros_like(trace.logits))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in wg)
        assert np.array_equal(xg, np.zeros((5, 4)))

    def test_linear_closed_form(self):
        w = init_weights(MlpConfig([4, 3], seed=2))
        x = make_rng(3).uniform(size=(5, 4))
        trace = forward(w, x)
        logit_grad = make_rng(4).standard_normal((5, 3))
        wg, xg = backward(w, trace, logit_grad), input_grad(w, trace, logit_grad)
        assert np.allclose(wg[0], logit_grad.T @ x, rtol=1e-12)
        assert np.allclose(xg, logit_grad @ w[0], rtol=1e-12)

    def test_grad_check_many_random_nets(self):
        # analytic vs central differences on random configs and batches
        rng = np.random.default_rng(2718)
        for trial in range(20):
            n_hidden = int(rng.integers(1, 4))
            widths = [int(rng.integers(2, 9))] + \
                     [int(rng.integers(2, 17)) for _ in range(n_hidden)] + \
                     [int(rng.integers(2, 5))]
            weights = init_weights(MlpConfig(widths, seed=int(rng.integers(1e6))))
            n = int(rng.integers(1, 9))
            batch = synth_blobs(make_rng(int(rng.integers(1e6))),
                                max(n, widths[-1]), widths[0], widths[-1], 0.3)

            def loss_fn(ws):
                logits = forward(ws, batch.inputs).logits
                return ce_loss(logits, batch.labels)[1]

            trace = forward(weights, batch.inputs)
            logit_grad = ce_logit_grad(trace.logits, batch.labels) / batch.n
            analytic_w = backward(weights, trace, logit_grad)
            analytic_x = input_grad(weights, trace, logit_grad)
            numeric_w = fd_weight_grads(loss_fn, weights)
            assert max_rel_err(analytic_w, numeric_w) < 1e-5, f"trial {trial}"

            def loss_x(x):
                return ce_loss(forward(weights, x).logits, batch.labels)[1]

            numeric_x = fd_matrix_grad(loss_x, batch.inputs)
            assert max_rel_err(analytic_x, numeric_x) < 1e-5, f"trial {trial}"

    def test_logit_grad_shape_error(self):
        w = init_weights(MlpConfig([4, 3], seed=0))
        trace = forward(w, make_rng(0).uniform(size=(5, 4)))
        with pytest.raises(ShapeError):
            backward(w, trace, np.zeros((5, 4)))

    @pytest.mark.parametrize("stacked", [False, True], ids=["network", "stack"])
    @settings(deadline=None, database=None, max_examples=60)
    @given(data=st.data())
    def test_equals_full_backward(self, stacked, data):
        # the weight-only backward and input_grad keep every bit of the two-output chain
        weights, x, logit_grad = data.draw(relu_nets(stacked))
        trace = (forward_stack if stacked else forward)(weights, x)
        want_w, want_x = full_backward(weights, trace, logit_grad)
        got_w = (backward_stack if stacked else backward)(weights, trace, logit_grad)
        assert len(got_w) == len(want_w)
        assert all(np.array_equal(g, w) for g, w in zip(got_w, want_w))
        assert np.array_equal(input_grad(weights, trace, logit_grad), want_x)


class TestEulerIdentity:
    """A bias-free ReLU net is positively homogeneous of degree L in its weights,
    so for sample i's cross-entropy sum_l <W_l, d loss_i / d W_l> = L * u_i, with
    u_i = <softmax(f_i), f_i> - f_{i, y_i} (Liang et al., arXiv:1711.01530)."""

    @settings(deadline=None, database=None, max_examples=80)
    @given(small_nets(), st.data())
    def test_weight_gradients_meet_euler(self, net, data):
        weights, x = net
        trace = forward(weights, x)
        n, k = trace.logits.shape
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        grad = ce_logit_grad(trace.logits, labels)  # row i: d loss_i / d f_i
        # the same chain with |W| bounds every term of both sides
        magnitude = forward([np.abs(w) for w in weights], x).logits
        layers = len(weights)
        for i in range(n):
            one_row = np.zeros_like(grad)
            one_row[i] = grad[i]
            lhs = sum(float((w * g).sum())
                      for w, g in zip(weights, backward(weights, trace, one_row)))
            u = float(grad[i] @ trace.logits[i])
            scale = layers * float(np.abs(grad[i]) @ magnitude[i])
            assert abs(lhs - layers * u) <= 1e-12 * scale


class TestInputGrad:
    @pytest.mark.parametrize("widths", [[4, 3], [6, 5, 3], [7, 9, 6, 4]])
    def test_bit_identical_to_backward(self, widths):
        # the input gradient of the two-output backward, bit for bit
        w = init_weights(MlpConfig(widths, seed=len(widths)))
        trace = forward(w, make_rng(5).uniform(size=(11, widths[0])))
        logit_grad = make_rng(6).standard_normal(trace.logits.shape)
        assert np.array_equal(input_grad(w, trace, logit_grad),
                              full_backward(w, trace, logit_grad)[1])

    def test_logit_grad_shape_error(self):
        w = init_weights(MlpConfig([4, 3], seed=0))
        trace = forward(w, make_rng(0).uniform(size=(5, 4)))
        with pytest.raises(ShapeError):
            input_grad(w, trace, np.zeros((5, 4)))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        w = init_weights(MlpConfig([7, 5, 3], seed=9))
        path = tmp_path / "model.ckpt"
        save_checkpoint(w, path)
        loaded = load_checkpoint(path)
        assert len(loaded) == len(w)
        assert all(np.array_equal(a, b) for a, b in zip(w, loaded))
        assert all(a.flags.c_contiguous and a.flags.writeable for a in loaded)

    def test_layout(self, tmp_path):
        # a Fortran-order float32 layer is written as row-major little-endian float64
        w = [np.asfortranarray(np.arange(6.0).reshape(2, 3), dtype=np.float32), np.ones((1, 2))]
        path = tmp_path / "model.ckpt"
        save_checkpoint(w, path)
        assert path.read_bytes() == (b"AMLP\x01" + struct.pack("<4I", 3, 3, 2, 1)
                                     + np.arange(6.0).astype("<f8").tobytes()
                                     + np.ones(2).astype("<f8").tobytes())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(FormatError, match="bad checkpoint magic b'NOPE'"):
            load_checkpoint(path)

    def _saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_weights(MlpConfig([7, 5, 3], seed=9)), path)
        return path, path.read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(FormatError, match=f"checkpoint body: expected {len(raw) - 21} bytes "
                                              f"at byte 21, found {len(raw) - 20}$"):
            load_checkpoint(path)

    def test_truncated_body_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match=f"checkpoint body: expected {len(raw) - 21} bytes "
                                              f"at byte 21, found {len(raw) - 29}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [4, 5, 8, 12, 20])
    def test_truncated_header_rejected(self, tmp_path, cut):
        # 9 fixed header bytes, then a 3 x u32 width table ending at byte 21
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:cut])
        message = (f"checkpoint header: expected 9 bytes at byte 0, found {cut}$" if cut < 9 else
                   f"checkpoint width table: expected 12 bytes at byte 9, found {cut - 9}$")
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_zero_width_rejected(self, tmp_path):
        # widths [4, 0, 2] have an empty body and loaded as (0, 4) and (2, 0) weights
        path = tmp_path / "zero.ckpt"
        path.write_bytes(b"AMLP\x01" + struct.pack("<4I", 3, 4, 0, 2))
        with pytest.raises(FormatError, match=r"\[4, 0, 2\] must all be >= 1"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:4] + b"\x02" + raw[5:])
        with pytest.raises(FormatError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    def test_too_few_widths_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:5] + (1).to_bytes(4, "little") + raw[9:13])
        with pytest.raises(FormatError, match="need at least 2"):
            load_checkpoint(path)
