import itertools
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import satalign.tape as tape_module
from satalign import encoders, evaluate
from satalign.cli import _gradcheck_setup
from satalign.encoders import Model, location_input_features, trainable_mask
from satalign.geodata import COVARIATE_CHANNELS
from satalign.optim import ParameterStore
from satalign.tape import Tape, _evaluate, backward, l2_normalize_rows
from satalign.gradcheck import finite_diff_check
from satalign.training import TrainConfig, build_training_graph


def scalar_graph():
    # y = x . w + b with x=[1,2], w=[3,4], b=5 -> 1*3 + 2*4 + 5 = 16
    tape = Tape()
    x = tape.leaf("x", np.array([[1.0, 2.0]]))
    w = tape.leaf("w", np.array([[3.0], [4.0]]), trainable=True)
    b = tape.leaf("b", np.array(5.0), trainable=True)
    y = tape.sum(tape.add(tape.matmul(x, w), b))
    tape.mark_output("y", y)
    return tape


class TestForward:
    def test_matmul_identity(self):
        tape = Tape()
        a = tape.leaf("a", np.array([[1.0, 2.0], [3.0, 4.0]]))
        eye = tape.const(np.eye(2))
        out = tape.matmul(a, eye)
        np.testing.assert_array_equal(out.value, a.value)

    def test_relu_definition(self):
        tape = Tape()
        x = tape.leaf("x", np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(tape.relu(x).value, [0.0, 0.0, 2.0])

    def test_affine_scalar(self):
        tape = scalar_graph()
        assert float(tape.output_value("y")) == 16.0

    def test_replay_overrides_leaf(self):
        tape = scalar_graph()
        values = _evaluate(tape, {"x": np.array([[0.0, 0.0]])})
        assert float(values[tape.outputs["y"]]) == 5.0
        assert float(tape.output_value("y")) == 16.0  # the recording is kept

    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(0)
        tape = Tape()
        x = tape.leaf("x", rng.normal(size=(4, 3, 8, 8)))
        k = tape.leaf("k", rng.normal(size=(5, 3, 3, 3)), trainable=True)
        g = tape.leaf("g", np.ones(5), trainable=True)
        b = tape.leaf("b", np.zeros(5), trainable=True)
        h = tape.conv_block(x, k, g, b, stride=2, padding=1)
        loss = tape.sum(tape.global_avg_pool(h))
        tape.mark_output("loss", loss)
        for node, value in zip(tape.nodes, _evaluate(tape, None)):
            assert value.tobytes() == node.value.tobytes(), node

    def test_shape_mismatch_names_node(self):
        tape = Tape()
        a = tape.leaf("a", np.ones((2, 3)))
        b = tape.leaf("b", np.ones((4, 2)))
        with pytest.raises(ValueError, match="matmul shape mismatch at node"):
            tape.matmul(a, b)
        # every op whose shape check runs when the node is recorded: each is
        # rejected as node 8, the next after the leaves
        img = tape.leaf("img", np.ones((2, 3, 5, 5)))
        k = tape.leaf("k", np.ones((4, 3, 3, 3)))
        k5 = tape.leaf("k5", np.ones((4, 5, 3, 3)))
        k7 = tape.leaf("k7", np.ones((4, 3, 7, 7)))
        v = tape.leaf("v", np.ones(3))
        w = tape.leaf("w", np.ones(4))
        cases = [
            (lambda: tape.matmul(a, v), "matmul at node 8: expects 2-D operands"),
            (lambda: tape.matmul(b, a, trans_b=True),
             r"matmul shape mismatch at node 8: \(4, 2\) @ \(3, 2\)"),
            (lambda: tape.conv_block(a, k, w, w),
             "conv_block at node 8 needs 4-D input and kernel"),
            (lambda: tape.conv_block(img, a, w, w),
             "conv_block at node 8 needs 4-D input and kernel"),
            (lambda: tape.conv_block(img, k5, w, w),
             "conv_block at node 8: kernel expects 5 channels, input has 3"),
            (lambda: tape.conv_block(img, k7, w, w),
             "conv_block at node 8: kernel 7x7 too large for input 5x5 with padding 0"),
            (lambda: tape.global_avg_pool(a), "global_avg_pool at node 8: expects 4-D"),
            (lambda: tape.conv_block(img, k, v, w),
             r"conv_block at node 8: scale/shift must have shape \(4,\)"),
            (lambda: tape.conv_block(img, k, w, v),
             r"conv_block at node 8: scale/shift must have shape \(4,\)"),
        ]
        for stride, padding in ((0, 0), (1, -1)):
            with pytest.raises(ValueError, match=f"invalid conv_block stride={stride} "
                                                 f"padding={padding}"):
                tape.conv_block(img, k, w, w, stride=stride, padding=padding)
        for build, message in cases:
            with pytest.raises(ValueError, match=message):
                build()
        assert len(tape.nodes) == 8  # a rejected node is never recorded

    def test_unknown_leaf_override_rejected(self):
        tape = scalar_graph()
        with pytest.raises(ValueError, match="unknown leaf"):
            _evaluate(tape, {"nope": np.zeros(2)})

    def test_scheduled_replay_checks_override_shape(self):
        tape = scalar_graph()
        with pytest.raises(ValueError, match="leaf 'w' expects shape"):
            _evaluate(tape, {"w": np.zeros(3)}, [])

    def test_unsupported_op_kind_rejected(self):
        tape = scalar_graph()
        tape.nodes[3].op = "attention"  # tamper with a recorded op
        with pytest.raises(ValueError, match="unsupported op kind 'attention'"):
            _evaluate(tape, None)

    def test_conv_matches_direct_convolution(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 7))
        k = rng.normal(size=(4, 3, 3, 3))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        tape = Tape()
        out = tape.conv_block(*(tape.leaf(name, v) for name, v in
                                (("x", x), ("k", k), ("gamma", gamma), ("beta", beta))),
                              stride=2, padding=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        conv = np.zeros((2, 4, 3, 4))
        for n in range(2):
            for f in range(4):
                for i in range(conv.shape[2]):
                    for j in range(conv.shape[3]):
                        patch = xp[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                        conv[n, f, i, j] = np.sum(patch * k[f])
        norm, mean, var = reference_channel_norm(conv, gamma, beta, 1e-5)
        np.testing.assert_allclose(out.value, np.maximum(norm, 0.0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.batch_stats[0], mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.batch_stats[1], var, rtol=1e-12)
        xhat = (conv - mean[None, :, None, None]) / np.sqrt(var + 1e-5)[None, :, None, None]
        np.testing.assert_allclose(out.xhat, xhat, rtol=0, atol=1e-10)


class TestBackward:
    def test_square_derivative(self):
        # f(x) = x^2 at x=3 -> df/dx = 6
        tape = Tape()
        x = tape.leaf("x", np.array(3.0), trainable=True)
        tape.mark_output("f", tape.mul(x, x))
        grads = backward(tape)
        assert float(grads["x"]) == 6.0

    def test_sum_of_matmul_gradient(self):
        # loss = sum(A @ B): dL/dA = ones @ B^T
        rng = np.random.default_rng(1)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))
        tape = Tape()
        a = tape.leaf("a", a_val, trainable=True)
        b = tape.leaf("b", b_val)
        tape.mark_output("loss", tape.sum(tape.matmul(a, b)))
        grads = backward(tape)
        np.testing.assert_allclose(grads["a"], np.ones((3, 2)) @ b_val.T, atol=1e-12)

    def test_affine_gradients(self):
        tape = scalar_graph()
        grads = backward(tape)
        np.testing.assert_array_equal(grads["w"], [[1.0], [2.0]])
        assert float(grads["b"]) == 1.0
        assert "x" not in grads  # non-trainable leaves get no entry

    def test_non_scalar_output_rejected(self):
        tape = Tape()
        x = tape.leaf("x", np.ones(3), trainable=True)
        tape.mark_output("y", tape.relu(x))
        with pytest.raises(ValueError, match="scalar output"):
            backward(tape)

    def test_unused_trainable_leaf_gets_zero(self):
        tape = Tape()
        x = tape.leaf("x", np.array(2.0), trainable=True)
        unused = tape.leaf("unused", np.ones(3), trainable=True)
        tape.mark_output("f", tape.mul(x, x))
        grads = backward(tape)
        np.testing.assert_array_equal(grads["unused"], np.zeros(3))

    def test_linearity_of_backward(self):
        # grad(a*L1 + b*L2) == a*grad(L1) + b*grad(L2)
        rng = np.random.default_rng(7)
        x_val = rng.normal(size=(3, 3))
        a, b = 1.7, -0.4

        def build(coeff1, coeff2):
            tape = Tape()
            x = tape.leaf("x", x_val, trainable=True)
            l1 = tape.sum(tape.mul(x, x))
            l2 = tape.logsumexp(tape.sum(x, axis=1), axis=0)
            combo = tape.add(tape.mul(tape.const(coeff1), l1), tape.mul(tape.const(coeff2), l2))
            tape.mark_output("loss", combo)
            return backward(tape)["x"]

        combined = build(a, b)
        separate = a * build(1.0, 0.0) + b * build(0.0, 1.0)
        np.testing.assert_allclose(combined, separate, atol=1e-10)


class TestOpGradients:
    """Finite-difference checks for every supported op, 20 random seeds each."""

    SEEDS = range(20)

    def _check(self, tape, tol=1e-4):
        report = finite_diff_check(tape, tolerance=tol)
        assert report.passed, str(report)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_add_mul_broadcast(self, seed):
        rng = np.random.default_rng(seed)
        tape = Tape()
        a = tape.leaf("a", rng.normal(size=(3, 4)), trainable=True)
        bias = tape.leaf("bias", rng.normal(size=(4,)), trainable=True)
        b = tape.leaf("b", rng.normal(size=(3, 4)), trainable=True)
        tape.mark_output("loss", tape.sum(tape.mul(tape.add(a, bias), b)))
        self._check(tape)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul_all_transpose_flags(self, seed):
        rng = np.random.default_rng(seed)
        for tb in (False, True):
            tape = Tape()
            a = tape.leaf("a", rng.normal(size=(3, 4)), trainable=True)
            b = tape.leaf("b", rng.normal(size=(2, 4) if tb else (4, 2)), trainable=True)
            tape.mark_output("loss", tape.sum(tape.matmul(a, b, trans_b=tb)))
            self._check(tape)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relu_off_kink(self, seed):
        rng = np.random.default_rng(seed)
        x_val = rng.normal(size=(4, 4))
        x_val += 1e-3 * np.sign(x_val) + (x_val == 0) * 1e-3  # nudge off the kink
        tape = Tape()
        x = tape.leaf("x", x_val, trainable=True)
        w = tape.leaf("w", rng.normal(size=(4, 4)), trainable=True)
        tape.mark_output("loss", tape.sum(tape.relu(tape.matmul(x, w))))
        self._check(tape)

    # (input shape, kernel shape, stride, padding) of a conv_block: strided and
    # padded, odd sizes with a non-square kernel, and a 1x1 kernel
    CONV_BLOCK_GEOMETRIES = (((2, 2, 5, 5), (3, 2, 3, 3), 2, 1),
                             ((3, 2, 7, 5), (2, 2, 2, 3), 2, 0),
                             ((3, 2, 4, 4), (2, 2, 1, 1), 1, 0))

    def _check_conv_block(self, seed, trainable):
        """One conv_block per geometry, with `trainable` flags for (x, kernel,
        gamma, beta). The loss weights the output unevenly: summed over a
        channel, the normalized activations are constant in x and the kernel."""
        rng = np.random.default_rng(seed)
        for x_shape, k_shape, stride, padding in self.CONV_BLOCK_GEOMETRIES:
            f = k_shape[0]
            values = (rng.normal(size=x_shape), rng.normal(size=k_shape),
                      1.0 + 0.1 * rng.normal(size=f), 0.1 * rng.normal(size=f))
            tape = Tape()
            leaves = [tape.leaf(name, v, trainable=t) for name, v, t in
                      zip(("x", "k", "gamma", "beta"), values, trainable)]
            h = tape.conv_block(*leaves, stride=stride, padding=padding)
            w = tape.const(rng.normal(size=h.value.shape))
            tape.mark_output("loss", tape.sum(tape.mul(h, w)))
            self._check(tape)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv2d(self, seed):
        # the conv of a conv_block: input and kernel gradients through the
        # norm and relu, with everything trainable, a frozen kernel and a
        # frozen input
        for trainable in ((True, True, True, True), (True, False, True, True),
                          (False, True, True, True)):
            self._check_conv_block(seed, trainable)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_channel_norm_training_mode(self, seed):
        # the batch-statistics norm of a conv_block with only its scale and
        # shift trainable, so no conv backward runs
        self._check_conv_block(seed, (False, False, True, True))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_global_avg_pool(self, seed):
        rng = np.random.default_rng(seed)
        tape = Tape()
        x = tape.leaf("x", rng.normal(size=(2, 3, 4, 4)), trainable=True)
        w = tape.leaf("w", rng.normal(size=(3, 2)), trainable=True)
        tape.mark_output("loss", tape.sum(tape.matmul(tape.global_avg_pool(x), w)))
        self._check(tape)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_l2norm_rows(self, seed):
        rng = np.random.default_rng(seed)
        tape = Tape()
        x = tape.leaf("x", rng.normal(size=(3, 5)) + 0.1, trainable=True)
        w = tape.leaf("w", rng.normal(size=(3, 5)), trainable=True)
        tape.mark_output("loss", tape.sum(tape.mul(tape.l2norm_rows(x), w)))
        self._check(tape)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_logsumexp(self, seed):
        # Moderate logit spread keeps every softmax weight well above the
        # finite-difference noise floor.
        rng = np.random.default_rng(seed)
        tape = Tape()
        x = tape.leaf("x", 1.5 * rng.normal(size=(4, 6)), trainable=True)
        tape.mark_output("loss", tape.sum(tape.logsumexp(x, axis=1)))
        self._check(tape)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sum_mean_axes(self, seed):
        # a mean is a sum scaled by one over the count
        rng = np.random.default_rng(seed)
        for axis in (None, 0, 1):
            tape = Tape()
            x = tape.leaf("x", rng.normal(size=(3, 4)), trainable=True)
            s = tape.sum(x, axis=axis)
            m = tape.mul(s, tape.const(1.0 / (12 if axis is None else (3, 4)[axis])))
            total = tape.add(tape.sum(tape.mul(s, s)) if axis is not None else tape.mul(s, s),
                             tape.sum(tape.mul(m, m)) if axis is not None else tape.mul(m, m))
            tape.mark_output("loss", tape.sum(total))
            self._check(tape)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 4))
        once = l2_normalize_rows(m)
        np.testing.assert_allclose(l2_normalize_rows(once), once, atol=1e-12)

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(l2_normalize_rows(row), row, atol=1e-15)

    def test_zero_row_error_names_row(self):
        with pytest.raises(ValueError, match="degenerate embedding row 0"):
            l2_normalize_rows(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="degenerate embedding row 2"):
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_error_names_row(self, bad):
        with pytest.raises(ValueError, match="embedding row 1 has a non-finite norm"):
            l2_normalize_rows(np.array([[1.0, 0.0], [bad, 1.0]]))

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_positive_scale_invariant(self, scale):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(5, 3))
        np.testing.assert_allclose(l2_normalize_rows(scale * m), l2_normalize_rows(m), atol=1e-12)

    def test_output_rows_unit_norm(self):
        rng = np.random.default_rng(13)
        out = l2_normalize_rows(rng.normal(size=(8, 6)) * 100)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_first_non_finite_row_is_named_ahead_of_a_degenerate_one(self):
        m = np.array([[0.0, 0.0], [1.0, 2.0], [np.inf, 1.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="embedding row 2 has a non-finite norm") as got:
            l2_normalize_rows(m)
        assert (got.value.row, got.value.problem) == (2, "non-finite")
        with pytest.raises(ValueError, match="embedding row 2 has a non-finite norm"):
            reference_l2_normalize_rows(m)
        with pytest.raises(ValueError, match="degenerate embedding row 0") as got:
            l2_normalize_rows(m[:2])
        assert (got.value.row, got.value.problem) == (0, "degenerate")


# -- kernels against the expressions they replaced --------------------------------
#
# The forward kernels call ufunc reductions directly and finish conv_block's
# norm and relu in place. These are the numpy-wrapper expressions they
# replaced; every rewritten kernel must match its reference bit for bit.


def reference_logsumexp(x, axis):
    m = np.max(x, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis)


def reference_sum(x, axis):
    return np.asarray(np.sum(x, axis=axis))


def reference_global_avg_pool(x):
    return np.mean(x, axis=(2, 3))


def reference_conv2d(x, k, stride, padding):
    """Convolution as one GEMM per tile: the (f, c*kh*kw) kernel matrix times
    that tile's patch columns, taken from `sliding_window_view` of the
    zero-padded input."""
    f, c, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (n, c, oh, ow, kh, kw)
    n, _, oh, ow = windows.shape[:4]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
    kmat = k.reshape(f, c * kh * kw)
    out = np.empty((n, f, oh * ow))
    for t in range(n):
        out[t] = np.matmul(kmat, cols[t])
    return out.reshape(n, f, oh, ow)


def reference_channel_norm(x, gamma, beta, eps, mean=None, var=None):
    """Five temporaries; batch statistics when no running ones are given.
    With running ones it is the frozen encoder's norm (test_encoders.py)."""
    if mean is None:
        mean = np.mean(x, axis=(0, 2, 3))
        var = np.mean((x - mean[None, :, None, None]) ** 2, axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
    return gamma[None, :, None, None] * xhat + beta[None, :, None, None], mean, var


def reference_l2_normalize_rows(m, eps=1e-12):
    norms = np.sqrt(np.sum(m * m, axis=1))
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(f"embedding row {int(bad[0])} has a non-finite norm")
    bad = np.flatnonzero(norms <= eps)
    if bad.size:
        raise ValueError(f"degenerate embedding row {int(bad[0])}")
    return m / norms[:, None]


def reference_conv_block(x, k, gamma, beta, stride, padding, eps):
    """relu of the reference norm of the reference conv, with the batch
    (mean, var) and the normalized conv output."""
    h = reference_conv2d(x, k, stride, padding)
    value, mean, var = reference_channel_norm(h, gamma, beta, eps)
    xhat = (h - mean[None, :, None, None]) * (1.0 / np.sqrt(var + eps))[None, :, None, None]
    return np.maximum(value, 0.0), mean, var, xhat


def reference_value(node, vals, saved):
    """The replaced expression's value for a node given its input values, or
    None for an op whose kernel was not rewritten. A conv_block's statistics
    and `xhat` must also equal `saved`, (batch_stats, xhat), when given."""
    attrs = node.attrs
    if node.op == "logsumexp":
        return reference_logsumexp(vals[0], attrs["axis"])
    if node.op == "sum":
        return reference_sum(vals[0], attrs["axis"])
    if node.op == "global_avg_pool":
        return reference_global_avg_pool(vals[0])
    if node.op == "l2norm_rows":
        return reference_l2_normalize_rows(vals[0])
    if node.op == "conv_block":
        value, mean, var, xhat = reference_conv_block(*vals, **attrs)
        if saved is not None:
            (batch_mean, batch_var), saved_xhat = saved
            assert mean.tobytes() == batch_mean.tobytes(), node
            assert var.tobytes() == batch_var.tobytes(), node
            assert xhat.tobytes() == saved_xhat.tobytes(), node
        return value
    return None


def default_training_tape(seed=0):
    """The full training graph at the default config's shapes (64 tiles of
    32 px, d_txt 64)."""
    cfg = TrainConfig(seed=seed)
    model = Model.initialize(cfg.model, seed=seed)
    rng = np.random.default_rng(seed)
    n, size = cfg.batch_size, cfg.model.image.in_size
    batch = {"tiles_a": rng.random((n, 3, size, size)),
             "tiles_b": rng.random((n, 3, size, size)),
             "locfeat": location_input_features(rng.uniform(-60, 60, n),
                                                rng.uniform(-170, 170, n),
                                                rng.uniform(-1, 1, (n, COVARIATE_CHANNELS))),
             "text": rng.normal(size=(n, cfg.model.d_txt))}
    tape, _ = build_training_graph(model, batch, frozenset(model.params.names()),
                                   cfg.loss_config())
    return tape


def assert_nodes_match_references(tape, values, saved=None):
    """Each rewritten node's value in `values`, and each conv_block's batch
    (mean, var) and xhat in `saved` when given, equals its reference's
    bytes."""
    checked = set()
    for node in tape.nodes:
        expect = reference_value(node, [values[i] for i in node.inputs],
                                 None if saved is None else saved[node.idx])
        if expect is not None:
            got = values[node.idx]
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes(), node
            checked.add(node.op)
    assert checked == {"logsumexp", "sum", "l2norm_rows", "global_avg_pool", "conv_block"}


@pytest.mark.parametrize("build", [lambda: _gradcheck_setup(3), default_training_tape],
                         ids=["gradcheck_setup", "default_training"])
def test_recorded_and_replayed_kernels_match_references(build):
    tape = build()
    assert_nodes_match_references(tape, [node.value for node in tape.nodes],
                                  {node.idx: (node.batch_stats, node.xhat) for node in tape.nodes})
    # a perturbed full replay runs the same kernels on new values
    rng = np.random.default_rng(1)
    overrides = {}
    for name in tape.leaf_names():
        base = tape.leaf_value(name)
        overrides[name] = base + 1e-3 * rng.normal(size=base.shape)
    values = _evaluate(tape, overrides)
    assert values[tape.outputs["loss"]].tobytes() != tape.output_value("loss").tobytes()
    assert_nodes_match_references(tape, values)


def assert_same_bits(got, expect, where):
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes(), where


@pytest.mark.parametrize("shape", [(4, 4), (64, 64), (3, 5, 2), (0, 6), (1, 1)])
def test_reductions_match_references_on_every_axis(shape):
    x = np.random.default_rng(7).normal(size=shape) * 30
    tape = Tape()
    leaf = tape.leaf("x", x)
    for axis in [None] + list(range(-len(shape), len(shape))):
        assert_same_bits(tape.sum(leaf, axis=axis).value, reference_sum(x, axis), axis)
        if axis is not None and shape[axis] > 0:  # a max over nothing raises
            assert_same_bits(tape.logsumexp(leaf, axis=axis).value,
                             reference_logsumexp(x, axis), axis)


@pytest.mark.parametrize("shape", [(4, 6, 4, 4), (2, 3, 1, 5), (0, 3, 4, 4)])
def test_pool_norm_and_row_norm_kernels_match_references(shape):
    rng = np.random.default_rng(8)
    x = rng.normal(size=shape) * 5 + 2
    c = shape[1]
    k = rng.normal(size=(c + 1, c, 1, 3))
    gamma, beta = rng.normal(size=c + 1), rng.normal(size=c + 1)
    tape = Tape()
    leaves = [tape.leaf(name, v) for name, v in
              (("x", x), ("k", k), ("gamma", gamma), ("beta", beta))]
    assert_same_bits(tape.global_avg_pool(leaves[0]).value, reference_global_avg_pool(x),
                     "global_avg_pool")
    with warnings.catch_warnings():  # batch statistics of zero samples are nan
        warnings.simplefilter("ignore", RuntimeWarning)
        block = tape.conv_block(*leaves, padding=1, eps=1e-5)
        expect, mean, var, xhat = reference_conv_block(x, k, gamma, beta, 1, 1, 1e-5)
    assert_same_bits(block.value, expect, "conv_block")
    assert_same_bits(block.batch_stats[0], mean, "batch mean")
    assert_same_bits(block.batch_stats[1], var, "batch var")
    assert_same_bits(block.xhat, xhat, "xhat")
    rows = x.reshape(shape[0], c * shape[2] * shape[3])
    assert_same_bits(tape.l2norm_rows(tape.leaf("rows", rows)).value,
                     reference_l2_normalize_rows(rows), "l2norm_rows")


def reference_conv_block_grads(x, k, gamma, beta, stride, padding, eps, g):
    """Gradients of sum(conv_block(...) * g) into (x, k, gamma, beta) as the
    separate relu, channel_norm and conv2d ops computed them: the relu mask
    from the pre-activation, xhat recomputed from the batch statistics, the
    conv's (c*kh*kw, n*oh*ow) patch columns, and the kh*kw col2im adds."""
    h = reference_conv2d(x, k, stride, padding)
    pre, mean, var = reference_channel_norm(h, gamma, beta, eps)
    g = g * (pre > 0)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (h - mean[None, :, None, None]) * inv[None, :, None, None]
    dgamma, dbeta = np.sum(g * xhat, axis=(0, 2, 3)), np.sum(g, axis=(0, 2, 3))
    m = h.shape[0] * h.shape[2] * h.shape[3]
    dh = g - (dbeta / m)[None, :, None, None]
    dh -= xhat * (dgamma / m)[None, :, None, None]
    dh *= (gamma * inv)[None, :, None, None]
    (n, f, oh, ow), (_, c, kh, kw) = dh.shape, k.shape
    g_t = dh.transpose(1, 0, 2, 3).reshape(f, n * oh * ow)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = windows[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)
    dk = (g_t @ cols.reshape(c * kh * kw, n * oh * ow).T).reshape(k.shape)
    dcols = (k.reshape(f, c * kh * kw).T @ g_t).reshape(c, kh, kw, n, oh, ow)
    dxp = np.zeros(xp.shape)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                dcols[:, i, j].transpose(1, 0, 2, 3)
    dx = dxp[:, :, padding:padding + x.shape[2], padding:padding + x.shape[3]]
    return dx, dk, dgamma, dbeta


def record_workers(monkeypatch) -> tuple[list, list]:
    """Record what the sub-slice workers do from now on: `started`, every
    thread started, and `calls`, one (sub-slices, ids) per run_sub_slices
    call, ids being the threads that ran one of its sub-slices."""
    started, calls, real = [], [], tape_module.run_sub_slices

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def recorded(n, buffers, work, step=tape_module.SUB_SLICE_TILES):
        ids = set()
        calls.append((-(-n // step), ids))

        def traced(bufs, start, stop):
            ids.add(threading.get_ident())
            work(bufs, start, stop)

        real(n, buffers, traced, step)

    monkeypatch.setattr(threading, "Thread", CountedThread)
    for module in (tape_module, encoders, evaluate):
        monkeypatch.setattr(module, "run_sub_slices", recorded)
    return started, calls


def assert_pool_contract(started, calls, cap, cpus):
    """The sub-slice pool's contract: at most cap - 1 threads started, all of
    them daemon, however many calls ran; each call ran on min(cap, CPUs,
    sub-slices) workers, the caller one of them."""
    assert len(started) <= cap - 1 and all(thread.daemon for thread in started)
    assert calls
    for slices, ids in calls:
        assert len(ids) == min(cap, cpus, slices), (slices, ids)
        assert slices == 0 or threading.get_ident() in ids, slices


# batches that cross sub-slice boundaries of SUB_SLICE_TILES (8) tiles, the
# last one short, with padding 0 and with kernel 4 / stride 3 / padding 1, on
# one, two and three workers
SUB_SLICE_GEOMETRIES = tuple(((n, 3, 9, 8), (2, 3, *shape), *geometry, cpus)
                             for n in (9, 19) for shape, geometry in (((3, 3), (2, 0)),
                                                                      ((4, 4), (3, 1)))
                             for cpus in (1, 2, 3))


@pytest.mark.parametrize("geometry",
                         TestOpGradients.CONV_BLOCK_GEOMETRIES + SUB_SLICE_GEOMETRIES)
def test_conv_block_gradients_match_the_replaced_ops(monkeypatch, geometry):
    x_shape, k_shape, stride, padding, *cpus = geometry
    started, calls = record_workers(monkeypatch)
    if cpus:  # the worker count, forced through its cap, on as many CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus[0])),
                            raising=False)
        monkeypatch.setattr(tape_module, "ENCODE_WORKERS", cpus[0])
    rng = np.random.default_rng(9)
    f = k_shape[0]
    values = (rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=f),
              rng.normal(size=f))
    names = ("x", "k", "gamma", "beta")
    tape = Tape()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers switch every microsecond
    try:
        block = tape.conv_block(*(tape.leaf(name, v, trainable=True)
                                  for name, v in zip(names, values)),
                                stride=stride, padding=padding)
        w = rng.normal(size=block.value.shape)
        tape.mark_output("loss", tape.sum(tape.mul(block, tape.const(w))))
        grads = backward(tape)
    finally:
        sys.setswitchinterval(interval)
    expect = reference_conv_block_grads(*values, stride, padding, 1e-5, w)
    for name, want in zip(names, expect):
        assert_same_bits(grads[name], want, name)
    if cpus:  # the forward's three passes and the backward's two, each on every worker
        assert len(calls) == 5
        assert_pool_contract(started, calls, cpus[0], cpus[0])


# -- pruned backward on the full training graph --------------------------------

MASKS = [("full", False), ("scale_shift", False), ("scale_shift", True)]


def masked_setup(seed, mode, freeze_location):
    """`_gradcheck_setup`'s tape with every leaf's trainable flag set from the
    fine-tuning mask; the batch leaves stay frozen."""
    tape = _gradcheck_setup(seed)
    params = ParameterStore()
    for name in tape.leaf_names():
        if not name.startswith("batch."):
            params.add(name, tape.leaf_value(name))
    mask = trainable_mask(mode, params, freeze_location)
    for name in tape.leaf_names():
        tape.nodes[tape._leaf_ids[name]].trainable = name in mask
    return tape, mask


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mode, freeze_location", MASKS)
def test_pruned_backward_matches_all_trainable_bitwise(seed, mode, freeze_location):
    tape, mask = masked_setup(seed, mode, freeze_location)
    grads = backward(tape, output="loss")
    assert set(grads) == mask

    reference = _gradcheck_setup(seed)
    for name in reference.leaf_names():  # pixels, text and locfeat included
        reference.nodes[reference._leaf_ids[name]].trainable = True
    full = backward(reference, output="loss")
    assert set(full) == set(reference.leaf_names())
    for name in mask:
        assert grads[name].shape == full[name].shape, name
        assert grads[name].tobytes() == full[name].tobytes(), name


def counting_backward(monkeypatch, tape):
    """Run backward, recording every `_im2col` call and every node given a VJP
    with the gradients it returned."""
    im2col_calls, vjp_nodes = [], []
    real_im2col, real_vjp = tape_module._im2col, tape_module._vjp

    def im2col(*args):
        im2col_calls.append(args[0].shape)
        return real_im2col(*args)

    def vjp(node, *args):
        grads = real_vjp(node, *args)
        vjp_nodes.append((node, grads))
        return grads

    monkeypatch.setattr(tape_module, "_im2col", im2col)
    monkeypatch.setattr(tape_module, "_vjp", vjp)
    backward(tape, output="loss")
    monkeypatch.undo()
    return im2col_calls, vjp_nodes


def test_scale_shift_backward_never_calls_im2col(monkeypatch):
    full, _ = masked_setup(0, "full", False)
    calls, _ = counting_backward(monkeypatch, full)
    assert len(calls) == 4  # kernel gradients of two conv stages in two towers
    frozen, _ = masked_setup(0, "scale_shift", False)
    calls, vjp_nodes = counting_backward(monkeypatch, frozen)
    assert calls == []
    # every block's scale and shift train; block 2 still passes its input
    # gradient on to block 1's, and block 1 runs no conv backward at all
    blocks = [grads for node, grads in vjp_nodes if node.op == "conv_block"]
    assert len(blocks) == 4
    assert all(dk is None and dgamma is not None and dbeta is not None
               for _, dk, dgamma, dbeta in blocks)
    assert sum(dx is not None for dx, *_ in blocks) == 2


def test_frozen_location_tower_gets_no_vjp(monkeypatch):
    def location_matmuls(tape, nodes):
        loc_leaves = {tape._leaf_ids[n] for n in tape.leaf_names() if n.startswith("loc.")}
        return [node for node, _ in nodes
                if node.op == "matmul" and loc_leaves & set(node.inputs)]

    trainable, _ = masked_setup(0, "scale_shift", False)
    _, vjp_nodes = counting_backward(monkeypatch, trainable)
    assert len(location_matmuls(trainable, vjp_nodes)) == 3  # fc0, res1, out
    frozen, _ = masked_setup(0, "scale_shift", True)
    _, vjp_nodes = counting_backward(monkeypatch, frozen)
    assert location_matmuls(frozen, vjp_nodes) == []


def loop_im2col(xp, kh, kw, stride, oh, ow, cols):
    """The kh*kw slice loop that `_im2col`'s single strided copy replaced."""
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("hw", [(7, 5), (4, 9), (8, 8)])
def test_im2col_equals_slice_loop(stride, padding, kernel, hw):
    n, c = 3, 2
    # a transposed, so non-contiguous, input: with padding 0 it is xp itself
    x = np.random.default_rng(11).normal(size=(n, c, hw[1], hw[0])).swapaxes(2, 3)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    oh, ow = ((size + 2 * padding - kernel) // stride + 1 for size in hw)
    shape = (n, c, kernel, kernel, oh, ow)
    expect = loop_im2col(xp, kernel, kernel, stride, oh, ow, np.empty(shape))
    cols = np.empty(shape)
    tape_module._im2col(xp, kernel, kernel, stride, oh, ow, cols)
    assert_same_bits(cols, expect, "new")
    # the conv_block backward writes into a (c, kh, kw, n, oh, ow) block through
    # a transposed view, so its columns are one (c*kh*kw, n*oh*ow) matrix
    block = np.empty((c, kernel, kernel, n, oh, ow))
    tape_module._im2col(xp, kernel, kernel, stride, oh, ow, block.transpose(3, 0, 1, 2, 4, 5))
    loop_block = np.empty((c, kernel, kernel, n, oh, ow))
    loop_im2col(xp, kernel, kernel, stride, oh, ow, loop_block.transpose(3, 0, 1, 2, 4, 5))
    assert_same_bits(block, loop_block, "transposed view")
    assert_same_bits(block.transpose(3, 0, 1, 2, 4, 5), expect, "transposed layout")


# -- batched replay --------------------------------------------------------------
#
# A batched replay stacks P overrides of a leaf on a leading axis. Each op kind
# must give row p, bit for bit, the value an unbatched replay of row p gives,
# whichever of its inputs carry that axis.

BATCHED_CASES = {
    "add_bias": ("add", [(3, 4), (4,)], {}),
    "add_bias_first": ("add", [(4,), (3, 4)], {}),
    "add_scalar": ("add", [(), (3, 4)], {}),
    "mul_same_shape": ("mul", [(3, 4), (3, 4)], {}),
    "mul_column_by_row": ("mul", [(3, 1), (4,)], {}),
    "matmul": ("matmul", [(3, 4), (4, 2)], {"trans_b": False}),
    "matmul_trans_b": ("matmul", [(3, 4), (2, 4)], {"trans_b": True}),
    "matmul_row_vector": ("matmul", [(1, 4), (4, 2)], {"trans_b": False}),
    "matmul_column_vector": ("matmul", [(3, 4), (1, 4)], {"trans_b": True}),
    "relu": ("relu", [(3, 4)], {}),
    # conv_block cases, named after the geometries of the conv2d and
    # channel_norm ops it replaced, plus odd sizes with a non-square kernel
    "conv2d_strided_padded": ("conv_block", [(2, 2, 5, 5), (3, 2, 3, 3), (3,), (3,)],
                              {"stride": 2, "padding": 1}),
    "conv2d": ("conv_block", [(2, 3, 6, 6), (4, 3, 3, 3), (4,), (4,)], {}),
    "channel_norm_training": ("conv_block", [(3, 2, 4, 4), (2, 2, 1, 1), (2,), (2,)], {}),
    "conv_block_odd_non_square": ("conv_block", [(3, 2, 7, 5), (2, 2, 2, 3), (2,), (2,)],
                                  {"stride": 2}),
    "global_avg_pool": ("global_avg_pool", [(2, 3, 4, 4)], {}),
    "l2norm_rows": ("l2norm_rows", [(3, 5)], {}),
    "logsumexp_axis0": ("logsumexp", [(4, 6)], {"axis": 0}),
    "logsumexp_axis1": ("logsumexp", [(4, 6)], {"axis": 1}),
    "sum_all": ("sum", [(3, 4)], {"axis": None}),
    "sum_axis0": ("sum", [(3, 4)], {"axis": 0}),
    "sum_axis1": ("sum", [(3, 4)], {"axis": 1}),
}


@pytest.mark.parametrize("case", BATCHED_CASES)
def test_batched_replay_rows_equal_unbatched_replays(case):
    op, shapes, kwargs = BATCHED_CASES[case]
    rng = np.random.default_rng(5)
    tape = Tape()
    leaves = [tape.leaf(f"in{i}", 0.5 + rng.normal(size=shape)) for i, shape in enumerate(shapes)]
    node = getattr(tape, op)(*leaves, **kwargs)
    rows = 3
    for mask in itertools.product([False, True], repeat=len(leaves)):
        if not any(mask):
            continue
        overrides = {leaf.name: leaf.value + 0.3 * rng.normal(size=(rows, *leaf.value.shape))
                     for leaf, batched in zip(leaves, mask) if batched}
        got = _evaluate(tape, overrides, batched=True)[node.idx]
        assert got.shape == (rows, *node.value.shape), mask
        for p in range(rows):
            alone = _evaluate(tape, {name: v[p] for name, v in overrides.items()})[node.idx]
            assert_same_bits(got[p], alone, (mask, p))
            assert got[p].tobytes() != node.value.tobytes(), (mask, p)


@pytest.mark.parametrize("batched", [("x",), ("k",), ("x", "k")], ids=["x", "kernel", "both"])
def test_batched_replay_split_across_workers_equals_unbatched_replays(monkeypatch, batched):
    """A batched replay of a 19-tile conv_block runs sub-slices of 8, 8 and 3
    tiles on two workers, its P rows riding along in each sub-slice, and row p
    has the bits of an unbatched replay of row p."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(tape_module, "ENCODE_WORKERS", 2)
    started, calls = record_workers(monkeypatch)
    rng = np.random.default_rng(12)
    shapes = {"x": (19, 2, 7, 6), "k": (3, 2, 3, 3), "gamma": (3,), "beta": (3,)}
    tape = Tape()
    node = tape.conv_block(*(tape.leaf(name, rng.normal(size=shape))
                             for name, shape in shapes.items()), stride=2, padding=1)
    overrides = {name: tape.leaf_value(name) + 0.3 * rng.normal(size=(3, *shapes[name]))
                 for name in batched}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers switch every microsecond
    try:
        calls.clear()
        got = _evaluate(tape, overrides, batched=True)[node.idx]
        assert_pool_contract(started, calls, 2, 2)  # each pass on the second worker too
        for p in range(3):
            alone = _evaluate(tape, {name: v[p] for name, v in overrides.items()})[node.idx]
            assert_same_bits(got[p], alone, p)
            assert got[p].tobytes() != node.value.tobytes(), p
    finally:
        sys.setswitchinterval(interval)


def test_sub_slice_workers_last_across_calls(monkeypatch):
    """Forty calls on three workers start at most two threads, daemon ones
    kept for the next call, and each call runs on all three workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(tape_module, "ENCODE_WORKERS", 3)
    started, calls = record_workers(monkeypatch)
    out = np.zeros(5 * tape_module.SUB_SLICE_TILES)
    for call in range(40):
        def work(_, start, stop):
            out[start:stop] += call

        tape_module.run_sub_slices(out.size, None, work)
    assert out.tolist() == [sum(range(40))] * out.size
    assert len(calls) == 40
    assert_pool_contract(started, calls, 3, 4)
    assert len(tape_module._pool) <= 2


def test_a_call_while_another_holds_the_workers_runs_alone(monkeypatch):
    """A call from a second thread, made while a first call holds the pool,
    runs every sub-slice on its own thread and does not wait for the first."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(tape_module, "ENCODE_WORKERS", 2)
    started, calls = record_workers(monkeypatch)
    holding, release, second_ids = threading.Event(), threading.Event(), []
    first, second = np.zeros(24), np.zeros(24)

    def hold(_, start, stop):
        first[start:stop] = 1.0
        holding.set()
        release.wait(60)

    def alone(_, start, stop):
        second[start:stop] = 2.0

    def second_call():
        tape_module.run_sub_slices(24, None, alone)
        second_ids.append(threading.get_ident())

    callers = [threading.Thread(target=tape_module.run_sub_slices, args=(24, None, hold)),
               threading.Thread(target=second_call)]
    callers[0].start()
    try:
        assert holding.wait(60)
        callers[1].start()
        callers[1].join(60)
        second_done = not callers[1].is_alive()
    finally:
        release.set()
        for caller in callers:
            caller.join(60)
    assert second_done and second.tolist() == [2.0] * 24
    assert calls[1][1] == set(second_ids)
    assert not callers[0].is_alive() and first.tolist() == [1.0] * 24
    assert len(calls[0][1]) == 2  # the first call ran on both workers


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_the_pool_exists_runs_on_two_workers(monkeypatch):
    """A child forked from a process whose pool has a worker starts its own:
    its two-worker call finishes, with the parent's bits, within a minute."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(tape_module, "ENCODE_WORKERS", 2)
    rng = np.random.default_rng(13)
    values = (rng.normal(size=(19, 2, 7, 6)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3),
              rng.normal(size=3))

    def block():
        tape = Tape()
        leaves = [tape.leaf(name, v) for name, v in zip(("x", "k", "gamma", "beta"), values)]
        return tape.conv_block(*leaves, stride=2, padding=1).value.tobytes()

    started, calls = record_workers(monkeypatch)
    expect = block()
    assert tape_module._pool and all(len(ids) == 2 for _, ids in calls)
    pid = os.fork()
    if pid == 0:  # the child exits 0 only when its call ran on two workers with those bits
        code = 1
        try:
            calls.clear()
            code = 0 if block() == expect and all(len(ids) == 2 for _, ids in calls) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's two-worker call hung")
    assert os.waitstatus_to_exitcode(status[1]) == 0


# conv outputs for the reduction-order premise: the sub-slice geometries'
# outputs, both default training stages, a 20-tile batch (sub-slices of 8, 8
# and 4), 1x1 maps, and batched replays' ranks
PREMISE_SHAPES = (*sorted({(x[0], k[0], *(tape_module.conv_size(x[i], k[i], s, p) for i in (2, 3)))
                           for x, k, s, p, _ in SUB_SLICE_GEOMETRIES}),
                  (64, 16, 16, 16), (64, 32, 8, 8), (20, 16, 16, 16), (20, 4, 1, 1), (1, 3, 1, 1),
                  (3, 64, 16, 16, 16), (4, 19, 3, 2, 2))


@pytest.mark.parametrize("shape", PREMISE_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_per_tile_sums_reduce_to_the_whole_batch_bits(shape):
    """conv_block's batch statistics and dgamma/dbeta sum over (n, H, W) as
    the tile-axis reduce of per-tile (H, W) sums that each sub-slice writes.
    That equals one whole-batch reduce, bit for bit, only for numpy's
    reduction order; a numpy build with another order fails here."""
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    step = tape_module.SUB_SLICE_TILES
    for scale in (1.0, 1e-3, 1e4):
        h = rng.normal(size=shape) * scale
        tiles = np.empty(shape[:-2])
        for start in range(0, shape[-4], step):
            np.add.reduce(h[..., start:start + step, :, :, :], axis=(-2, -1),
                          out=tiles[..., start:start + step, :])
        whole = np.add.reduce(h, axis=(-4, -2, -1), keepdims=True)
        assert_same_bits(np.add.reduce(tiles, axis=-2)[..., None, :, None, None], whole, scale)
        if h.ndim == 4:  # the backward's dgamma and dbeta
            assert_same_bits(np.add.reduce(tiles, axis=0), np.sum(h, axis=(0, 2, 3)), scale)


def test_batched_replay_checks_override_rows():
    tape = scalar_graph()
    with pytest.raises(ValueError, match=r"leaf 'w' expects rows of shape \(2, 1\), got \(2, 1\)"):
        _evaluate(tape, {"w": np.zeros((2, 1))}, batched=True)
    with pytest.raises(ValueError, match="leaf 'b' has 3 rows, another override 2"):
        _evaluate(tape, {"w": np.zeros((2, 2, 1)), "b": np.zeros(3)}, batched=True)
