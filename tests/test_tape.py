import numpy as np
import pytest

import satalign.tape as tape_module
from satalign.cli import _gradcheck_setup
from satalign.encoders import trainable_mask
from satalign.optim import ParameterStore
from satalign.tape import (Tape, _evaluate, backward, channel_batch_stats, forward_eval,
                           l2_normalize_rows)
from satalign.gradcheck import finite_diff_check


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

    def test_forward_eval_overrides_leaf(self):
        tape = scalar_graph()
        out = forward_eval(tape, {"x": np.array([[0.0, 0.0]])})
        assert float(out["y"]) == 5.0

    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(0)
        tape = Tape()
        x = tape.leaf("x", rng.normal(size=(4, 3, 8, 8)))
        k = tape.leaf("k", rng.normal(size=(5, 3, 3, 3)), trainable=True)
        g = tape.leaf("g", np.ones(5), trainable=True)
        b = tape.leaf("b", np.zeros(5), trainable=True)
        h = tape.relu(tape.channel_norm(tape.conv2d(x, k, stride=2, padding=1), g, b, training=True))
        loss = tape.mean(tape.global_avg_pool(h))
        tape.mark_output("loss", loss)
        recorded = [n.value.copy() for n in tape.nodes]
        forward_eval(tape)
        for node, before in zip(tape.nodes, recorded):
            np.testing.assert_array_equal(node.value, before)

    def test_shape_mismatch_names_node(self):
        tape = Tape()
        a = tape.leaf("a", np.ones((2, 3)))
        b = tape.leaf("b", np.ones((4, 2)))
        with pytest.raises(ValueError, match="matmul shape mismatch at node"):
            tape.matmul(a, b)

    def test_unknown_leaf_override_rejected(self):
        tape = scalar_graph()
        with pytest.raises(ValueError, match="unknown leaf"):
            forward_eval(tape, {"nope": np.zeros(2)})

    def test_scheduled_replay_checks_override_shape(self):
        tape = scalar_graph()
        with pytest.raises(ValueError, match="leaf 'w' expects shape"):
            _evaluate(tape, {"w": np.zeros(3)}, [])

    def test_unsupported_op_kind_rejected(self):
        tape = scalar_graph()
        tape.nodes[3].op = "attention"  # tamper with a recorded op
        with pytest.raises(ValueError, match="unsupported op kind 'attention'"):
            forward_eval(tape)

    def test_conv_matches_direct_convolution(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 7))
        k = rng.normal(size=(4, 3, 3, 3))
        tape = Tape()
        out = tape.conv2d(tape.leaf("x", x), tape.leaf("k", k), stride=2, padding=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expect = np.zeros(out.value.shape)
        for n in range(2):
            for f in range(4):
                for i in range(expect.shape[2]):
                    for j in range(expect.shape[3]):
                        patch = xp[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                        expect[n, f, i, j] = np.sum(patch * k[f])
        np.testing.assert_allclose(out.value, expect, rtol=0, atol=1e-12)


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
        for ta in (False, True):
            for tb in (False, True):
                tape = Tape()
                a_shape = (4, 3) if ta else (3, 4)
                b_shape = (2, 4) if tb else (4, 2)
                a = tape.leaf("a", rng.normal(size=a_shape), trainable=True)
                b = tape.leaf("b", rng.normal(size=b_shape), trainable=True)
                tape.mark_output("loss", tape.sum(tape.matmul(a, b, trans_a=ta, trans_b=tb)))
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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv2d(self, seed):
        rng = np.random.default_rng(seed)
        tape = Tape()
        x = tape.leaf("x", rng.normal(size=(2, 2, 5, 5)), trainable=True)
        k = tape.leaf("k", rng.normal(size=(3, 2, 3, 3)), trainable=True)
        tape.mark_output("loss", tape.sum(tape.conv2d(x, k, stride=2, padding=1)))
        self._check(tape)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_global_avg_pool(self, seed):
        rng = np.random.default_rng(seed)
        tape = Tape()
        x = tape.leaf("x", rng.normal(size=(2, 3, 4, 4)), trainable=True)
        w = tape.leaf("w", rng.normal(size=(3, 2)), trainable=True)
        tape.mark_output("loss", tape.sum(tape.matmul(tape.global_avg_pool(x), w)))
        self._check(tape)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_channel_norm_training_mode(self, seed):
        # Loss must weight h unevenly: sum(h^2) is constant in x because the
        # normalized activations have fixed per-channel second moments.
        rng = np.random.default_rng(seed)
        tape = Tape()
        x = tape.leaf("x", rng.normal(size=(3, 2, 4, 4)), trainable=True)
        gamma = tape.leaf("gamma", 1.0 + 0.1 * rng.normal(size=2), trainable=True)
        beta = tape.leaf("beta", 0.1 * rng.normal(size=2), trainable=True)
        h = tape.channel_norm(x, gamma, beta, training=True)
        w = tape.const(rng.normal(size=(3, 2, 4, 4)))
        tape.mark_output("loss", tape.sum(tape.mul(h, w)))
        self._check(tape)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_channel_norm_eval_mode(self, seed):
        rng = np.random.default_rng(seed)
        tape = Tape()
        x = tape.leaf("x", rng.normal(size=(2, 3, 3, 3)), trainable=True)
        gamma = tape.leaf("gamma", 1.0 + 0.1 * rng.normal(size=3), trainable=True)
        beta = tape.leaf("beta", 0.1 * rng.normal(size=3), trainable=True)
        h = tape.channel_norm(x, gamma, beta, training=False,
                              running_mean=rng.normal(size=3),
                              running_var=1.0 + rng.random(3))
        tape.mark_output("loss", tape.mean(tape.mul(h, h)))
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
        rng = np.random.default_rng(seed)
        for axis in (None, 0, 1):
            tape = Tape()
            x = tape.leaf("x", rng.normal(size=(3, 4)), trainable=True)
            s = tape.sum(x, axis=axis)
            m = tape.mean(x, axis=axis)
            total = tape.add(tape.sum(tape.mul(s, s)) if axis is not None else tape.mul(s, s),
                             tape.sum(tape.mul(m, m)) if axis is not None else tape.mul(m, m))
            tape.mark_output("loss", tape.sum(total))
            self._check(tape)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concat(self, seed):
        rng = np.random.default_rng(seed)
        tape = Tape()
        a = tape.leaf("a", rng.normal(size=(2, 3)), trainable=True)
        b = tape.leaf("b", rng.normal(size=(2, 2)), trainable=True)
        c = tape.leaf("c", rng.normal(size=(2, 4)), trainable=True)
        joined = tape.concat([a, b, c], axis=1)
        w = tape.leaf("w", rng.normal(size=(2, 9)), trainable=True)
        tape.mark_output("loss", tape.sum(tape.mul(joined, w)))
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


def test_channel_batch_stats_match_numpy():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3, 5, 5))
    mean, var = channel_batch_stats(x)
    np.testing.assert_allclose(mean, x.mean(axis=(0, 2, 3)), atol=1e-12)
    np.testing.assert_allclose(var, x.var(axis=(0, 2, 3)), atol=1e-12)


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
    """Run backward, recording every `_im2col` call and every node given a VJP."""
    im2col_calls, vjp_nodes = [], []
    real_im2col, real_vjp = tape_module._im2col, tape_module._vjp

    def im2col(*args):
        im2col_calls.append(args[0].shape)
        return real_im2col(*args)

    def vjp(node, *args):
        vjp_nodes.append(node)
        return real_vjp(node, *args)

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
    # conv2 still passes its input gradient on to norm1's scale and shift;
    # conv1 reaches no trainable leaf at all.
    assert sum(node.op == "conv2d" for node in vjp_nodes) == 2


def test_frozen_location_tower_gets_no_vjp(monkeypatch):
    def location_matmuls(tape, nodes):
        loc_leaves = {tape._leaf_ids[n] for n in tape.leaf_names() if n.startswith("loc.")}
        return [node for node in nodes
                if node.op == "matmul" and loc_leaves & set(node.inputs)]

    trainable, _ = masked_setup(0, "scale_shift", False)
    _, vjp_nodes = counting_backward(monkeypatch, trainable)
    assert len(location_matmuls(trainable, vjp_nodes)) == 3  # fc0, res1, out
    frozen, _ = masked_setup(0, "scale_shift", True)
    _, vjp_nodes = counting_backward(monkeypatch, frozen)
    assert location_matmuls(frozen, vjp_nodes) == []
