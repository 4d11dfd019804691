import numpy as np
import pytest

from satalign.cli import _gradcheck_setup
from satalign.gradcheck import finite_diff_check
from satalign.tape import Tape, _evaluate, backward, replay_schedule


def quadratic_tape(x_val):
    tape = Tape()
    x = tape.leaf("x", x_val, trainable=True)
    tape.mark_output("loss", tape.sum(tape.mul(x, x)))
    return tape


def test_quadratic_loss_tight_error():
    # Analytic gradient 2x; central differences are exact for quadratics up to
    # float roundoff, so the error is far below the default tolerance.
    tape = quadratic_tape(np.array([0.5, -1.2, 2.0]))
    report = finite_diff_check(tape)
    assert report.passed
    assert report.max_rel_err < 1e-8
    assert report.checked == 3


def test_relu_passes_with_inputs_nudged_off_zero():
    rng = np.random.default_rng(4)
    x_val = rng.normal(size=(5,))
    x_val[x_val == 0] = 1e-3
    x_val += 1e-3 * np.sign(x_val)
    tape = Tape()
    x = tape.leaf("x", x_val, trainable=True)
    tape.mark_output("loss", tape.sum(tape.relu(x)))
    assert finite_diff_check(tape, tolerance=1e-4).passed


def test_failure_at_a_relu_kink_is_diagnosed():
    # x[1] is exactly 0: the relu's analytic slope there is 0, while the
    # central difference straddles the kink and reads 0.5
    tape = Tape()
    x = tape.leaf("x", np.array([0.5, 0.0, -0.7]), trainable=True)
    tape.mark_output("loss", tape.sum(tape.relu(x)))
    report = finite_diff_check(tape)
    assert not report.passed
    assert report.worst == ("x", 1)
    assert report.crosses_relu_kink is True


def test_failure_away_from_relu_kinks_is_not_blamed_on_one():
    # a cubic through a relu whose input stays positive: the coarse step's
    # truncation error fails the check, and no relu input changes sign
    tape = Tape()
    x = tape.leaf("x", np.array([1.0, 2.0]), trainable=True)
    r = tape.relu(x)
    tape.mark_output("loss", tape.sum(tape.mul(r, tape.mul(r, r))))
    report = finite_diff_check(tape, step=0.1)
    assert not report.passed
    assert report.crosses_relu_kink is False
    assert finite_diff_check(tape).crosses_relu_kink is None


def test_corrupted_gradient_flagged():
    tape = quadratic_tape(np.array([1.0, 2.0]))
    honest = backward(tape)["x"]

    report = finite_diff_check(tape)
    assert report.passed

    # Negative control: doubling the analytic gradient must trip the check.
    # Corrupt by comparing the finite differences against 2x by hand.
    step = 1e-5
    corrupted = 2.0 * honest
    worst = 0.0
    for i in range(2):
        plus = tape.leaf_value("x").copy()
        minus = tape.leaf_value("x").copy()
        plus[i] += step
        minus[i] -= step
        numeric = (np.sum(plus * plus) - np.sum(minus * minus)) / (2 * step)
        err = abs(corrupted[i] - numeric) / max(abs(corrupted[i]), abs(numeric), 1e-8)
        worst = max(worst, err)
    assert worst > 1e-4  # the doubled gradient fails where the honest one passed


def test_tape_left_unmodified():
    tape = quadratic_tape(np.array([1.5, -0.5]))
    before = tape.leaf_value("x").copy()
    loss_before = float(tape.output_value("loss"))
    finite_diff_check(tape)
    np.testing.assert_array_equal(tape.leaf_value("x"), before)
    assert float(tape.output_value("loss")) == loss_before


def recorded_bytes(tape):
    """Every node's value bytes and batch-statistics bytes, in tape order."""
    return [(node.value.tobytes(),
             None if node.batch_stats is None else [s.tobytes() for s in node.batch_stats])
            for node in tape.nodes]


def test_training_tape_is_written_once():
    # the full training graph has training-mode norms, whose batch statistics
    # backward reads; neither a gradient check nor a perturbed replay may
    # write them or any node value
    tape = _gradcheck_setup(3)
    assert any(node.batch_stats is not None for node in tape.nodes)
    recorded = recorded_bytes(tape)
    grads = backward(tape, output="loss")
    finite_diff_check(tape)
    rng = np.random.default_rng(0)
    overrides = {name: tape.leaf_value(name) + 1e-3 * rng.normal(size=tape.leaf_value(name).shape)
                 for name in tape.leaf_names()}
    loss_idx = tape.outputs["loss"]
    assert _evaluate(tape, overrides)[loss_idx].tobytes() != recorded[loss_idx][0]
    assert recorded_bytes(tape) == recorded
    again = backward(tape, output="loss")
    assert sorted(again) == sorted(grads)
    for name, grad in grads.items():
        assert again[name].tobytes() == grad.tobytes(), name


def test_subset_of_names():
    tape = Tape()
    a = tape.leaf("a", np.array(2.0), trainable=True)
    b = tape.leaf("b", np.array(3.0), trainable=True)
    tape.mark_output("loss", tape.mul(a, b))
    report = finite_diff_check(tape, names=["b"])
    assert report.checked == 1
    assert report.passed


def test_scheduled_replay_matches_full_replay_bitwise():
    tape = _gradcheck_setup(0)
    out_idx = tape.outputs["loss"]
    recorded = tape.nodes[out_idx].value.tobytes()
    rng = np.random.default_rng(0)
    for name in tape.leaf_names(trainable_only=True):
        base = tape.leaf_value(name)
        perturbed = {name: base + 1e-3 * rng.normal(size=base.shape)}
        schedule = replay_schedule(tape, name, out_idx)
        idx = [node.idx for node in schedule]
        assert idx == sorted(idx) and idx[0] == tape._leaf_ids[name] and idx[-1] == out_idx
        full = _evaluate(tape, perturbed)[out_idx]
        scheduled = _evaluate(tape, perturbed, schedule)[out_idx]
        assert full.tobytes() != recorded, name
        assert scheduled.tobytes() == full.tobytes(), name


def test_leaf_off_the_output_path_has_empty_schedule():
    tape = Tape()
    x = tape.leaf("x", np.array([1.0, -2.0]), trainable=True)
    side = tape.leaf("side", np.array([3.0, 0.5]), trainable=True)
    tape.mark_output("aux", tape.sum(tape.mul(side, side)))
    tape.mark_output("loss", tape.sum(tape.mul(x, x)))
    tape.leaf("late", np.array(4.0), trainable=True)
    out_idx = tape.outputs["loss"]
    assert replay_schedule(tape, "side", out_idx) == []
    assert replay_schedule(tape, "late", out_idx) == []
    # The analytic gradient is zero; a max_rel_err of exactly 0 means every
    # numeric gradient was exactly 0 too.
    report = finite_diff_check(tape, names=["side", "late"], output="loss")
    assert report.checked == 3
    assert report.max_rel_err == 0.0
    assert report.passed


@pytest.mark.parametrize("value", [np.nan, 0.0, -1.0, np.inf])
@pytest.mark.parametrize("param", ["tolerance", "step"])
def test_tolerance_and_step_must_be_finite_and_positive(param, value):
    # nan, 0 and -1 would fail every check, inf would pass every one
    tape = quadratic_tape(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=f"{param} must be finite and > 0, got {value!r}"):
        finite_diff_check(tape, **{param: value})
