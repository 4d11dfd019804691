import numpy as np
import pytest

import satalign.gradcheck as gradcheck
from satalign.cli import _gradcheck_setup
from satalign.gradcheck import GradCheckReport, finite_diff_check
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


def test_failure_at_a_conv_block_relu_kink_is_diagnosed():
    # beta[1] puts one pre-activation of channel 1 exactly at 0, so a +-step
    # on beta[1] moves it across the block's own relu kink; beta[0] keeps
    # every pre-activation of channel 0 far above 0
    rng = np.random.default_rng(2)
    x, k = rng.normal(size=(2, 1, 3, 3)), rng.normal(size=(2, 1, 1, 1))
    probe = Tape()
    xhat = probe.conv_block(probe.leaf("x", x), probe.leaf("k", k), probe.leaf("g", np.ones(2)),
                            probe.leaf("b", np.zeros(2))).xhat
    tape = Tape()
    block = tape.conv_block(tape.leaf("x", x), tape.leaf("k", k),
                            tape.leaf("gamma", np.ones(2), trainable=True),
                            tape.leaf("beta", np.array([10.0, -xhat[0, 1, 0, 0]]), trainable=True))
    assert block.value[0, 1, 0, 0] == 0.0
    tape.mark_output("loss", tape.sum(tape.mul(block, tape.const(rng.normal(size=(2, 2, 3, 3))))))
    out_idx = tape.outputs["loss"]
    assert gradcheck._crosses_relu_kink(tape, ("beta", 1), 1e-5, out_idx) is True
    assert gradcheck._crosses_relu_kink(tape, ("beta", 0), 1e-5, out_idx) is False
    report = finite_diff_check(tape)
    assert not report.passed
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
    """Every node's value bytes, batch-statistics bytes and xhat bytes, in
    tape order."""
    return [(node.value.tobytes(),
             None if node.batch_stats is None else [s.tobytes() for s in node.batch_stats],
             None if node.xhat is None else node.xhat.tobytes())
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


def test_non_finite_difference_fails_naming_the_coordinate():
    # x[0] * c[0] overflows to inf on the +step only, so x[0]'s numeric
    # gradient is inf and its relative error nan; x[1]'s error is exactly 0
    tape = Tape()
    x = tape.leaf("x", np.array([[1.0, 0.5]]), trainable=True)
    c = tape.const(np.array([[np.finfo(float).max / 1.000001, 1.0]]))
    tape.mark_output("loss", tape.sum(tape.logsumexp(tape.mul(x, c), axis=1)))
    with np.errstate(over="ignore", invalid="ignore"):
        report = finite_diff_check(tape)
    assert not report.passed
    assert np.isnan(report.max_rel_err)
    assert report.worst == ("x", 0)
    assert report.checked == 2


def test_non_finite_error_outranks_any_finite_one():
    # x[0]'s error is nan, y[0]'s (on a relu kink) is 1.0: x[0] is the worst
    # coordinate whichever leaf is checked first
    tape = Tape()
    x = tape.leaf("x", np.array([1.0]), trainable=True)
    y = tape.leaf("y", np.array([0.0]), trainable=True)
    big = tape.mul(x, tape.const(np.array([np.finfo(float).max / 1.000001])))
    tape.mark_output("loss", tape.add(tape.sum(big), tape.sum(tape.relu(y))))
    with np.errstate(over="ignore", invalid="ignore"):
        report = finite_diff_check(tape)
        assert report.worst == ("x", 0) and np.isnan(report.max_rel_err)
        report = finite_diff_check(tape, names=["y", "x"])
    assert report.worst == ("x", 0) and np.isnan(report.max_rel_err)


@pytest.mark.parametrize("kwargs, message", [
    ({"output": "zzz"}, "unknown output 'zzz'"),
    ({"names": ["nope"]}, "'nope' is not a trainable leaf"),
    ({"names": ["a", "x"]}, "'x' is not a trainable leaf"),
])
def test_bad_output_or_leaf_name_is_a_value_error(kwargs, message):
    tape = Tape()
    a = tape.leaf("a", np.array([2.0, 1.0]), trainable=True)
    x = tape.leaf("x", np.array([3.0, -1.0]))  # a batch input, not trainable
    tape.mark_output("loss", tape.sum(tape.mul(a, x)))
    tape.mark_output("aux", tape.sum(a))
    with pytest.raises(ValueError, match=message):
        finite_diff_check(tape, **kwargs)


def test_tape_without_outputs_is_a_value_error():
    tape = Tape()
    tape.leaf("a", np.array([2.0]), trainable=True)
    with pytest.raises(ValueError, match="the tape marks no output to check"):
        finite_diff_check(tape)


def test_default_output_is_the_first_marked():
    tape = Tape()
    a = tape.leaf("a", np.array([2.0, 1.0]), trainable=True)
    tape.mark_output("cube", tape.sum(tape.mul(a, tape.mul(a, a))))
    tape.mark_output("linear", tape.sum(a))
    assert finite_diff_check(tape) == finite_diff_check(tape, output="cube")
    assert finite_diff_check(tape) != finite_diff_check(tape, output="linear")


def unbatched_check(tape, step=1e-5, output="loss"):
    """The per-coordinate check: two unbatched replays per coordinate, errors
    compared one at a time. Returns the largest error, its coordinate, the
    count, and the bytes of each leaf's (f+, f-) pairs."""
    out_idx = tape.outputs[output]
    analytic = backward(tape, output=output)
    max_err, worst, checked, replayed = 0.0, None, 0, {}
    for name in tape.leaf_names(trainable_only=True):
        base = tape.leaf_value(name)
        grad = np.asarray(analytic[name]).ravel()
        work = base.copy().ravel()
        overrides = {name: work.reshape(base.shape)}
        schedule = replay_schedule(tape, name, out_idx)
        plus, minus = [], []
        for i in range(work.size):
            orig = work[i]
            work[i] = orig + step
            f_plus = float(_evaluate(tape, overrides, schedule)[out_idx])
            work[i] = orig - step
            f_minus = float(_evaluate(tape, overrides, schedule)[out_idx])
            work[i] = orig
            plus.append(f_plus)
            minus.append(f_minus)
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(grad[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            checked += 1
            if err > max_err:
                max_err, worst = err, (name, i)
        replayed[name] = np.array([plus, minus]).T.tobytes()
    return max_err, worst, checked, replayed


def unbatched_crosses_relu_kink(tape, coord, step=1e-5, output="loss"):
    """Whether a relu input, of a relu node or of a conv_block's relu, changes
    sign between the unbatched +step and -step replays of one coordinate."""
    name, i = coord
    base = tape.leaf_value(name)
    schedule = replay_schedule(tape, name, tape.outputs[output])
    sides = []
    for delta in (step, -step):
        work = base.copy().ravel()
        work[i] += delta
        values = _evaluate(tape, {name: work.reshape(base.shape)}, schedule)
        sides.append([values[node.idx] > 0 for node in schedule
                      if node.op in ("relu", "conv_block")])
    return any(not np.array_equal(plus, minus) for plus, minus in zip(*sides))


@pytest.mark.parametrize("seed", range(3))
def test_batched_check_equals_per_coordinate_replays(seed, monkeypatch):
    tape = _gradcheck_setup(seed)
    max_err, worst, checked, expect_replayed = unbatched_check(tape)
    replayed = {}

    def record(tape, overrides, nodes=None, batched=False):
        values = _evaluate(tape, overrides, nodes, batched)
        (name, _), = overrides.items()
        plus, minus = np.split(values[tape.outputs["loss"]], 2)
        replayed[name] = replayed.get(name, b"") + np.array([plus, minus]).T.tobytes()
        return values

    monkeypatch.setattr(gradcheck, "_evaluate", record)
    assert finite_diff_check(tape) == GradCheckReport(max_err, True, checked, worst)
    assert replayed == expect_replayed  # every f+ and f-, bit for bit
    # a tolerance below the error fails the check and asks about relu kinks
    failed = GradCheckReport(max_err, False, checked, worst,
                             unbatched_crosses_relu_kink(tape, worst))
    assert finite_diff_check(tape, tolerance=max_err) == failed


def test_chunked_replay_gives_the_same_report(monkeypatch):
    tape = _gradcheck_setup(1)
    name = "img.conv2.kernel"
    chunks = []

    def count(tape, overrides, nodes=None, batched=False):
        if name in overrides:
            chunks.append(overrides[name].shape[0] // 2)
        return _evaluate(tape, overrides, nodes, batched)

    monkeypatch.setattr(gradcheck, "_evaluate", count)
    monkeypatch.setattr(gradcheck, "REPLAY_BUDGET_BYTES", 1 << 40)
    whole = finite_diff_check(tape)
    assert chunks == [216]  # one replay of all 432 rows
    schedule = replay_schedule(tape, name, tape.outputs["loss"])
    row_bytes = sum(node.value.nbytes for node in schedule)
    # 2 * 80 rows per chunk: the 216 coordinates take chunks of 80, 80 and 56
    monkeypatch.setattr(gradcheck, "REPLAY_BUDGET_BYTES", 2 * 80 * row_bytes)
    chunks.clear()
    assert finite_diff_check(tape) == whole
    assert chunks == [80, 80, 56]
