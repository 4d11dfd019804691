"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tape import Tape, _evaluate, backward, replay_schedule


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    checked: int
    worst: tuple[str, int] | None = None  # (leaf name, flat coordinate)
    # on a failed check: whether the worst coordinate's +-step moves some relu
    # input across zero, where the finite difference straddles the kink
    crosses_relu_kink: bool | None = None

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"gradcheck {status}: max_rel_err={self.max_rel_err:.3e} over {self.checked} coords"


def finite_diff_check(tape: Tape, names: list[str] | None = None,
                      tolerance: float = 1e-4, step: float = 1e-5,
                      output: str | None = None) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    Perturbs every coordinate of the requested leaves (default: all trainable
    leaves) by +-step and compares (f+ - f-)/(2*step) to the analytic
    gradient, using relative error |a - n| / max(|a|, |n|, 1e-8). Each
    perturbation recomputes only the nodes between the leaf and the output
    that depend on the leaf. The tape is left unmodified. Failures are
    reported, never raised; a failed report also says whether the worst
    coordinate's +-step crossed a relu kink. A `tolerance` or `step` that is
    not finite and > 0 raises ValueError, as no check could fail (inf) or
    pass (nan, 0, negative) under it.
    """
    for label, value in (("tolerance", tolerance), ("step", step)):
        if not 0 < value < np.inf:
            raise ValueError(f"{label} must be finite and > 0, got {value!r}")
    if names is None:
        names = tape.leaf_names(trainable_only=True)
    out_name = output if output is not None else next(iter(tape.outputs))
    out_idx = tape.outputs[out_name]
    analytic = backward(tape, output=out_name)

    max_err = 0.0
    worst = None
    checked = 0
    for name in names:
        base = tape.leaf_value(name)
        grad = np.asarray(analytic[name]).ravel()
        work = base.copy().ravel()
        overrides = {name: work.reshape(base.shape)}
        schedule = replay_schedule(tape, name, out_idx)
        for i in range(work.size):
            orig = work[i]
            work[i] = orig + step
            f_plus = float(_evaluate(tape, overrides, schedule)[out_idx])
            work[i] = orig - step
            f_minus = float(_evaluate(tape, overrides, schedule)[out_idx])
            work[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(grad[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            checked += 1
            if err > max_err:
                max_err = err
                worst = (name, i)
    report = GradCheckReport(max_rel_err=max_err, passed=max_err < tolerance,
                             checked=checked, worst=worst)
    if not report.passed and worst is not None:
        report.crosses_relu_kink = _crosses_relu_kink(tape, worst, step, out_idx)
    return report


def _crosses_relu_kink(tape: Tape, coord: tuple[str, int], step: float, out_idx: int) -> bool:
    """Whether some relu input lies on different sides of zero at the +step
    and the -step replay of one leaf coordinate."""
    name, i = coord
    base = tape.leaf_value(name)
    schedule = replay_schedule(tape, name, out_idx)
    sides = []
    for delta in (step, -step):
        work = base.copy().ravel()
        work[i] += delta
        values = _evaluate(tape, {name: work.reshape(base.shape)}, schedule)
        sides.append([values[node.inputs[0]] > 0 for node in schedule if node.op == "relu"])
    return any(not np.array_equal(plus, minus) for plus, minus in zip(*sides))
