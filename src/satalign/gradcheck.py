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
    reported, never raised.
    """
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
    return GradCheckReport(max_rel_err=max_err, passed=max_err < tolerance,
                           checked=checked, worst=worst)
