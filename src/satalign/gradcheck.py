"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tape import Tape, _evaluate, _resolve_output, backward, replay_schedule

# Bytes of recorded node values that one batched replay may stack: a leaf
# whose 2*size perturbation rows, times the bytes its schedule records per
# row, exceed this is replayed in chunks of coordinates. The CLI model's
# largest leaf, img.conv2.kernel, needs ~5.8 MB and replays in one chunk.
REPLAY_BUDGET_BYTES = 8 << 20


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

    Perturbs every coordinate of the requested trainable leaves (default:
    all of them) by +-step and compares (f+ - f-)/(2*step) to the analytic
    gradient of `output` (default: the tape's first output), using relative
    error |a - n| / max(|a|, |n|, 1e-8). A non-finite error fails the check
    and is the worst coordinate, ahead of any finite one.

    All 2*size perturbed copies of a leaf are stacked on a leading axis and
    replayed at once: one batched :func:`_evaluate` per leaf, recomputing only
    the nodes between the leaf and the output that depend on the leaf. Each
    row gives the same bits as replaying that perturbation alone. A leaf whose
    rows would stack more than REPLAY_BUDGET_BYTES of node values is replayed
    in chunks of coordinates. The tape is left unmodified.

    Failures are reported, never raised; a failed report also says whether
    the worst coordinate's +-step crossed a relu kink. A `tolerance` or
    `step` that is not finite and > 0 raises ValueError, as no check could
    fail (inf) or pass (nan, 0, negative) under it; so do an unknown or
    missing output and a name that is not a trainable leaf.
    """
    for label, value in (("tolerance", tolerance), ("step", step)):
        if not 0 < value < np.inf:
            raise ValueError(f"{label} must be finite and > 0, got {value!r}")
    trainable = tape.leaf_names(trainable_only=True)
    if names is None:
        names = trainable
    for name in names:
        if name not in trainable:
            raise ValueError(f"{name!r} is not a trainable leaf of the tape")
    if output is None and not tape.outputs:
        raise ValueError("the tape marks no output to check")
    out_name = output if output is not None else next(iter(tape.outputs))
    out_idx = _resolve_output(tape, out_name)
    analytic = backward(tape, output=out_name)

    max_err = 0.0
    worst = None
    checked = 0
    for name in names:
        base = tape.leaf_value(name)
        grad = np.asarray(analytic[name]).ravel()
        schedule = replay_schedule(tape, name, out_idx)
        row_bytes = sum(node.value.nbytes for node in schedule)
        chunk = max(1, REPLAY_BUDGET_BYTES // max(1, 2 * row_bytes))
        for lo in range(0, base.size, chunk):
            idx = np.arange(lo, min(lo + chunk, base.size))
            rows = _perturbed_rows(base, idx, step)
            # a replay that overflows is reported as a non-finite error, not warned of
            with np.errstate(over="ignore", invalid="ignore"):
                f = _evaluate(tape, {name: rows}, schedule, batched=True)[out_idx]
            # a leaf the output does not depend on leaves f its recorded scalar
            f = np.broadcast_to(f, rows.shape[:1])
            numeric = (f[:idx.size] - f[idx.size:]) / (2.0 * step)
            a = grad[idx]
            err = np.abs(a - numeric) / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
            checked += idx.size
            # argmax takes the first NaN if there is one, else the first maximum
            j = int(np.argmax(err))
            if np.isfinite(max_err) and not err[j] <= max_err:
                max_err = float(err[j])
                worst = (name, int(idx[j]))
    report = GradCheckReport(max_rel_err=max_err, passed=max_err < tolerance,
                             checked=checked, worst=worst)
    if not report.passed and worst is not None:
        report.crosses_relu_kink = _crosses_relu_kink(tape, worst, step, out_idx)
    return report


def _perturbed_rows(base: np.ndarray, idx: np.ndarray, step: float) -> np.ndarray:
    """Copies of `base` stacked on a new leading axis: row k has flat
    coordinate idx[k] moved by +step, row len(idx) + k has it moved by -step."""
    flat = base.ravel()
    n = idx.size
    rows = np.tile(flat, (2 * n, 1))
    rows[np.arange(n), idx] = flat[idx] + step
    rows[np.arange(n, 2 * n), idx] = flat[idx] - step
    return rows.reshape(2 * n, *base.shape)


def _crosses_relu_kink(tape: Tape, coord: tuple[str, int], step: float, out_idx: int) -> bool:
    """Whether some relu input, of a relu node or of a conv_block's own relu,
    lies on different sides of zero at the +step and the -step replay of one
    leaf coordinate: one two-row batched replay. The relu's output tells, as
    max(x, 0) > 0 exactly when x > 0, NaN included."""
    name, i = coord
    schedule = replay_schedule(tape, name, out_idx)
    rows = _perturbed_rows(tape.leaf_value(name), np.array([i]), step)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _evaluate(tape, {name: rows}, schedule, batched=True)
    return any(not np.array_equal(x[0] > 0, x[1] > 0)
               for x in (values[node.idx] for node in schedule
                         if node.op in ("relu", "conv_block")))
