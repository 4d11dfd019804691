"""Output bytes of tiny inputs, pinned to recorded sha256 digests.

The other byte checks compare two runs of one tree, so a change of one
rounding that keeps both runs alike passes them. These inputs go through the
real Adam step, a conv_block's norm and scale arithmetic and its col2im
scatter, using only correctly rounded IEEE operations:
- no BLAS sum but of small integers, which is exact in any order: the conv
  GEMM sums integer products, and the input-gradient GEMM has one output
  channel, so each of its entries is one product;
- no exp or log, and no pow but of exact powers;
- every other reduction the pinned bytes depend on adds two elements, in an
  order that cannot matter.
So the digests hold on any numpy or BLAS build.
"""

import hashlib

import numpy as np

from satalign.optim import AdamState, ParameterStore, adam_step
from satalign.tape import Tape, backward


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def test_adam_steps_give_the_recorded_bytes():
    params = ParameterStore()
    params.add("w", [[0.5, -1.25, 3.0], [2.0 ** -20, -7.5, 0.1]])
    # betas whose powers are exact, so no libm pow rounding enters
    state = AdamState(lr=1e-3, beta1=0.5, beta2=0.75)
    for g in ([[0.3, -2.0, 1e-7], [4.0, 0.0, -0.7]], [[-0.1, 0.25, 3.0], [1.5, 1e-3, 0.7]],
              [[2.0, -0.5, -1e-4], [0.0, -6.0, 0.2]]):
        adam_step(params, {"w": np.array(g)}, state)
    assert digest(params.get("w"), state.m["w"], state.v["w"]) == (
        "df8f491815a9d71aee63a181d3df48a1aa6a6c23f41caac2fef8f8db5c711c14")


def test_conv_block_norm_scale_and_col2im_give_the_recorded_bytes():
    # 2 tiles of 2 channels, 2x3 pixels; one 2x2 filter, stride 1: a 1x2 output
    # per tile, and the middle input column takes two col2im contributions
    x = np.array([[[[1, -2, 3], [0, 2, -1]], [[2, 1, -3], [1, 0, 2]]],
                  [[[-1, 3, 0], [2, -2, 1]], [[0, -1, 1], [3, 2, -2]]]])
    k = np.array([[[[1, -1], [2, 0]], [[-2, 1], [1, 3]]]])
    tape = Tape()
    xs = tape.leaf("x", x, trainable=True)
    gamma, beta = tape.leaf("gamma", [1.1], True), tape.leaf("beta", [0.7], True)
    block = tape.conv_block(xs, tape.leaf("k", k), gamma, beta)  # kernel frozen
    weights = tape.const([[[[0.7, -1.9]]], [[[2.3, 0.45]]]])  # the block's output gradient
    tape.mark_output("loss", tape.sum(tape.mul(block, weights)))
    grads = backward(tape, "loss")
    assert digest(block.value, *block.batch_stats, block.xhat) == (
        "ebfd3c68a4fb8997d03cec33da52e1b9efe626a233d1c34981a0fe2a872aa43b")
    assert digest(grads["x"], grads["gamma"], grads["beta"]) == (
        "80196c8ea2548fff511321b0c5ae48db38443efb3d15c34717760faca7e2b207")
