"""Contrastive losses: per-sample InfoNCE, the symmetric batch loss, and the
three-term objective over image/text/location pairs.

Each loss exists twice: as a plain-numpy function over embedding matrices
(n x d, unit-norm rows, row i of paired matrices from the same sample), the
independent oracle the tests check the tape against, and as a tape builder
for training. Both share the same log-sum-exp layout, so their values agree
to float64 roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tape import Node, Tape


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.07
    image_weight: float = 1.0
    text_weight: float = 1.0
    location_weight: float = 1.0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def _lse_rows(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    return (np.log(np.exp(logits - m).sum(axis=1, keepdims=True)) + m)[:, 0]


def info_nce(z_i: np.ndarray, batch: np.ndarray, i: int, temperature: float) -> float:
    """-log softmax of z_i against the batch, evaluated at its own row i."""
    e = np.asarray(batch, dtype=np.float64)
    if not 0 <= i < e.shape[0]:
        raise ValueError(f"index {i} outside batch of {e.shape[0]}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = (e @ np.asarray(z_i, dtype=np.float64)) / temperature
    m = logits.max()
    lse = float(np.log(np.exp(logits - m).sum()) + m)
    return lse - float(logits[i])


def pairwise_loss(z: np.ndarray, e: np.ndarray, temperature: float) -> float:
    """Symmetric batch loss: mean InfoNCE over both matching directions."""
    zm, em = np.asarray(z, dtype=np.float64), np.asarray(e, dtype=np.float64)
    if zm.shape != em.shape:
        raise ValueError(f"batch shape mismatch: {zm.shape} vs {em.shape}")
    n = zm.shape[0]
    pos = np.sum(zm * em, axis=1) / temperature
    fwd = _lse_rows((zm @ em.T) / temperature) - pos
    bwd = _lse_rows((em @ zm.T) / temperature) - pos
    return float((fwd.sum() + bwd.sum()) / (2.0 * n))


def trimodal_loss(image_t1, image_t2_aug, txt_head, e_txt, loc_head, e_loc,
                  config: LossConfig = LossConfig()) -> tuple[float, dict[str, float]]:
    """Weighted sum of the image, text, and location pair losses."""
    batches = (image_t1, image_t2_aug, txt_head, e_txt, loc_head, e_loc)
    n = len(batches[0])
    if any(len(b) != n for b in batches):
        raise ValueError("all six batches must share the same sample count")
    tau = config.temperature
    terms = {
        "image": config.image_weight * pairwise_loss(image_t1, image_t2_aug, tau),
        "text": config.text_weight * pairwise_loss(txt_head, e_txt, tau),
        "location": config.location_weight * pairwise_loss(loc_head, e_loc, tau),
    }
    return terms["image"] + terms["text"] + terms["location"], terms


# -- tape builders -----------------------------------------------------------


def pairwise_loss_graph(tape: Tape, z: Node, e: Node, temperature: float) -> Node:
    if z.value.shape != e.value.shape:
        raise ValueError(f"batch shape mismatch: {z.value.shape} vs {e.value.shape}")
    n = z.value.shape[0]
    inv_tau = tape.const(1.0 / temperature)
    pos = tape.mul(tape.sum(tape.mul(z, e), axis=1), inv_tau)
    neg_pos = tape.mul(pos, tape.const(-1.0))
    fwd = tape.add(tape.logsumexp(tape.mul(tape.matmul(z, e, trans_b=True), inv_tau), axis=1),
                   neg_pos)
    bwd = tape.add(tape.logsumexp(tape.mul(tape.matmul(e, z, trans_b=True), inv_tau), axis=1),
                   neg_pos)
    total = tape.add(tape.sum(fwd), tape.sum(bwd))
    return tape.mul(total, tape.const(1.0 / (2.0 * n)))


def trimodal_loss_graph(tape: Tape, image_t1: Node, image_t2_aug: Node,
                        txt_head: Node, e_txt: Node, loc_head: Node, e_loc: Node,
                        config: LossConfig = LossConfig()) -> tuple[Node, dict[str, Node]]:
    tau = config.temperature
    terms = {
        "image": tape.mul(tape.const(config.image_weight),
                          pairwise_loss_graph(tape, image_t1, image_t2_aug, tau)),
        "text": tape.mul(tape.const(config.text_weight),
                         pairwise_loss_graph(tape, txt_head, e_txt, tau)),
        "location": tape.mul(tape.const(config.location_weight),
                             pairwise_loss_graph(tape, loc_head, e_loc, tau)),
    }
    total = tape.add(tape.add(terms["image"], terms["text"]), terms["location"])
    return total, terms
