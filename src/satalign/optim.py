"""Named parameter storage and the Adam optimizer."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


class ParameterStore:
    """Map of unique parameter names to float64 tensors.

    Shapes are fixed at registration; `set` replaces values but never shapes.
    """

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> None:
        if name in self._values:
            raise ValueError(f"duplicate parameter name {name!r}")
        value = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite values in parameter {name!r}")
        self._values[name] = value

    def get(self, name: str) -> np.ndarray:
        if name not in self._values:
            raise KeyError(f"unknown parameter {name!r}")
        return self._values[name]

    def set(self, name: str, value) -> None:
        old = self.get(name)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != old.shape:
            raise ValueError(f"parameter {name!r} has shape {old.shape}, refusing {value.shape}")
        self._values[name] = value

    def names(self) -> list[str]:
        return list(self._values)

    def items(self):
        return self._values.items()

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._values.items()}

    def blob_hash(self) -> str:
        """SHA-256 over all tensors in name order; detects any bit-level change."""
        h = hashlib.sha256()
        for name in sorted(self._values):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self._values[name]).tobytes())
        return h.hexdigest()


@dataclass
class AdamState:
    """Adam moments and step counter for one parameter set."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not (0 < self.lr < math.inf and 0 <= self.beta1 < 1 and 0 <= self.beta2 < 1
                and 0 < self.eps < math.inf):
            raise ValueError("invalid Adam hyperparameters")
        if self.t < 0:
            raise ValueError("Adam step counter must be >= 0")


def adam_step(params: ParameterStore, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, applied in place to `params`.

    Only the named gradients are touched; each must belong to a parameter of
    matching shape and be finite, or nothing is updated. Parameters without a
    gradient entry are left bit-identical.
    """
    for name in grads:
        if name not in params:
            raise ValueError(f"gradient for unknown parameter {name!r}")
        g = np.asarray(grads[name])
        if g.shape != params.get(name).shape:
            raise ValueError(f"gradient shape mismatch for {name!r}: "
                             f"{g.shape} vs {params.get(name).shape}")
        if not np.isfinite(g).all():
            raise RuntimeError(f"non-finite gradient for {name!r} at step {state.t + 1}")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name in sorted(grads):
        g = np.asarray(grads[name], dtype=np.float64)
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m, v = state.m[name], state.v[name]
        # in place, through one scratch buffer, with the operations of
        #   m = beta1 * m + (1 - beta1) * g
        #   v = beta2 * v + (1 - beta2) * g * g
        #   p = p - lr * (m / bc1) / (sqrt(v / bc2) + eps)
        scratch, update = np.empty_like(g), np.empty_like(g)  # update: the new value
        np.multiply(g, 1.0 - state.beta1, out=scratch)
        m *= state.beta1
        m += scratch
        np.multiply(g, 1.0 - state.beta2, out=scratch)
        scratch *= g
        v *= state.beta2
        v += scratch
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.eps
        np.divide(m, bc1, out=update)
        update *= state.lr
        update /= scratch
        params.set(name, np.subtract(params.get(name), update, out=update))
