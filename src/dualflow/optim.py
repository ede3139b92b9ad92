"""Adam (AdamW with no weight decay), operating in place on Tensor leaves."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, reset_grads
from .errors import ContractError

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class AdamW:
    def __init__(self, params, lr: float = 1e-4):
        self.params: list[Tensor] = list(params)
        if not all(p.requires_grad for p in self.params):
            raise ContractError("AdamW: every parameter must require gradients")
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        reset_grads(self.params)

    def step(self) -> None:
        """One update of every parameter in place; a parameter without a
        gradient is updated as if its gradient were zero."""
        self.t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            m_hat = m / (1.0 - BETA1 ** self.t)
            v_hat = v / (1.0 - BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
