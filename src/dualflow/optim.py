"""AdamW with decoupled weight decay, operating in place on Tensor leaves."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, reset_grads
from .errors import ContractError


def adamw_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
               t: int, lr: float, betas=(0.9, 0.999), eps: float = 1e-8,
               weight_decay: float = 0.0) -> None:
    """One update, in place. ``t`` is the 1-based step count; ``m`` and ``v``
    are the first/second moment buffers. Weight decay is decoupled: applied
    directly to the parameter, not through the gradient."""
    if t < 1:
        raise ContractError("adamw_step: step count t must be >= 1")
    b1, b2 = betas
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    if weight_decay:
        param -= lr * weight_decay * param


class AdamW:
    def __init__(self, params, lr: float = 1e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params: list[Tensor] = list(params)
        if not all(p.requires_grad for p in self.params):
            raise ContractError("AdamW: every parameter must require gradients")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        reset_grads(self.params)

    def step(self) -> None:
        self.t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            adamw_step(p.data, grad, m, v, self.t, self.lr, self.betas,
                       self.eps, self.weight_decay)
