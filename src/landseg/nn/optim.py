"""Adam and SGD-with-momentum parameter updates."""

from __future__ import annotations

import numpy as np


def adam_step(theta, grad, m, v, t, lr=1e-5, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update; returns (theta, m, v)."""
    if t < 1:
        raise ValueError("Adam step count starts at 1")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape or m.shape != theta.shape or v.shape != theta.shape:
        raise ValueError("parameter/gradient/state shapes must match")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def sgd_momentum_step(theta, grad, velocity, lr=0.05, momentum=0.9):
    """v <- momentum*v + g; theta <- theta - lr*v. Returns (theta, v)."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape or velocity.shape != theta.shape:
        raise ValueError("parameter/gradient/velocity shapes must match")
    velocity = momentum * velocity + grad
    return theta - lr * velocity, velocity


class Adam:
    """Adam over a network's parameter list (in-place updates)."""

    def __init__(self, lr=1e-5, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            new_p, self.m[i], self.v[i] = adam_step(
                p, g, self.m[i], self.v[i], self.t,
                lr=self.lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps,
            )
            p[...] = new_p


class SgdMomentum:
    def __init__(self, lr=0.05, momentum=0.9):
        self.lr = lr
        self.momentum = momentum
        self.velocity = None

    def step(self, params, grads):
        if self.velocity is None:
            self.velocity = [np.zeros_like(p) for p in params]
        for i, (p, g) in enumerate(zip(params, grads)):
            new_p, self.velocity[i] = sgd_momentum_step(
                p, g, self.velocity[i], lr=self.lr, momentum=self.momentum,
            )
            p[...] = new_p
