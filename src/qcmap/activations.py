"""Activation functions, their derivatives, and affine transformations.

All evaluation functions accept scalars or numpy arrays and broadcast
elementwise.  Piecewise-linear activations use the right derivative at the
kink (a measure-zero set, irrelevant to Gaussian expectations) and refuse
second derivatives, which only exist in a distributional sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, UnsupportedDerivativeError

__all__ = [
    "Activation",
    "Identity",
    "ReLU",
    "LReLU",
    "TReLU",
    "Tanh",
    "SoftPlus",
    "TransformedActivation",
    "eval_activation",
    "simulate_relu_via_lrelu",
    "parse_activation",
]


@dataclass(frozen=True)
class Activation:
    """Base class; subclasses implement value/deriv1/deriv2.

    `smooth` marks twice-differentiable kinds; `kinks` lists the points
    where smoothness fails, which quadrature uses to split its domain.
    """

    smooth: ClassVar[bool] = True

    def kinks(self) -> tuple[float, ...]:
        return ()

    def value(self, x):
        raise NotImplementedError

    def deriv1(self, x):
        raise NotImplementedError

    def deriv2(self, x):
        raise NotImplementedError

    def __call__(self, x, order: int = 0):
        return eval_activation(self, x, order)


@dataclass(frozen=True)
class Identity(Activation):
    def value(self, x):
        return np.asarray(x, dtype=float) + 0.0

    def deriv1(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def deriv2(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class LReLU(Activation):
    """scale * (max(x, 0) + alpha * min(x, 0)); scale is 1 except for TReLU."""

    alpha: float = 0.0
    smooth: ClassVar[bool] = False
    scale: ClassVar[float] = 1.0

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise DomainError(f"negative slope must be finite, got {self.alpha}")

    def kinks(self) -> tuple[float, ...]:
        return (0.0,)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * (np.maximum(x, 0.0) + self.alpha * np.minimum(x, 0.0))

    def deriv1(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * np.where(x >= 0.0, 1.0, self.alpha)

    def deriv2(self, x):
        raise UnsupportedDerivativeError(
            "second derivative of a piecewise-linear activation is not defined"
        )


@dataclass(frozen=True)
class ReLU(LReLU):
    alpha: float = 0.0


@dataclass(frozen=True)
class TReLU(LReLU):
    """Leaky ReLU whose scale is sqrt(2 / (1 + alpha^2)), so that Q(q) = q."""

    @property
    def scale(self) -> float:  # type: ignore[override]
        return math.sqrt(2.0 / (1.0 + self.alpha * self.alpha))


@dataclass(frozen=True)
class Tanh(Activation):
    def value(self, x):
        return np.tanh(np.asarray(x, dtype=float))

    def deriv1(self, x):
        t = np.tanh(np.asarray(x, dtype=float))
        return 1.0 - t * t

    def deriv2(self, x):
        t = np.tanh(np.asarray(x, dtype=float))
        return -2.0 * t * (1.0 - t * t)


@dataclass(frozen=True)
class SoftPlus(Activation):
    """ln(1 + e^x), overflow-safe; quadrature nodes reach |x| ~ 10 sigma."""

    def value(self, x):
        return np.logaddexp(0.0, np.asarray(x, dtype=float))

    def deriv1(self, x):
        x = np.asarray(x, dtype=float)
        # sigmoid(x) = exp(-log(1 + e^-x)), stable on both tails
        return np.exp(-np.logaddexp(0.0, -x))

    def deriv2(self, x):
        s = self.deriv1(x)
        return s * (1.0 - s)


@dataclass(frozen=True)
class TransformedActivation(Activation):
    """gamma * (phi(alpha * x + beta) + delta) around a base activation."""

    base: Activation = None
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if self.base is None:
            raise ValueError("TransformedActivation requires a base activation")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def smooth(self) -> bool:  # type: ignore[override]
        return self.base.smooth

    def kinks(self) -> tuple[float, ...]:
        if self.alpha == 0.0:
            return ()
        return tuple(sorted((k - self.beta) / self.alpha for k in self.base.kinks()))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.gamma * (self.base.value(self.alpha * x + self.beta) + self.delta)

    def deriv1(self, x):
        x = np.asarray(x, dtype=float)
        return self.gamma * self.alpha * self.base.deriv1(self.alpha * x + self.beta)

    def deriv2(self, x):
        x = np.asarray(x, dtype=float)
        return (
            self.gamma
            * self.alpha
            * self.alpha
            * self.base.deriv2(self.alpha * x + self.beta)
        )


def eval_activation(a: Activation, x, derivative_order: int = 0):
    """Value of phi, phi' or phi'' at x, broadcasting over arrays."""
    if derivative_order == 0:
        return a.value(x)
    if derivative_order == 1:
        return a.deriv1(x)
    if derivative_order == 2:
        return a.deriv2(x)
    raise UnsupportedDerivativeError(
        f"derivative order {derivative_order} not supported (max 2)"
    )


def simulate_relu_via_lrelu(alpha: float, x):
    """Recover max(x, 0) from two leaky-ReLU evaluations.

    (phi_a(x) + a * phi_a(-x)) / (1 - a^2) is exactly ReLU for a != +-1.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(np.abs(np.abs(alpha) - 1.0) < 1e-15):
        raise DomainError("alpha must differ from +-1")
    x = np.asarray(x, dtype=float)

    def lrelu(v):
        return np.where(v >= 0.0, v, alpha * v)

    out = (lrelu(x) + alpha * lrelu(-x)) / (1.0 - alpha * alpha)
    return out if out.ndim else float(out)


def parse_activation(spec: str) -> Activation:
    """Build an activation from a CLI spec string.

    Accepted forms: "relu", "lrelu:<alpha>", "trelu:<alpha>", "tanh",
    "softplus", "identity".
    """
    name, _, arg = spec.strip().lower().partition(":")
    if name == "relu":
        return ReLU()
    if name == "lrelu":
        return LReLU(alpha=float(arg) if arg else 0.0)
    if name == "trelu":
        alpha = float(arg) if arg else 0.0
        if not 0.0 <= alpha <= 1.0:
            raise DomainError(f"trelu negative slope must be in [0, 1], got {alpha}")
        return TReLU(alpha=alpha)
    if name == "tanh":
        return Tanh()
    if name == "softplus":
        return SoftPlus()
    if name == "identity":
        return Identity()
    raise ValueError(f"unknown activation spec: {spec!r}")
