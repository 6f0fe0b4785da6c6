"""Infinite-depth limit of the rescaled leaky-ReLU C map as an ODE.

The composed map converges, as depth grows with the target c-value at zero
held fixed, to the flow of dx/dt = sqrt(1 - x^2) - x arccos(x).  Fixed-step
classical RK4 gives the flow: the right-hand side is globally Lipschitz on
[-1, 1], and determinism stays trivial.  The time to reach a level is an
integral of 1 / rhs, taken by Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel_maps import _clamp_unit, _leggauss

__all__ = [
    "OdeSolution",
    "ode_rhs",
    "integrate_psi",
    "psi",
    "find_T",
]

# Gauss-Legendre nodes per find_T panel; 20 already reach rounding
_T_NODES = 40
# longest flow time served: the RK4 step grows with T, and the recorded rows
# from 0 miss find_T's time by 8.4e-7 at T = 850, past 1e-6 from T ~ 893
_T_MAX = 850.0


@dataclass(frozen=True)
class OdeSolution:
    c0: float
    T: float
    step_size: float
    times: tuple[float, ...]
    states: tuple[float, ...]

    @property
    def final(self) -> float:
        return self.states[-1]


def ode_rhs(x):
    """sqrt(1 - x^2) - x arccos(x); positive on (-1, 1), zero at 1."""
    x = _clamp_unit(x, "ode_rhs")
    # factored: 1 - x*x loses the digits of 1 - x that find_T needs near x = 1
    out = np.sqrt((1.0 - x) * (1.0 + x)) - x * np.arccos(x)
    return out if out.ndim else float(out)


def _rk4_steps(T: float):
    """(n, h): n = ceil(T / (1e-4 max(T, 1))) steps of h = T / n over [0, T]."""
    n = math.ceil(T / (1e-4 * max(T, 1.0)))
    return n, T / n if n else 0.0


def _rk4_states(x, n: int, h: float):
    """RK4 flow of the limit ODE from x (scalar or array in [-1, 1]): the
    state after each of n steps of h.  No stage is clipped: ode_rhs >= 0
    decreases and is <= (pi / 2) (1 - x), so for h <= 2 / pi, which _T_MAX
    also guarantees, each stage lies in [x, x + h ode_rhs(x)] within [x, 1]
    up to rounding, which ode_rhs's clamp absorbs.
    """
    for _ in range(n):
        k1 = ode_rhs(x)
        k2 = ode_rhs(x + 0.5 * h * k1)
        k3 = ode_rhs(x + 0.5 * h * k2)
        k4 = ode_rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # rounding may push the state a hair past the equilibrium at 1
        x = np.clip(x, -1.0, 1.0)
        yield x


def _checked_start(c0, T: float):
    """c0 clamped to [-1, 1]; DomainError unless |c0| <= 1 and 0 <= T <= _T_MAX."""
    x0 = np.asarray(c0, dtype=float)
    if not np.all(np.abs(x0) <= 1.0 + 1e-12):  # NaN fails too
        raise DomainError(f"|c0| must be <= 1, got {c0}")
    if not 0 <= T <= _T_MAX:  # NaN fails too
        raise DomainError(
            f"T must lie in [0, {_T_MAX:g}], got {T} (past {_T_MAX:g} the RK4 "
            "step 1e-4 T misses the flow by more than 1e-6 in time)"
        )
    return np.clip(x0, -1.0, 1.0)


def psi(c0, T: float):
    """Flow value psi(c0, T); c0 may be an array.  Only the current state is kept."""
    x = _checked_start(c0, T)
    for x in _rk4_states(x, *_rk4_steps(T)):
        pass
    return x if np.ndim(x) else float(x)


def integrate_psi(c0: float, T: float) -> OdeSolution:
    """Integrate from c0 for time T, recording the state every max(1, n //
    1000) of the n steps and at T."""
    c0 = float(_checked_start(c0, T))
    n, h = _rk4_steps(T)
    stride = max(1, n // 1000)
    times, states = [0.0], [c0]
    for i, x in enumerate(_rk4_states(c0, n, h), 1):
        if i % stride == 0:
            times.append(i * h)
            states.append(float(x))
    if n % stride:
        times.append(T)
        states.append(float(x))
    return OdeSolution(c0=c0, T=T, step_size=h, times=tuple(times), states=tuple(states))


def find_T(eta: float) -> float:
    """Time T with psi(0, T) = eta: the integral of dx / ode_rhs(x) over [0, eta].

    In u = (1 - x)^(-1/2) it reads int_1^{u_eta} 2 u^-3 / ode_rhs(1 - u^-2) du,
    whose integrand is smooth and tends to 3 / sqrt(2) as x -> 1.  Gauss-Legendre
    on the doubling panels [1, 2], [2, 4], ..., [., u_eta] reaches rounding: the
    nearest singularity, u = 1/sqrt(2) (x = -1), stays a panel width away.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    gx, gw = _leggauss(_T_NODES)
    # u_eta - 1 without cancellation, so T ~ eta holds to rounding for tiny eta
    width = math.expm1(-0.5 * math.log1p(-eta))
    lo = 2.0 ** np.arange(max(1, math.ceil(math.log2(1.0 + width))))
    hi = np.append(lo[1:], 1.0 + width)
    half = 0.5 * np.append(min(width, 1.0), hi[1:] - lo[1:])
    u = lo[:, None] + half[:, None] * (gx + 1.0)
    return float(np.sum(half[:, None] * gw * 2.0 * u**-3 / ode_rhs(1.0 - u**-2)))
