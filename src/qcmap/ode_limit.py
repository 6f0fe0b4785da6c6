"""Infinite-depth limit of the rescaled leaky-ReLU C map as an ODE.

The composed map converges, as depth grows with the target c-value at zero
held fixed, to the flow of dx/dt = sqrt(1 - x^2) - x arccos(x).  Fixed-step
classical RK4 is enough: the right-hand side is globally Lipschitz on
[-1, 1], and determinism stays trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel_maps import lrelu_c_map
from .netgraph import build_vanilla, eval_U
from .solvers import bisect, solve_tat_lrelu

__all__ = [
    "OdeSolution",
    "DepthDeviation",
    "ode_rhs",
    "integrate_psi",
    "psi",
    "find_T",
    "verify_convergence",
]


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


@dataclass(frozen=True)
class DepthDeviation:
    depth: int
    alpha: float
    max_deviation: float


def ode_rhs(x):
    """sqrt(1 - x^2) - x arccos(x); positive on (-1, 1), zero at 1."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise DomainError(f"ode_rhs: |x| must be <= 1, got {x}")
    x = np.clip(x, -1.0, 1.0)
    out = np.sqrt(1.0 - x * x) - x * np.arccos(x)
    return out if out.ndim else float(out)


def _rk4_states(x0, T: float, record_every: int = 0):
    """RK4 flow of the limit ODE from x0 (scalar or array) over [0, T].

    Returns (final_state, times, states); the trajectory is recorded only
    when record_every > 0 and x0 is scalar.
    """
    if T < 0:
        raise DomainError(f"T must be >= 0, got {T}")
    x = np.clip(np.asarray(x0, dtype=float), -1.0, 1.0)
    if T == 0:
        return x, [0.0], [x]
    h_max = 1e-4 * max(T, 1.0)
    n_steps = max(1, math.ceil(T / h_max))
    h = T / n_steps
    times, states = [0.0], [float(x) if x.ndim == 0 else x.copy()]
    for i in range(n_steps):
        k1 = ode_rhs(x)
        k2 = ode_rhs(np.clip(x + 0.5 * h * k1, -1.0, 1.0))
        k3 = ode_rhs(np.clip(x + 0.5 * h * k2, -1.0, 1.0))
        k4 = ode_rhs(np.clip(x + h * k3, -1.0, 1.0))
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # rounding may push the state a hair past the equilibrium at 1
        x = np.clip(x, -1.0, 1.0)
        if record_every and (i + 1) % record_every == 0:
            times.append((i + 1) * h)
            states.append(float(x) if x.ndim == 0 else x.copy())
    if record_every and not math.isclose(times[-1], T):
        times.append(T)
        states.append(float(x) if x.ndim == 0 else x.copy())
    return x, times, states


def psi(c0, T: float):
    """Flow value psi(c0, T); c0 may be an array."""
    x, _, _ = _rk4_states(c0, T)
    return x if np.ndim(x) else float(x)


def integrate_psi(c0: float, T: float) -> OdeSolution:
    """Integrate from c0 for time T, recording a sampled trajectory."""
    if not abs(c0) <= 1.0 + 1e-12:
        raise DomainError(f"|c0| must be <= 1, got {c0}")
    if not (math.isfinite(T) and T >= 0):
        raise DomainError(f"T must be finite and >= 0, got {T}")
    c0 = min(max(c0, -1.0), 1.0)
    h_max = 1e-4 * max(T, 1.0)
    n_steps = max(1, math.ceil(T / h_max)) if T > 0 else 1
    record_every = max(1, n_steps // 1000)
    x, times, states = _rk4_states(c0, T, record_every=record_every)
    return OdeSolution(
        c0=c0,
        T=T,
        step_size=(T / n_steps) if T > 0 else 0.0,
        times=tuple(times),
        states=tuple(float(s) for s in states),
    )


def _rk4_step(x: float, h: float) -> float:
    k1 = ode_rhs(x)
    k2 = ode_rhs(min(x + 0.5 * h * k1, 1.0))
    k3 = ode_rhs(min(x + 0.5 * h * k2, 1.0))
    k4 = ode_rhs(min(x + h * k3, 1.0))
    return min(x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 1.0)


def find_T(eta: float, tol: float = 1e-8) -> float:
    """Time T with psi(0, T) = eta to within tol, by bisection with bracket doubling.

    A single recorded integration brackets eta between two consecutive RK
    steps; bisection then runs inside that one step, so each trial value
    costs a single RK4 step instead of a fresh integration.  The one-step
    local error (~h^5) is far below the requested tolerance.  Bisection
    stops on the residual psi - eta, which is the time error times
    dpsi/dt = ode_rhs(eta); that slope falls to ~1e-3 at eta = 0.99, so the
    residual tolerance is tol * ode_rhs(eta).
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    t_max = 1.0
    while True:
        final, times, states = _rk4_states(0.0, t_max, record_every=1)
        if float(final) >= eta:
            break
        t_max *= 2.0
        if t_max > 2.0**40:  # pragma: no cover - psi(0, t) -> 1
            raise RuntimeError("failed to bracket eta")
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    k = int(np.searchsorted(states, eta))  # states[k-1] < eta <= states[k]
    t_lo, x_lo = float(times[k - 1]), float(states[k - 1])
    t_hi = float(times[k])
    return bisect(
        lambda t: _rk4_step(x_lo, t - t_lo) - eta, t_lo, t_hi, tol=tol * ode_rhs(eta)
    )


def verify_convergence(
    eta: float,
    depths,
    c_grid,
) -> list[DepthDeviation]:
    """Compare finite-depth composed maps against the ODE limit.

    For each depth, solve the negative slope hitting eta, compose the
    closed-form local map over the grid, and report the max absolute
    deviation from psi(c, T) with psi(0, T) = eta.
    """
    c_grid = np.asarray(c_grid, dtype=float)
    T = find_T(eta)
    limit = psi(c_grid, T)
    out = []
    for depth in depths:
        g = build_vanilla(depth)
        alpha = solve_tat_lrelu(g, eta).alpha
        c = eval_U(g, lambda x: lrelu_c_map(alpha, x), c_grid)
        out.append(
            DepthDeviation(
                depth=depth,
                alpha=alpha,
                max_deviation=float(np.max(np.abs(c - limit))),
            )
        )
    return out
