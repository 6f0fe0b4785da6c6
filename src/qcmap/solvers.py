"""Transformation solvers: TAT (leaky-ReLU and smooth), DKS, and EOC.

The supporting kit is a bracketed bisection and a damped Newton iteration
with finite-difference Jacobian for the three-dimensional moment systems.
All solvers are deterministic given their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import Activation, TransformedActivation
from .errors import (
    BracketError,
    SolverFailure,
    UnattainableTargetError,
    UnsupportedDerivativeError,
)
from .kernel_maps import (
    LocalMapParams,
    QuadratureRule,
    cstats,
    default_rule,
    local_q,
    lrelu_c_map,
)
from .netgraph import NetworkGraph, eval_M

__all__ = [
    "TatLreluSolution",
    "TatSmoothSolution",
    "DksSolution",
    "EocSolution",
    "bisect",
    "solve_nonlinear_system",
    "solve_tat_lrelu",
    "solve_tat_smooth",
    "solve_dks",
    "solve_eoc_smooth",
    "eoc_lrelu",
]


@dataclass(frozen=True)
class TatLreluSolution:
    alpha: float
    achieved_eta: float
    bisection_iterations: int

    def to_dict(self) -> dict:
        return {
            "method": "tat-lrelu",
            "activation": f"trelu:{self.alpha!r}",
            "parameters": {"alpha": self.alpha},
            "targets": {"eta": self.achieved_eta},
            "residuals": {"bisection_iterations": self.bisection_iterations},
        }


@dataclass(frozen=True)
class _TransformSolution:
    """Four transform parameters; subclasses add ``target_<_target>``,
    ``residual_norm`` and ``base``."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    @property
    def activation(self) -> TransformedActivation:
        return TransformedActivation(
            base=self.base, alpha=self.alpha, beta=self.beta,
            gamma=self.gamma, delta=self.delta,
        )

    def to_dict(self) -> dict:
        return {
            "method": self._method,
            "activation": type(self.base).__name__.lower(),
            "parameters": {
                "alpha": self.alpha, "beta": self.beta,
                "gamma": self.gamma, "delta": self.delta,
            },
            "targets": {self._target: getattr(self, f"target_{self._target}")},
            "residuals": {"norm": self.residual_norm},
        }


@dataclass(frozen=True)
class TatSmoothSolution(_TransformSolution):
    _method = "tat-smooth"
    _target = "local_cpp1"

    target_local_cpp1: float
    residual_norm: float
    base: Activation = field(compare=False, default=None)


@dataclass(frozen=True)
class DksSolution(_TransformSolution):
    _method = "dks"
    _target = "local_cp1"

    target_local_cp1: float
    residual_norm: float
    base: Activation = field(compare=False, default=None)


@dataclass(frozen=True)
class EocSolution:
    sigma_w: float
    sigma_b: float
    q_fixed_point: float

    def to_dict(self) -> dict:
        return {
            "method": "eoc",
            "parameters": {"sigma_w": self.sigma_w, "sigma_b": self.sigma_b},
            "targets": {"q_fixed_point": self.q_fixed_point},
            "residuals": {},
        }


# ---------------------------------------------------------------------------
# numerical kit


def bisect(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Root of a monotone f on [lo, hi] with |f(root)| <= tol.

    Stops early once the interval shrinks below 1e-14.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}",
            f_lo=f_lo, f_hi=f_hi,
        )
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= tol or hi - lo <= 1e-14:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return mid


def solve_nonlinear_system(
    F,
    x0,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Root of F: R^n -> R^n with ||F(x)||_inf <= tol.

    Damped Newton with a central finite-difference Jacobian and backtracking
    line search on ||F||_2.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = np.asarray(F(x), dtype=float)
    n = x.size
    trace = []
    for it in range(max_iter):
        norm = np.max(np.abs(fx))
        trace.append((x.copy(), norm))
        if norm <= tol:
            return x
        jac = np.empty((n, n))
        for j in range(n):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            jac[:, j] = (np.asarray(F(xp)) - np.asarray(F(xm))) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            step = -np.linalg.lstsq(jac, fx, rcond=None)[0]
        base = np.linalg.norm(fx)
        t = 1.0
        for _ in range(40):
            x_new = x + t * step
            f_new = np.asarray(F(x_new), dtype=float)
            if np.all(np.isfinite(f_new)) and np.linalg.norm(f_new) < (1 - 1e-4 * t) * base:
                break
            t *= 0.5
        else:
            raise SolverFailure(
                f"line search stalled at iteration {it}",
                last_iterate=x.copy(), residual=fx.copy(),
            )
        x, fx = x_new, f_new
    raise SolverFailure(
        f"no convergence after {max_iter} iterations "
        f"(||F||_inf = {np.max(np.abs(fx)):.3e})",
        last_iterate=x.copy(), residual=fx.copy(),
    )


# ---------------------------------------------------------------------------
# TAT for leaky ReLUs


def max_c_value(g: NetworkGraph, alpha: float) -> float:
    """Maximal c-value function: largest subnetwork C map value at c = 0."""
    return eval_M(g, lambda c: lrelu_c_map(alpha, c), 0.0)


def solve_tat_lrelu(
    g: NetworkGraph,
    eta: float,
    tol: float = 1e-6,
) -> TatLreluSolution:
    """Negative slope alpha with the maximal c-value at 0 equal to eta.

    Bisection on alpha in [0, 1]; the maximal c-value is strictly decreasing
    in alpha and vanishes at alpha = 1.  eta is checked before the graph,
    which eval_M validates when it compiles it.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta}")
    max_eta = max_c_value(g, 0.0)
    if g.nonlinear_count() < 1:
        raise ValueError("graph has no nonlinear node")
    if eta > max_eta:
        raise UnattainableTargetError(
            f"unattainable target; max C_f(0)={max_eta:.10g} < eta={eta}",
            max_value=max_eta,
        )
    iterations = 0

    def residual(alpha: float) -> float:
        nonlocal iterations
        iterations += 1
        return max_c_value(g, alpha) - eta

    alpha = bisect(residual, 0.0, 1.0, tol=tol)
    return TatLreluSolution(
        alpha=alpha,
        achieved_eta=max_c_value(g, alpha),
        bisection_iterations=iterations,
    )


# ---------------------------------------------------------------------------
# shared moment-system machinery for the smooth paths


_MULTI_STARTS = ((1.0, 0.0, 0.0), (1.0, 0.5, None), (1.0, -0.5, None), (0.5, 0.0, 0.0))


def _transformed(base: Activation, a: float, b: float, d: float, rule: QuadratureRule):
    """gamma-normalized transform of base with Q(1) = 1 by construction."""
    second = rule.expect(lambda z: (base.value(a * z + b) + d) ** 2)
    if not second > 0:
        return None
    gamma = second ** -0.5
    return TransformedActivation(base=base, alpha=a, beta=b, gamma=gamma, delta=d)


def _solve_moment_system(base: Activation, residuals, rule: QuadratureRule):
    """Solve for (alpha, beta, delta) from multiple starts; return (x, res_norm)."""
    last_err = None
    for a0, b0, d0 in _MULTI_STARTS:
        if d0 is None:
            d0 = -float(base.value(b0))
        try:
            x = solve_nonlinear_system(residuals, (a0, b0, d0))
        except SolverFailure as err:
            last_err = err
            continue
        res = np.max(np.abs(residuals(x)))
        if res <= 1e-8:
            return x, float(res)
    raise SolverFailure(
        f"moment system unsolved from all starting points: {last_err}",
        last_iterate=getattr(last_err, "last_iterate", None),
        residual=getattr(last_err, "residual", None),
    )


def solve_tat_smooth(
    g: NetworkGraph,
    base: Activation,
    tau: float,
    rule: QuadratureRule | None = None,
) -> TatSmoothSolution:
    """Transform parameters enforcing Q(1)=1, Q'(1)=1, C'(1)=1, C''(1)=tau/m.

    m is the linear coefficient of the maximal curvature function, obtained
    by evaluating it at unit local curvature.
    """
    if not base.smooth:
        raise UnsupportedDerivativeError(
            "smooth TAT requires an activation with second derivatives"
        )
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    rule = rule or default_rule()
    m = eval_M(g, lambda x: 1.0 + x, 0.0)  # curvature rule with C''(1) = 1
    target = tau / m

    def residuals(x):
        a, b, d = x
        phi = _transformed(base, a, b, d, rule)
        if phi is None:
            return np.array([1e6, 1e6, 1e6])
        return np.array([
            rule.expect(lambda z: phi.value(z) * phi.deriv1(z) * z) - 1.0,
            rule.expect(lambda z: phi.deriv1(z) ** 2) - 1.0,
            rule.expect(lambda z: phi.deriv2(z) ** 2) - target,
        ])

    x, res = _solve_moment_system(base, residuals, rule)
    a, b, d = (float(v) for v in x)
    phi = _transformed(base, a, b, d, rule)
    return TatSmoothSolution(
        alpha=a, beta=b, gamma=float(phi.gamma), delta=d,
        target_local_cpp1=target, residual_norm=res, base=base,
    )


def solve_dks(
    g: NetworkGraph,
    base: Activation,
    zeta: float,
    rule: QuadratureRule | None = None,
) -> DksSolution:
    """Transform parameters enforcing Q(1)=1, Q'(1)=1, C(0)=0, C'(1)=m.

    m >= 1 is found by inverting the maximal slope function at zeta.
    """
    if not base.smooth:
        raise UnsupportedDerivativeError(
            "DKS requires an activation with second derivatives"
        )
    if not zeta > 1.0:
        raise ValueError(f"zeta must exceed 1, got {zeta}")
    rule = rule or default_rule()

    def slope_residual(m: float) -> float:
        return eval_M(g, lambda x: m * x, 1.0) - zeta

    m = bisect(slope_residual, 1.0, zeta, tol=1e-12)

    def residuals(x):
        a, b, d = x
        phi = _transformed(base, a, b, d, rule)
        if phi is None:
            return np.array([1e6, 1e6, 1e6])
        return np.array([
            rule.expect(lambda z: phi.value(z) * phi.deriv1(z) * z) - 1.0,
            rule.expect(lambda z: phi.value(z)),
            rule.expect(lambda z: phi.deriv1(z) ** 2) - m,
        ])

    x, res = _solve_moment_system(base, residuals, rule)
    a, b, d = (float(v) for v in x)
    phi = _transformed(base, a, b, d, rule)
    return DksSolution(
        alpha=a, beta=b, gamma=float(phi.gamma), delta=d,
        target_local_cp1=m, residual_norm=res, base=base,
    )


# ---------------------------------------------------------------------------
# edge of chaos


def _q_fixed_point(
    params: LocalMapParams, rule: QuadratureRule, q0: float = 1.0,
    tol: float = 1e-12, max_iter: int = 100000,
) -> float:
    # Split the quadrature domain at the origin: for large q the integrand
    # phi(sqrt(q) z)^2 varies on the scale 1/sqrt(q), which a plain Hermite
    # grid cannot resolve, while panel endpoints clustered at zero can.
    phi = params.activation
    sw2 = params.sigma_w**2
    sb2 = params.sigma_b**2

    def step(q: float) -> float:
        s = math.sqrt(max(q, 1e-300))
        return sw2 * rule.expect(lambda z: phi(s * z) ** 2, kinks=(0.0,)) + sb2

    # Aitken delta-squared acceleration: the plain iteration contracts
    # arbitrarily slowly near criticality, but its limit is unchanged.
    q = q0
    for _ in range(max_iter):
        q1 = step(q)
        if not math.isfinite(q1) or q1 > 1e12:
            return math.inf
        if abs(q1 - q) <= tol:
            return q1
        q2 = step(q1)
        if not math.isfinite(q2) or q2 > 1e12:
            return math.inf
        if abs(q2 - q1) <= tol:
            return q2
        denom = q2 - 2.0 * q1 + q
        q_acc = q - (q1 - q) ** 2 / denom if denom != 0.0 else q2
        q = q_acc if (math.isfinite(q_acc) and q_acc > 0.0) else q2
    return q


def solve_eoc_smooth(
    base: Activation,
    sigma_b: float = 0.0,
    rule: QuadratureRule | None = None,
    sigma_w_range: tuple[float, float] = (1e-3, 10.0),
) -> EocSolution:
    """sigma_w putting the q fixed point on the edge of chaos: C'(1)=1.

    The fixed point is reached by iteration from q = 1; the outer search
    bisects sigma_w.  At the fixed point Q(q*) = q*, so the slope condition
    reduces to sigma_w^2 E[phi'(sqrt(q*) z)^2] = 1.  An affine base (phi''
    = 0) has no isolated edge: at its sigma_w every q is a fixed point
    (sigma_b = 0) or none is (sigma_b > 0), so it is refused.
    """
    if not base.smooth:
        raise UnsupportedDerivativeError("EOC solve only covers smooth activations")
    rule = rule or default_rule()
    if not rule.expect(lambda z: base.deriv2(z) ** 2, kinks=(0.0,)) > 0.0:
        raise UnattainableTargetError(
            "no isolated edge-of-chaos point for an affine activation: where "
            "sigma_w^2 E[phi'^2] = 1 every q is a fixed point (sigma_b = 0) "
            "or none is (sigma_b > 0)"
        )

    def chi(sigma_w: float) -> float:
        params = LocalMapParams(base, sigma_w=sigma_w, sigma_b=sigma_b)
        q_star = _q_fixed_point(params, rule)
        if not math.isfinite(q_star):
            return math.inf  # expanding regime, chaotic side
        q_star = max(q_star, 1e-12)
        s = math.sqrt(q_star)
        return sigma_w**2 * rule.expect(
            lambda z: base.deriv1(s * z) ** 2, kinks=(0.0,)
        )

    lo, hi = sigma_w_range

    def residual(sigma_w: float) -> float:
        value = chi(sigma_w)
        return 1e6 if math.isinf(value) else value - 1.0

    try:
        sigma_w = bisect(residual, lo, hi, tol=1e-10)
    except BracketError as err:
        raise UnattainableTargetError(
            f"no edge-of-chaos point for sigma_w in [{lo}, {hi}]: {err}"
        ) from err
    params = LocalMapParams(base, sigma_w=sigma_w, sigma_b=sigma_b)
    return EocSolution(
        sigma_w=sigma_w, sigma_b=sigma_b, q_fixed_point=_q_fixed_point(params, rule)
    )


def eoc_lrelu(alpha: float = 0.0) -> EocSolution:
    """Edge of chaos for leaky ReLUs needs no solve.

    Scaling the raw leaky ReLU by sigma_w = sqrt(2 / (1 + alpha^2)) yields
    Q(q) = q and C'(1) = 1 directly (the rescaled-ReLU normalization).
    """
    return EocSolution(
        sigma_w=math.sqrt(2.0 / (1.0 + alpha * alpha)),
        sigma_b=0.0,
        q_fixed_point=1.0,
    )
