"""Transformation solvers: TAT (leaky-ReLU and smooth), DKS, and EOC.

The supporting kit is a bracketed bisection and a damped Newton iteration
with an analytic Jacobian; the smooth transforms take theirs in
Hermite-coefficient space.  Every solver works at the one quadrature order
DEFAULT_QUAD_ORDER and is deterministic given its inputs.
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
    _HERMITE_CAP,
    DEFAULT_QUAD_ORDER,
    LocalMapParams,
    QuadratureRule,
    default_rule,
    lrelu_c_map,
    _hermite_basis,
    _hermite_jet,
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


def bisect(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Root of a monotone f on [lo, hi] with |f(root)| <= tol.

    Stops early once the interval shrinks below 1e-14, and after 200 halvings.
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= tol or hi - lo <= 1e-14:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return mid


def solve_nonlinear_system(F, x0, jac) -> np.ndarray:
    """Root of F: R^n -> R^n with ||F(x)||_inf <= 1e-10.

    Damped Newton with backtracking line search on ||F||_2, for at most 200
    iterations; jac(x) returns the n x n Jacobian.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = np.asarray(F(x), dtype=float)
    for it in range(200):
        if np.max(np.abs(fx)) <= 1e-10:
            return x
        jx = np.asarray(jac(x), dtype=float)
        try:
            step = np.linalg.solve(jx, -fx)
        except np.linalg.LinAlgError:
            step = -np.linalg.lstsq(jx, fx, rcond=None)[0]
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
        "no convergence after 200 iterations "
        f"(||F||_inf = {np.max(np.abs(fx)):.3e})",
        last_iterate=x.copy(), residual=fx.copy(),
    )


# ---------------------------------------------------------------------------
# TAT for leaky ReLUs


def max_c_value(g: NetworkGraph, alpha: float) -> float:
    """Maximal c-value function: largest subnetwork C map value at c = 0."""
    return eval_M(g, lambda c: lrelu_c_map(alpha, c), 0.0)


def solve_tat_lrelu(g: NetworkGraph, eta: float) -> TatLreluSolution:
    """Negative slope alpha with the maximal c-value at 0 equal to eta.

    Bisection on alpha in [0, 1] to |residual| <= 1e-6; the maximal c-value
    is strictly decreasing in alpha and vanishes at alpha = 1.  eta is
    checked before the graph, which eval_M validates when it compiles it.
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

    alpha = bisect(residual, 0.0, 1.0, tol=1e-6)
    return TatLreluSolution(
        alpha=alpha,
        achieved_eta=max_c_value(g, alpha),
        bisection_iterations=iterations,
    )


# ---------------------------------------------------------------------------
# smooth transforms (TAT and DKS) in Hermite-coefficient space


# Newton starts (alpha, beta); TAT adds delta = -phi(beta).  beta = 0 is
# avoided: for an odd base (tanh) the moments are even in beta, so their
# beta derivatives vanish there and the Jacobian is singular.  beta < 0
# first fixes which of tanh's two roots (beta, -beta) is returned.
_STARTS = ((1.0, -0.5), (1.0, 0.5))
# largest deviation of the moments, recomputed by direct quadrature at
# twice the solve's order, that an answer may carry
_CERTIFY_TOL = 1e-9

_N = np.arange(_HERMITE_CAP + 1.0)  # the degrees n >= 0
_STEIN = np.sqrt((_N[:-2] + 1.0) * (_N[:-2] + 2.0))


def _moments(a):
    """Q'(1), C'(1) and C''(1) of gamma (f + delta) from the Hermite
    coefficients a = (a_0, a_1, ...) of f + delta, and their gradients in a
    (a 3 x len(a) array).

    gamma = 1 / |a| gives Q(1) = 1.  With b = gamma a, C'(1) = E[phi'^2] =
    sum n b_n^2, C''(1) = E[phi''^2] = sum n (n-1) b_n^2, and by Stein's
    lemma Q'(1) = E[phi phi' z] = E[phi'^2] + E[phi phi''] = sum n b_n^2 +
    sum sqrt((n+1)(n+2)) b_n b_{n+2}.
    """
    # each moment is a' A a / a' a with A symmetric, so its gradient is
    # 2 (A a - moment a) / a' a; the Stein band of Q'(1) is split over
    # (n, n+2) and (n+2, n)
    s = a @ a
    band = np.zeros_like(a)
    band[:-2] += _STEIN * a[2:]
    band[2:] += _STEIN * a[:-2]
    aa = np.stack([_N * a + 0.5 * band, _N * a, _N * (_N - 1.0) * a])
    values = aa @ a / s
    return values, 2.0 * (aa - values[:, None] * a) / s


def _deviation(phi: TransformedActivation, targets, order) -> float:
    """Largest miss of Q(1) = 1 and of (Q'(1), C'(1)[, C''(1)]) = targets by
    direct quadrature on the nodes of _hermite_basis(order), with C(0) = 0
    (as the mean) when C''(1) is not a target: no series, so both the
    truncation and the quadrature error of the solve show."""
    x, w, _ = _hermite_basis(order)
    f, fp = phi.value(x), phi.deriv1(x)
    last = w @ phi.deriv2(x) ** 2 - targets[2] if len(targets) == 3 else w @ f
    return float(np.max(np.abs([w @ (f * f) - 1.0, w @ (f * fp * x) - targets[0],
                                w @ (fp * fp) - targets[1], last])))


def _solve_transform(base: Activation, free_delta: bool, targets):
    """(phi, deviation): phi = gamma (base(alpha z + beta) + delta) with Q(1)
    = 1 and (Q'(1), C'(1)[, C''(1)]) = targets, and its certified deviation.

    In Hermite-coefficient space gamma = 1 / |a| in closed form (_moments).
    With free_delta (TAT) delta is a third unknown; it shifts a_0, so its
    Jacobian column is e_0.  Otherwise (DKS) delta = -a_0, which gives
    C(0) = 0.  Newton runs with an analytic Jacobian on the kink-split nodes
    of DEFAULT_QUAD_ORDER; _deviation certifies the answer at twice that
    order.  Past _CERTIFY_TOL it is solved once more at the doubled order,
    and SolverFailure is raised if it still misses.
    """
    k = len(targets)
    starts = [(a0, b0, -float(base.value(b0))) if free_delta else (a0, b0)
              for a0, b0 in _STARTS]
    for solve_order in (DEFAULT_QUAD_ORDER, 2 * DEFAULT_QUAD_ORDER):

        def jet(x):
            """Coefficients of base(alpha z + beta) + delta, then their x
            derivatives (d/d delta = e_0), and delta."""
            out = _hermite_jet(base, x[0], x[1], solve_order)
            if free_delta:
                out, delta = np.hstack([out, np.eye(len(out), 1)]), x[2]
            else:
                out[0, 1:], delta = 0.0, -out[0, 0]
            out[0, 0] += delta
            return out, delta

        def residuals(x):
            return _moments(jet(x)[0][:, 0])[0][:k] - targets

        def jacobian(x):
            j = jet(x)[0]
            return _moments(j[:, 0])[1][:k] @ j[:, 1:]

        for x0 in starts:
            try:
                x = solve_nonlinear_system(residuals, x0, jac=jacobian)
                break
            except SolverFailure as err:
                failure = err
        else:
            raise SolverFailure(
                f"moment system unsolved from all starting points: {failure}",
                last_iterate=failure.last_iterate, residual=failure.residual,
            )
        a, delta = jet(x)
        phi = TransformedActivation(
            base=base, alpha=float(x[0]), beta=float(x[1]),
            gamma=float(np.sum(a[:, 0] ** 2) ** -0.5), delta=float(delta),
        )
        deviation = _deviation(phi, targets, 2 * solve_order)
        if deviation <= _CERTIFY_TOL:
            return phi, deviation
        starts = [tuple(x)] + starts
    raise SolverFailure(
        f"transform moments miss their targets by {deviation:.3e} at quadrature "
        f"order {2 * solve_order} (certificate {_CERTIFY_TOL:g}): the "
        "Hermite series does not resolve the transform",
        last_iterate=np.array([phi.alpha, phi.beta, phi.gamma, phi.delta]),
    )


def solve_tat_smooth(g: NetworkGraph, base: Activation, tau: float) -> TatSmoothSolution:
    """Transform parameters enforcing Q(1)=1, Q'(1)=1, C'(1)=1, C''(1)=tau/m.

    m is the linear coefficient of the maximal curvature function, obtained
    by evaluating it at unit local curvature.  _solve_transform solves for
    (alpha, beta, delta); residual_norm is its certified deviation.
    """
    if not base.smooth:
        raise UnsupportedDerivativeError(
            "smooth TAT requires an activation with second derivatives"
        )
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    m = eval_M(g, lambda x: 1.0 + x, 0.0)  # curvature rule with C''(1) = 1
    target = tau / m
    phi, deviation = _solve_transform(base, True, np.array([1.0, 1.0, target]))
    return TatSmoothSolution(
        alpha=phi.alpha, beta=phi.beta, gamma=phi.gamma, delta=phi.delta,
        target_local_cpp1=target, residual_norm=deviation, base=base,
    )


def solve_dks(g: NetworkGraph, base: Activation, zeta: float) -> DksSolution:
    """Transform parameters enforcing Q(1)=1, Q'(1)=1, C(0)=0, C'(1)=m.

    m >= 1 is found by inverting the maximal slope function at zeta.
    _solve_transform solves for (alpha, beta), with delta = -a_0;
    residual_norm is its certified deviation.
    """
    if not base.smooth:
        raise UnsupportedDerivativeError(
            "DKS requires an activation with second derivatives"
        )
    if not zeta > 1.0:
        raise ValueError(f"zeta must exceed 1, got {zeta}")

    def slope_residual(m: float) -> float:
        return eval_M(g, lambda x: m * x, 1.0) - zeta

    m = bisect(slope_residual, 1.0, zeta, tol=1e-12)
    phi, deviation = _solve_transform(base, False, np.array([1.0, m]))
    return DksSolution(
        alpha=phi.alpha, beta=phi.beta, gamma=phi.gamma, delta=phi.delta,
        target_local_cp1=m, residual_norm=deviation, base=base,
    )


# ---------------------------------------------------------------------------
# edge of chaos


# q* beyond this counts as divergence
_Q_MAX = 1e12


def _q_fixed_point(params: LocalMapParams, rule: QuadratureRule) -> float:
    """Fixed point of the q map from q = 1, or inf if none is reached.

    The iteration stops when a step moves q by at most 1e-12 relative to
    max(1, q): an absolute tolerance sits below the rounding floor of a
    large q.  It reports inf when q passes _Q_MAX or after 200 accelerated
    rounds without convergence (tanh takes at most about 20; a softplus
    map near sigma_w = sqrt(2) creeps on for 10^5 steps and more).
    """
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
    q = 1.0
    for _ in range(200):
        q1 = step(q)
        if not math.isfinite(q1) or q1 > _Q_MAX:
            return math.inf
        if abs(q1 - q) <= 1e-12 * max(1.0, q1):
            return q1
        q2 = step(q1)
        if not math.isfinite(q2) or q2 > _Q_MAX:
            return math.inf
        if abs(q2 - q1) <= 1e-12 * max(1.0, q2):
            return q2
        denom = q2 - 2.0 * q1 + q
        q_acc = q - (q1 - q) ** 2 / denom if denom != 0.0 else q2
        q = q_acc if (math.isfinite(q_acc) and q_acc > 0.0) else q2
    return math.inf


def solve_eoc_smooth(base: Activation, sigma_b: float = 0.0) -> EocSolution:
    """sigma_w putting the q fixed point on the edge of chaos: C'(1)=1.

    The fixed point is reached by iteration from q = 1; the outer search
    bisects sigma_w on [1e-3, 10].  At the fixed point Q(q*) = q*, so the slope condition
    reduces to sigma_w^2 E[phi'(sqrt(q*) z)^2] = 1.  An affine base (phi''
    = 0) has no isolated edge: at its sigma_w every q is a fixed point
    (sigma_b = 0) or none is (sigma_b > 0), so it is refused.  So is a
    bisection that closes on a jump instead of a root: softplus has
    E[sigmoid(sqrt(q) z)^2] -> 1/2 from below, so its slope stays under 1
    wherever q* is finite and reaches 1 only as q* diverges.
    """
    if not base.smooth:
        raise UnsupportedDerivativeError("EOC solve only covers smooth activations")
    rule = default_rule()
    if not rule.expect(lambda z: base.deriv2(z) ** 2, kinks=(0.0,)) > 0.0:
        raise UnattainableTargetError(
            "no isolated edge-of-chaos point for an affine activation: where "
            "sigma_w^2 E[phi'^2] = 1 every q is a fixed point (sigma_b = 0) "
            "or none is (sigma_b > 0)"
        )

    def chi(sigma_w: float, q_star: float) -> float:
        if not math.isfinite(q_star):
            return math.inf  # expanding regime, chaotic side
        s = math.sqrt(max(q_star, 1e-12))
        return sigma_w**2 * rule.expect(
            lambda z: base.deriv1(s * z) ** 2, kinks=(0.0,)
        )

    def q_fixed_point(sigma_w: float) -> float:
        params = LocalMapParams(base, sigma_w=sigma_w, sigma_b=sigma_b)
        return _q_fixed_point(params, rule)

    lo, hi = 1e-3, 10.0
    finite_chi = 0.0  # largest slope met at a finite q*

    def residual(sigma_w: float) -> float:
        nonlocal finite_chi
        value = chi(sigma_w, q_fixed_point(sigma_w))
        if math.isinf(value):
            return 1e6
        finite_chi = max(finite_chi, value)
        return value - 1.0

    try:
        sigma_w = bisect(residual, lo, hi, tol=1e-10)
    except BracketError as err:
        raise UnattainableTargetError(
            f"no edge-of-chaos point for sigma_w in [{lo}, {hi}]: {err}"
        ) from err
    q_star = q_fixed_point(sigma_w)
    slope = chi(sigma_w, q_star)
    if not abs(slope - 1.0) <= 1e-8:
        raise UnattainableTargetError(
            f"no edge-of-chaos point: C'(1) stays below 1 while q* is finite "
            f"and q* diverges from sigma_w = {sigma_w:.10g} (largest C'(1) "
            f"met {finite_chi:.10g})",
            max_value=finite_chi,
        )
    return EocSolution(sigma_w=sigma_w, sigma_b=sigma_b, q_fixed_point=q_star)


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
