"""Transformation solvers: TAT (leaky-ReLU and smooth), DKS, and EOC.

The supporting kit is a bracketed root finder (bisect: false position
with the Anderson-Bjorck scaling and a halving guard, superlinear on the
smooth residuals here) and a damped Newton iteration with an analytic
Jacobian that gives up once its residual stops halving; the smooth
transforms take theirs in Hermite-coefficient space.  Every solver works at
the one quadrature order DEFAULT_QUAD_ORDER and is deterministic given its
inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .activations import Activation, LReLU, TransformedActivation
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
    lrelu_c_map,
    _hermite_jet,
    _piecewise_1d,
)
from .netgraph import NetworkGraph, build_vanilla, eval_M, eval_U
from .ode_limit import find_T, psi

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
    "DepthDeviation",
    "verify_convergence",
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
    """deviation is the certified miss of a smooth solve; a closed form
    (leaky ReLU) has none."""

    sigma_w: float
    sigma_b: float
    q_fixed_point: float
    deviation: float | None = None

    def to_dict(self) -> dict:
        return {
            "method": "eoc",
            "parameters": {"sigma_w": self.sigma_w, "sigma_b": self.sigma_b},
            "targets": {"q_fixed_point": self.q_fixed_point},
            "residuals": {} if self.deviation is None else {"deviation": self.deviation},
        }


# ---------------------------------------------------------------------------
# numerical kit


def bisect(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Root of a monotone f on [lo, hi] with |f(root)| <= tol.

    An endpoint with |f| <= tol is returned as it is, even without a sign
    change.  Inside the bracket each step is false position with the
    Anderson-Bjorck scaling of the end kept twice (Illinois' 1/2 when that
    factor is not positive), which converges superlinearly; a halving step
    follows whenever three steps in a row have not halved the bracket.
    Stops once the bracket is narrower than 1e-14, and after 200 steps.
    """
    f_lo, f_hi = f(lo), f(hi)
    if abs(f_lo) <= tol:
        return lo
    if abs(f_hi) <= tol:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}",
            f_lo=f_lo, f_hi=f_hi,
        )
    # b is the newest point (lo at the start) and a the bracket's other end,
    # whose value the scaling shrinks; best is the point of least |f|
    a, f_a, b, f_b = hi, f_hi, lo, f_lo
    best = min((abs(f_lo), lo), (abs(f_hi), hi))
    slow = 0  # steps in a row that have not halved the bracket
    for _ in range(200):
        left, right = min(a, b), max(a, b)
        c = b - f_b * (b - a) / (f_b - f_a)
        if slow >= 3 or math.isnan(c):  # NaN: an end value is infinite
            c = 0.5 * (a + b)
        # a point closer to an end than half the stopping width moves in, so
        # next to a root that |f| <= tol cannot resolve the bracket closes
        c = min(max(c, left + 5e-15), right - 5e-15)
        f_c = f(c)
        if abs(f_c) <= tol:
            return c
        best = min(best, (abs(f_c), c))
        if math.copysign(1.0, f_c) == math.copysign(1.0, f_b):
            m = 1.0 - f_c / f_b
            f_a *= m if m > 0.0 else 0.5
        else:
            a, f_a = b, f_b
        b, f_b = c, f_c
        if abs(b - a) <= 1e-14:
            break
        slow = slow + 1 if abs(b - a) > 0.5 * (right - left) else 0
    return best[1]


# Newton iterations over which ||F||_inf must halve
_STALL = 5


def solve_nonlinear_system(F, x0, jac) -> np.ndarray:
    """Root of F: R^n -> R^n with ||F(x)||_inf <= 1e-10.

    Damped Newton with backtracking line search on ||F||_2, for at most 200
    iterations; jac(x) returns the n x n Jacobian.  SolverFailure is raised
    when the line search stalls, or once ||F||_inf has not halved over
    _STALL iterations (every certified transform of the benchmark's solve
    decks and of tier-1 halves it within 4).
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = np.asarray(F(x), dtype=float)
    norms = []  # ||F||_inf at each iterate
    for it in range(200):
        norms.append(np.max(np.abs(fx)))
        if norms[-1] <= 1e-10:
            return x
        if it >= _STALL and norms[-1] > 0.5 * norms[-1 - _STALL]:
            raise SolverFailure(
                f"||F||_inf = {norms[-1]:.3e} at iteration {it} has not halved "
                f"in {_STALL} iterations",
                last_iterate=x.copy(), residual=fx.copy(),
            )
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


def _depth_limit_slope(m: float, eta: float) -> float:
    """The slope alpha0 that the depth limit predicts for eta.

    A graph whose maximal curvature function has the linear coefficient m
    composes about m local maps c + coef (sqrt(1 - c^2) - c arccos(c)),
    so C_f(0) ~ psi(0, m coef) and coef(alpha0) = T(eta) / m, with coef =
    (1 - alpha)^2 / (pi (1 + alpha^2)).  With s = 1 - pi T(eta) / m that
    is s alpha^2 - 2 alpha + s = 0, whose root in [0, 1] is s / (1 +
    sqrt(1 - s^2)); a target the limit cannot reach (s <= 0) gives 0.
    """
    k = math.pi * find_T(eta)
    s = 1.0 - k / m if m > k else 0.0
    return s / (1.0 + math.sqrt((1.0 - s) * (1.0 + s)))


# half-width of the first bracket around the depth-limit slope; every
# BracketError widens it fourfold
_ALPHA_HALF_WIDTH = 0.02


def solve_tat_lrelu(g: NetworkGraph, eta: float) -> TatLreluSolution:
    """Negative slope alpha with the maximal c-value at 0 equal to eta.

    bisect to |residual| <= 1e-6 on a bracket of half-width 0.02 around the
    depth-limit slope (_depth_limit_slope, from the curvature pass
    eval_M(g, 1 + x, 0)); the maximal c-value is strictly decreasing in
    alpha and vanishes at alpha = 1.  A bracket without a sign change is
    widened fourfold on the side of the root, keeping its end on the other
    side, within [0, 1].  Once it reaches alpha = 0 with C_f(0) < eta the
    target is unattainable.  bisection_iterations counts the alphas
    evaluated, one eval_M pass each: the reported eta is the pass at the
    answer.  eta is checked before the graph, which eval_M validates when
    it compiles it.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta}")
    m = eval_M(g, lambda x: 1.0 + x, 0.0)
    if g.nonlinear_count() < 1:
        raise ValueError("graph has no nonlinear node")
    iterations = 0

    @functools.cache
    def value(alpha: float) -> float:
        nonlocal iterations
        iterations += 1
        return max_c_value(g, alpha)

    alpha0 = _depth_limit_slope(m, eta)
    half = _ALPHA_HALF_WIDTH
    lo, hi = max(0.0, alpha0 - half), min(1.0, alpha0 + half)
    while True:
        if lo == 0.0 and (reach := value(0.0)) < eta:
            raise UnattainableTargetError(
                f"unattainable target; max C_f(0)={reach:.10g} < eta={eta}",
                max_value=reach,
            )
        try:
            alpha = bisect(lambda a: value(a) - eta, lo, hi, tol=1e-6)
            break
        except BracketError as err:
            half *= 4.0
            if err.f_lo < 0.0:  # C_f(0) < eta at both ends: the root is below
                lo, hi = max(0.0, alpha0 - half), lo
            else:
                lo, hi = hi, min(1.0, alpha0 + half)
    return TatLreluSolution(
        alpha=alpha,
        achieved_eta=value(alpha),
        bisection_iterations=iterations,
    )


@dataclass(frozen=True)
class DepthDeviation:
    depth: int
    alpha: float
    max_deviation: float


def verify_convergence(eta: float, depths, c_grid) -> list[DepthDeviation]:
    """Compare finite-depth composed maps against the ODE limit.

    For each depth, solve the negative slope hitting eta, compose the
    closed-form local map over the grid, and report the max absolute
    deviation from psi(c, T) with psi(0, T) = eta.
    """
    c_grid = np.asarray(c_grid, dtype=float)
    limit = psi(c_grid, find_T(eta))
    out = []
    for depth in depths:
        g = build_vanilla(depth)
        alpha = solve_tat_lrelu(g, eta).alpha
        c = eval_U(g, lambda x: lrelu_c_map(alpha, x), c_grid)
        out.append(DepthDeviation(depth=depth, alpha=alpha,
                                  max_deviation=float(np.max(np.abs(c - limit)))))
    return out


# ---------------------------------------------------------------------------
# smooth transforms (TAT and DKS) in Hermite-coefficient space


# Newton start (alpha, beta); TAT adds delta = -phi(beta).  beta = 0 is
# avoided: for an odd base (tanh) the moments are even in beta, so their
# beta derivatives vanish there and the Jacobian is singular.  beta < 0
# fixes which of tanh's two roots (beta, -beta) is returned.
_START = (1.0, -0.5)
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


def _certify(misses, subject: str, detail: str, last_iterate) -> float:
    """The certificate TAT, DKS and EOC share: misses(x, w), an answer's
    largest miss on the kink-split nodes of twice DEFAULT_QUAD_ORDER, is its
    deviation; past _CERTIFY_TOL SolverFailure is raised."""
    order = 2 * DEFAULT_QUAD_ORDER
    deviation = float(misses(*_piecewise_1d((0.0,), order)))
    if not deviation <= _CERTIFY_TOL:
        raise SolverFailure(
            f"{subject} by {deviation:.3e} at quadrature order {order} "
            f"(certificate {_CERTIFY_TOL:g}){detail}",
            last_iterate=np.array(last_iterate),
        )
    return deviation


def _solve_transform(base: Activation, free_delta: bool, targets):
    """(phi, deviation): phi = gamma (base(alpha z + beta) + delta) with Q(1)
    = 1 and (Q'(1), C'(1)[, C''(1)]) = targets, and its certified deviation.

    In Hermite-coefficient space gamma = 1 / |a| in closed form (_moments).
    With free_delta (TAT) delta is a third unknown; it shifts a_0, so its
    Jacobian column is e_0.  Otherwise (DKS) delta = -a_0, which gives
    C(0) = 0.  Newton runs once, from _START, with an analytic Jacobian on
    the kink-split nodes of DEFAULT_QUAD_ORDER; _certify certifies the
    answer at twice that order.  SolverFailure is raised when Newton fails
    or the deviation exceeds _CERTIFY_TOL.
    """
    k = len(targets)

    latest = [None, None]  # the bytes of the latest x, and evaluate(x)

    def evaluate(x):
        """Coefficients of base(alpha z + beta) + delta, then their x
        derivatives (d/d delta = e_0); delta; and _moments of the
        coefficients.  Computed once per distinct x: Newton asks for the
        Jacobian at the iterate whose residuals it has just accepted, and
        returns such an iterate."""
        key = x.tobytes()
        if latest[0] != key:
            out = _hermite_jet(base, x[0], x[1], DEFAULT_QUAD_ORDER)
            if free_delta:
                out, delta = np.hstack([out, np.eye(len(out), 1)]), x[2]
            else:
                out[0, 1:], delta = 0.0, -out[0, 0]
            out[0, 0] += delta
            latest[:] = key, (out, delta, _moments(out[:, 0]))
        return latest[1]

    def residuals(x):
        return evaluate(x)[2][0][:k] - targets

    def jacobian(x):
        j, _, (_, grads) = evaluate(x)
        return grads[:k] @ j[:, 1:]

    x0 = _START + (-float(base.value(_START[1])),) if free_delta else _START
    try:
        x = solve_nonlinear_system(residuals, x0, jac=jacobian)
    except SolverFailure as err:
        raise SolverFailure(
            f"moment system unsolved from {x0}: {err}",
            last_iterate=err.last_iterate, residual=err.residual,
        ) from err
    a, delta, _ = evaluate(x)
    phi = TransformedActivation(
        base=base, alpha=float(x[0]), beta=float(x[1]),
        gamma=float(np.sum(a[:, 0] ** 2) ** -0.5), delta=float(delta),
    )

    def misses(x, w):
        # Q(1) = 1, (Q'(1), C'(1)[, C''(1)]) = targets and, without C''(1),
        # C(0) = 0 as the mean: no series, so truncation and quadrature show
        f, fp = phi.value(x), phi.deriv1(x)
        last = w @ phi.deriv2(x) ** 2 - targets[2] if k == 3 else w @ f
        return np.max(np.abs([w @ (f * f) - 1.0, w @ (f * fp * x) - targets[0],
                              w @ (fp * fp) - targets[1], last]))

    deviation = _certify(misses, "transform moments miss their targets",
                         ": the Hermite series does not resolve the transform",
                         [phi.alpha, phi.beta, phi.gamma, phi.delta])
    return phi, deviation


def solve_tat_smooth(g: NetworkGraph, base: Activation, tau: float) -> TatSmoothSolution:
    """Transform parameters enforcing Q(1)=1, Q'(1)=1, C'(1)=1, C''(1)=tau/m.

    m is the linear coefficient of the maximal curvature function, obtained
    by evaluating it at unit local curvature.  _solve_transform solves for
    (alpha, beta, delta) once, at DEFAULT_QUAD_ORDER, and certifies the
    answer at twice that order or raises SolverFailure; residual_norm is
    the certified deviation.
    """
    if not base.smooth:
        raise UnsupportedDerivativeError(
            "smooth TAT requires an activation with second derivatives"
        )
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    m = eval_M(g, lambda x: 1.0 + x, 0.0)  # curvature rule with C''(1) = 1
    if g.nonlinear_count() < 1:
        raise ValueError("graph has no nonlinear node")
    target = tau / m
    phi, deviation = _solve_transform(base, True, np.array([1.0, 1.0, target]))
    return TatSmoothSolution(
        alpha=phi.alpha, beta=phi.beta, gamma=phi.gamma, delta=phi.delta,
        target_local_cpp1=target, residual_norm=deviation, base=base,
    )


def solve_dks(g: NetworkGraph, base: Activation, zeta: float) -> DksSolution:
    """Transform parameters enforcing Q(1)=1, Q'(1)=1, C(0)=0, C'(1)=m.

    m >= 1 inverts the maximal slope function M(m) = eval_M(g, m x, 1) at
    zeta: with m = e^u, bisect finds the root of log M - log zeta on [0, log
    zeta], which is linear in u on a vanilla chain (M = m^L).  It is
    computed as log1p((M - zeta) / zeta) with tolerance 1e-12 / zeta, and
    d log M / du is at most L, the nonlinear-node count, so |M - zeta| <=
    max(1e-12, 1e-14 L zeta) to first order: the tolerance where float
    spacing allows it, else bisect's 1e-14 width stop in u (one ulp of m
    moves M by about L zeta 1.1e-16).  Without a sign change m = zeta
    answers if its residual meets the tolerance (the bracket's top end
    exp(log zeta) may be an ulp off zeta); else the BracketError carries M -
    zeta at m = 1 and at m = zeta.
    _solve_transform solves for (alpha, beta), with delta = -a_0, once, at
    DEFAULT_QUAD_ORDER, and certifies the answer at twice that order or
    raises SolverFailure; residual_norm is the certified deviation.
    """
    if not base.smooth:
        raise UnsupportedDerivativeError(
            "DKS requires an activation with second derivatives"
        )
    if not zeta > 1.0:
        raise ValueError(f"zeta must exceed 1, got {zeta}")

    def slope(m: float) -> float:
        return eval_M(g, lambda x: m * x, 1.0)

    tol = 1e-12 / zeta
    try:
        m = math.exp(bisect(lambda u: math.log1p((slope(math.exp(u)) - zeta) / zeta),
                            0.0, math.log(zeta), tol=tol))
    except BracketError as err:
        f_lo, f_hi = slope(1.0) - zeta, slope(zeta) - zeta
        # exp(log zeta) may be an ulp off zeta, enough to move the top end's
        # residual past the tolerance
        if not abs(math.log1p(f_hi / zeta)) <= tol:
            raise BracketError(
                f"global slope minus zeta has no sign change for m in [1, {zeta}]: "
                f"{f_lo} at m = 1, {f_hi} at m = zeta", f_lo=f_lo, f_hi=f_hi,
            ) from err
        m = zeta
    phi, deviation = _solve_transform(base, False, np.array([1.0, m]))
    return DksSolution(
        alpha=phi.alpha, beta=phi.beta, gamma=phi.gamma, delta=phi.delta,
        target_local_cp1=m, residual_norm=deviation, base=base,
    )


# ---------------------------------------------------------------------------
# edge of chaos


# q* - sigma_b^2 is searched on [1e-12, 1e4], a decade at a time
_EOC_SPAN = (1e-12, 1e4)


def solve_eoc_smooth(base: Activation, sigma_b: float = 0.0) -> EocSolution:
    """sigma_w putting the q fixed point on the edge of chaos: C'(1)=1.

    With A(q) = E[phi(sqrt(q) z)^2] and B(q) = E[phi'(sqrt(q) z)^2], q is a
    fixed point exactly at sigma_w^2 = (q - sigma_b^2) / A(q), where C'(1)
    = sigma_w^2 B(q).  So the edge is the root of r(u) = e^u B(q) / A(q) - 1
    with q = sigma_b^2 + e^u, found by bisect on the kink-split nodes of
    DEFAULT_QUAD_ORDER in the first decade of _EOC_SPAN where r reaches 0.
    At sigma_b = 0 (tanh) r -> 0 from above as q* -> 0, and the span's lower
    end is returned.  Both conditions are recomputed at twice the order; the
    larger miss is the solution's deviation, and a miss past _CERTIFY_TOL
    raises SolverFailure (tanh from sigma_b ~ 3.55).

    An affine base (phi'' = 0) has no isolated edge: at its sigma_w every q
    is a fixed point (sigma_b = 0) or none is (sigma_b > 0), so it is
    refused.  So is an r that stays negative: softplus has
    E[sigmoid(sqrt(q) z)^2] -> 1/2 from below, so C'(1) reaches 1 only as q*
    diverges; max_value is C'(1) at the top of _EOC_SPAN.
    """
    if not base.smooth:
        raise UnsupportedDerivativeError("EOC solve only covers smooth activations")
    x, w = _piecewise_1d((0.0,), DEFAULT_QUAD_ORDER)
    if not w @ base.deriv2(x) ** 2 > 0.0:
        raise UnattainableTargetError(
            "no isolated edge-of-chaos point for an affine activation: where "
            "sigma_w^2 E[phi'^2] = 1 every q is a fixed point (sigma_b = 0) "
            "or none is (sigma_b > 0)"
        )
    LocalMapParams(base, sigma_b=sigma_b)  # refuses a negative or non-finite sigma_b
    sb2 = sigma_b * sigma_b

    def moments(u: float, x, w):
        """(q, A(q), B(q)) at q = sigma_b^2 + e^u; a phi^2 past the float
        range (softplus at sigma_b ~ 1e154) gives A = inf and r = -1."""
        q = sb2 + math.exp(u)
        y = math.sqrt(q) * x
        with np.errstate(over="ignore"):
            return q, w @ base.value(y) ** 2, w @ base.deriv1(y) ** 2

    # once per u: bisect reuses the decade ends the scan computed, and the
    # answer its last residual
    solve_moments = functools.cache(lambda u: moments(u, x, w))

    def residual(u: float) -> float:
        _, a, b = solve_moments(u)
        return math.exp(u) * b / a - 1.0

    # past the root the nodes may stop resolving phi'(sqrt(q) z)^2, and r
    # can turn negative again there (tanh(10 z) near q = 1e4)
    ends = np.log(np.geomspace(*_EOC_SPAN, 17))
    for lo, hi in zip(ends[:-1], ends[1:]):
        if residual(hi) >= -1e-10:
            break
    try:
        u = bisect(residual, lo, hi, tol=1e-10)
    except BracketError as err:
        raise UnattainableTargetError(
            f"no edge-of-chaos point for q* - sigma_b^2 in {list(_EOC_SPAN)}: C'(1) "
            f"at the fixed point does not cross 1 ({1.0 + err.f_hi:.10g} at "
            f"{math.exp(hi):.3g}), so the edge lies where q* diverges or nears sigma_b^2",
            max_value=1.0 + err.f_hi,
        ) from err
    q_star, a, _ = solve_moments(u)
    sw2 = math.exp(u) / a

    def misses(x, w):
        _, a2, b2 = moments(u, x, w)
        return max(abs(sw2 * b2 - 1.0), abs(sw2 * a2 + sb2 - q_star) / max(1.0, q_star))

    deviation = _certify(misses, "edge-of-chaos conditions miss",
                         f" at q* = {q_star:.10g}: the nodes do not resolve "
                         "phi'(sqrt(q*) z)^2", [math.sqrt(sw2), q_star])
    return EocSolution(sigma_w=math.sqrt(sw2), sigma_b=sigma_b, q_fixed_point=q_star,
                       deviation=deviation)


def eoc_lrelu(phi: LReLU = LReLU(), sigma_b: float = 0.0) -> EocSolution:
    """Edge of chaos for leaky ReLUs needs no solve.

    sigma_w = sqrt(2 / (1 + alpha^2)) / phi.scale yields Q(q) = q and C'(1)
    = 1 (TReLU's scale is that factor, so its sigma_w is 1).  sigma_b > 0 is
    refused as for an affine activation: Q(q) = q + sigma_b^2 at the edge.
    """
    LocalMapParams(phi, sigma_b=sigma_b)  # refuses a negative or non-finite sigma_b
    if sigma_b > 0:
        raise UnattainableTargetError(
            "no edge-of-chaos point for a leaky ReLU with sigma_b > 0: C'(1) does not "
            "depend on q, and where it is 1 the q map q + sigma_b^2 has no fixed point")
    sigma_w = math.sqrt(2.0 / (1.0 + phi.alpha * phi.alpha)) / phi.scale
    return EocSolution(sigma_w=sigma_w, sigma_b=0.0, q_fixed_point=1.0)
