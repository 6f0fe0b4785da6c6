"""Local and global Q/C maps.

`kernel_map` is the one constructor of local C maps for callers: the
leaky-ReLU family in closed form (the arc-cosine kernel), smooth
activations as their Hermite dual-activation series, and anything else
(kinked transformed activations) by quadrature.  The quadrature functions
(`local_q`, `local_c`, `local_c_derivative`, `cstats`) integrate against
the standard Gaussian density with a composite Gauss-Legendre scheme split
at the kink locations, since Gauss-Hermite converges only polynomially on
non-smooth integrands; they stay pure quadrature, so tests can use them as
an oracle independent of the closed forms.  The 2-D expectations use the
substitution z2' = c z1 + sqrt(1 - c^2) z2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .activations import Activation, LReLU
from .errors import DomainError, UnsupportedDerivativeError
from .netgraph import NetworkGraph, eval_U

__all__ = [
    "QuadratureRule",
    "LocalMapParams",
    "CStats",
    "KernelMap",
    "default_rule",
    "kernel_map",
    "lrelu_c_map",
    "lrelu_c_map_derivative",
    "local_q",
    "local_c",
    "local_c_derivative",
    "global_c",
    "cstats",
]

DEFAULT_QUAD_ORDER = 60

# Gaussian tails beyond this are ~1e-31 even against quadratic growth
_TRUNC = 12.0
# one panel per side of a split point is enough: Gauss-Legendre nodes
# cluster quadratically at panel edges, which is exactly where the
# integrands concentrate (activation kinks and the origin)
_MAX_PANEL_WIDTH = 12.0
# highest Hermite degree kept: the default 60-point panels resolve the
# coefficients to ~1e-13 up to degree ~150-165 (tanh and softplus at input
# scales up to 3, against 240-point panels); what remains is reported
_HERMITE_CAP = 150
# the series stops once the mass the remaining terms up to the cap could
# still add falls below this fraction of E[phi^2]; the dropped terms then
# move the map by at most this much (Cauchy-Schwarz)
_HERMITE_RTOL = 1e-14


@lru_cache(maxsize=32)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gauss_density(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _segment_nodes(lo, hi, order: int, n_panels: int):
    """Composite Gauss-Legendre nodes/weights (Gaussian density folded in).

    lo/hi broadcast; returns arrays of shape broadcast(lo, hi) + (n_panels * order,).
    """
    gx, gw = _leggauss(order)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    frac = np.linspace(0.0, 1.0, n_panels + 1)
    edges = lo[..., None] + (hi - lo)[..., None] * frac
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + half * gx
    w = half * gw * _gauss_density(x)
    out_shape = x.shape[:-2] + (n_panels * order,)
    return x.reshape(out_shape), w.reshape(out_shape)


@lru_cache(maxsize=256)
def _piecewise_1d(kinks, order: int):
    """1-D nodes/weights on [-T, T] split at the kinks."""
    pts = [-_TRUNC]
    pts += sorted(k for k in kinks if -_TRUNC < k < _TRUNC)
    pts.append(_TRUNC)
    xs, ws = [], []
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi <= lo:
            continue
        n_panels = max(1, math.ceil((hi - lo) / _MAX_PANEL_WIDTH))
        x, w = _segment_nodes(lo, hi, order, n_panels)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights integrating f against the standard normal density.

    The stored rule is Gauss-Hermite (probabilists' weighting).  `expect`
    takes optional kink locations and switches to the kink-split composite
    scheme of matching order when any are given; `expect2` always uses that
    composite scheme, split at whatever kinks it is given.
    """

    order: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    @classmethod
    @lru_cache(maxsize=8)
    def gauss_hermite(cls, order: int) -> "QuadratureRule":
        # built once per order (a hermegauss eigen-solve) and shared: frozen
        if order < 1:
            raise ValueError(f"quadrature order must be >= 1, got {order}")
        # hermegauss weights sum to sqrt(2*pi)
        nodes, weights = np.polynomial.hermite_e.hermegauss(order)
        weights = weights / math.sqrt(2.0 * math.pi)
        return cls(order, tuple(nodes), tuple(weights))

    def expect(self, f, kinks=()) -> float:
        """E[f(z)] for z ~ N(0, 1); split the domain at any kinks of f."""
        if kinks:
            x, w = _piecewise_1d(tuple(kinks), self.order)
        else:
            x, w = np.asarray(self.nodes), np.asarray(self.weights)
        return float(np.dot(w, f(x)))

    def expect2(self, f, c, kinks1=(), kinks2=()):
        """E[f(z1, z2')] with corr(z1, z2') = c, broadcasting over c.

        kinks1/kinks2 are the non-smooth points of f in its first/second
        argument.  c may be a scalar or 1-D array.
        """
        c_arr = np.atleast_1d(_clamp_unit(c, "expect2"))
        out = np.empty(c_arr.shape)
        degenerate = 1.0 - c_arr * c_arr < 1e-13
        for i in np.flatnonzero(degenerate):
            out[i] = self._expect2_degenerate(f, float(c_arr[i]), kinks1, kinks2)
        idx = np.flatnonzero(~degenerate)
        # chunked so the (c, outer-node, inner-node) arrays stay small
        for start in range(0, idx.size, 8):
            chunk = idx[start:start + 8]
            out[chunk] = self._expect2_split_chunk(f, c_arr[chunk], kinks1, kinks2)
        return out if np.ndim(c) else float(out[0])

    def _expect2_degenerate(self, f, cval: float, kinks1, kinks2) -> float:
        """|c| = 1 to within 1e-13: z2' = sign(c) z1, a 1-D expectation."""
        sign = 1.0 if cval >= 0 else -1.0
        all_kinks = tuple(sorted(set(kinks1) | {sign * k for k in kinks2}))
        x, w = _piecewise_1d(all_kinks, self.order)
        return float(np.dot(w, f(x, sign * x)))

    def _expect2_split_chunk(self, f, cvals, kinks1, kinks2) -> np.ndarray:
        """Kink-split 2-D expectation over several non-degenerate c values."""
        order = self.order
        x1, w1 = _piecewise_1d(tuple(kinks1), order)
        cs = cvals[:, None]
        st = np.sqrt(1.0 - cs * cs)
        shape = (cvals.size, x1.size)
        bounds = [np.full(shape, -_TRUNC)]
        for k in sorted(kinks2):
            bounds.append(np.clip((k - cs * x1) / st, -_TRUNC, _TRUNC))
        bounds.append(np.full(shape, _TRUNC))
        xs, ws = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            x, w = _segment_nodes(lo, np.maximum(lo, hi), order, 2)
            xs.append(x)
            ws.append(w)
        x2 = np.concatenate(xs, axis=-1)
        w2 = np.concatenate(ws, axis=-1)
        z1 = x1[None, :, None]
        vals = f(z1, cs[:, :, None] * z1 + st[:, :, None] * x2)
        return np.einsum("j,ijk,ijk->i", w1, w2, vals)


def default_rule() -> QuadratureRule:
    """The shared DEFAULT_QUAD_ORDER-point rule every map and solver uses."""
    return QuadratureRule.gauss_hermite(DEFAULT_QUAD_ORDER)


@dataclass(frozen=True)
class LocalMapParams:
    """Activation plus weight/bias standard deviation multipliers."""

    activation: Activation
    sigma_w: float = 1.0
    sigma_b: float = 0.0

    def __post_init__(self):
        for name in ("sigma_w", "sigma_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.sigma_w == 0 and self.sigma_b == 0:
            # the layer's output is identically zero: no C map exists
            raise ValueError("sigma_w and sigma_b must not both be zero")


@dataclass(frozen=True)
class CStats:
    """Local-map scalars the transformation solvers target."""

    c0: float    # C(0)
    cp1: float   # C'(1)
    cpp1: float  # C''(1), +inf for piecewise-linear activations
    q1: float    # Q(1)
    qp1: float   # Q'(1)

    def __post_init__(self):
        if not self.q1 > 0:
            raise ValueError(f"Q(1) must be positive, got {self.q1}")
        if self.cp1 < 0 or self.cpp1 < 0:
            raise ValueError("C'(1) and C''(1) must be non-negative")
        if not -1.0 - 1e-9 <= self.c0 <= 1.0 + 1e-9:
            raise ValueError(f"C(0) must lie in [-1, 1], got {self.c0}")


def _clamp_unit(c, context: str):
    """c as floats clipped to [-1, 1] (a numpy scalar for 0-d input);
    DomainError once |c| > 1 + 1e-12, and NaN passes.  The ndarray methods
    cost a fraction of the np.any / np.clip wrappers on the small inputs of
    the ODE's right-hand side and the per-node maps."""
    c = np.asarray(c, dtype=float)
    if (np.abs(c) > 1.0 + 1e-12).any():
        raise DomainError(f"{context}: |c| must be <= 1, got {c}")
    return c.clip(-1.0, 1.0)


def _scaled_kinks(phi: Activation, scale: float):
    # Always include 0 so every local-map integrand goes through the
    # composite panelled rule: a single unpanelled rule loses accuracy as the
    # integrand's curvature concentrates near the origin and misses the
    # doubled-order stability target even for smooth activations like tanh.
    return tuple(sorted({0.0, *(k / scale for k in phi.kinks())}))


def _lrelu_coef(alpha: float) -> float:
    """(1 - a)^2 / (pi (1 + a^2)); OverflowError once pi (1 + a^2) overflows,
    which happens before (1 - a)^2 does."""
    denom = math.pi * (1.0 + alpha * alpha)
    if denom == math.inf:
        raise OverflowError(f"leaky slope {alpha!r} overflows pi (1 + alpha^2)")
    return (1.0 - alpha) ** 2 / denom


def lrelu_c_map(alpha: float, c):
    """Closed-form local C map of the rescaled leaky ReLU.

    C(c) = c + _lrelu_coef(a) * (sqrt(1-c^2) - c * arccos(c)).  Exact at the
    fixed point c = 1.  Accepts arrays.
    """
    coef = _lrelu_coef(alpha)
    if type(c) is float:
        # scalar path for the solvers' bisections; same domain rules as
        # _clamp_unit, NaN passes through
        if abs(c) > 1.0 + 1e-12:
            raise DomainError(f"lrelu_c_map: |c| must be <= 1, got {c}")
        c = min(max(c, -1.0), 1.0)
        return float(c + coef * (math.sqrt(1.0 - c * c) - c * math.acos(c)))
    c = _clamp_unit(c, "lrelu_c_map")
    out = c + coef * (np.sqrt(1.0 - c * c) - c * np.arccos(c))
    return out if out.ndim else float(out)


def lrelu_c_map_derivative(alpha: float, c):
    """dC/dc for the rescaled leaky ReLU: 1 - _lrelu_coef(a) arccos(c)."""
    c = _clamp_unit(c, "lrelu_c_map_derivative")
    out = 1.0 - _lrelu_coef(alpha) * np.arccos(c)
    return out if out.ndim else float(out)


def local_q(params: LocalMapParams, rule: QuadratureRule, q: float) -> float:
    """Q(q) = sigma_w^2 E[phi(sqrt(q) z)^2] + sigma_b^2."""
    if not q > 0:
        raise DomainError(f"q must be positive, got {q}")
    phi = params.activation
    s = math.sqrt(q)
    e = rule.expect(lambda z: phi.value(s * z) ** 2, kinks=_scaled_kinks(phi, s))
    return params.sigma_w**2 * e + params.sigma_b**2


def _pair_expectation(context: str, f, params: LocalMapParams, rule: QuadratureRule,
                      c, q1: float, q2: float):
    """E[f(sqrt(q1) z1) f(sqrt(q2) z2')] at correlation c (broadcasting) and
    sqrt(Q(q1) Q(q2)), shared by local_c and local_c_derivative."""
    c = _clamp_unit(c, context)
    if not (q1 > 0 and q2 > 0):
        raise DomainError(f"q values must be positive, got {q1}, {q2}")
    phi = params.activation
    s1, s2 = math.sqrt(q1), math.sqrt(q2)
    num = rule.expect2(lambda z1, z2: f(s1 * z1) * f(s2 * z2), c,
                       kinks1=_scaled_kinks(phi, s1), kinks2=_scaled_kinks(phi, s2))
    return num, math.sqrt(local_q(params, rule, q1) * local_q(params, rule, q2))


def local_c(params: LocalMapParams, rule: QuadratureRule, c, q1: float, q2: float):
    """Local C map at correlation c and input q values q1, q2.

    (sigma_w^2 E[phi(sqrt(q1) z1) phi(sqrt(q2) z2')] + sigma_b^2)
    normalized by sqrt(Q(q1) Q(q2)).  Broadcasts over c.
    """
    num, denom = _pair_expectation("local_c", params.activation.value, params, rule,
                                   c, q1, q2)
    out = (params.sigma_w**2 * num + params.sigma_b**2) / denom
    return out if np.ndim(out) else float(out)


def local_c_derivative(
    params: LocalMapParams,
    rule: QuadratureRule,
    c,
    q1: float,
    q2: float,
    order: int = 1,
):
    """i-th derivative of the local C map in c, for i in {1, 2}.

    C^(i)(c, q1, q2) = sigma_w^2 (q1 q2)^(i/2) / sqrt(Q(q1) Q(q2))
                       * E[phi^(i)(sqrt(q1) z1) phi^(i)(sqrt(q2) z2')].
    """
    if order not in (1, 2):
        raise UnsupportedDerivativeError(f"derivative order {order} not supported")
    phi = params.activation
    if order == 2 and not phi.smooth:
        raise UnsupportedDerivativeError(
            "second C-map derivative undefined for piecewise-linear activations"
        )
    d = phi.deriv1 if order == 1 else phi.deriv2
    num, denom = _pair_expectation("local_c_derivative", d, params, rule, c, q1, q2)
    out = params.sigma_w**2 * (q1 * q2) ** (order / 2.0) / denom * num
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class KernelMap:
    """Local C map c -> C(c; q1, q2), as built by kernel_map.

    route says how it is evaluated: "arccos" (closed form), "hermite"
    (truncated dual-activation series) or "quadrature" (local_c).
    tail_bound bounds the truncation error over |c| <= 1: 0 for the closed
    form; for the series sigma_w^2 sqrt(r(q1) r(q2)) / sqrt(Q(q1) Q(q2)),
    where r(q) = E[phi(sqrt(q) z)^2] - sum of the kept squared coefficients
    (Cauchy-Schwarz on the dropped terms), doubled when q1 = q2, where the
    series is divided by its kept mass so that C(1) = 1 (for c >= 0 one
    tail still bounds the error); None for quadrature.  Calls
    follow local_c: arrays broadcast, scalars give a float, |c| > 1 + 1e-12
    raises DomainError and NaN passes through.
    """

    route: str
    tail_bound: float | None
    _local: Callable = field(repr=False, compare=False)

    def __call__(self, c):
        return self._local(c)


@lru_cache(maxsize=8)
def _hermite_basis(order: int):
    """Nodes x, weights w and the rows w h_n(x), n = 0.._HERMITE_CAP.

    h_n are the orthonormal probabilists' Hermite polynomials, from the
    recurrence h_{n+1} = (x h_n - sqrt(n) h_{n-1}) / sqrt(n + 1); the rows
    carry the weights (Gaussian density folded in), so basis @ f(x) gives
    the coefficients E[f(z) h_n(z)].
    """
    x, w = _piecewise_1d((0.0,), order)
    basis = np.empty((_HERMITE_CAP + 1, x.size))
    basis[0] = w
    basis[1] = x * w
    for n in range(1, _HERMITE_CAP):
        basis[n + 1] = (x * basis[n] - math.sqrt(n) * basis[n - 1]) / math.sqrt(n + 1)
    return x, w, basis


def _hermite_coefficients(phi: Activation, s: float, order: int):
    """Coefficients a_n of phi(s z), E[phi(s z)^2] and the tails E - sum a^2."""
    x, w, basis = _hermite_basis(order)
    v = phi.value(s * x)
    a = basis @ v
    mass = float(np.dot(w, v * v))
    return a, mass, mass - np.cumsum(a * a)


def _hermite_jet(phi: Activation, alpha: float, beta: float, order: int):
    """Coefficients a_n of phi(alpha z + beta) and their alpha, beta derivatives.

    Returns a (_HERMITE_CAP + 1, 3) array with columns a, da/dalpha and
    da/dbeta: differentiating under the expectation, da/dalpha = B (x
    phi'(alpha x + beta)) and da/dbeta = B phi'(alpha x + beta), with B the
    weighted Hermite rows, so no finite differences and no phi'' are needed.
    """
    x, _, basis = _hermite_basis(order)
    u = alpha * x + beta
    d = phi.deriv1(u)
    return basis @ np.stack([phi.value(u), x * d, d], axis=1)


def kernel_map(params: LocalMapParams, q1: float = 1.0, q2: float = 1.0) -> KernelMap:
    """The local C map of local_c(params, rule, ., q1, q2) without 2-D quadrature.

    Leaky ReLUs (ReLU, LReLU, TReLU, any slope) are positively homogeneous,
    so E[phi(sqrt(q1) z1) phi(sqrt(q2) z2')] = sqrt(q1 q2) E[phi(z)^2]
    lrelu_c_map(alpha, c), the arc-cosine kernel (Cho & Saul 2009).
    Smooth activations use Mehler's formula (the dual activation of Daniely,
    Frostig & Singer 2016): E[phi(s1 z1) phi(s2 z2')] = sum_n a_n(s1)
    a_n(s2) c^n, with a_n(s) = E[phi(s z) h_n(z)] from one 1-D pass over the
    kink-split nodes local_q uses.  Other activations, a transformed leaky
    ReLU among them (its kink may sit off the origin), fall back to local_c.
    """
    if not (q1 > 0 and q2 > 0):
        raise DomainError(f"q values must be positive, got {q1}, {q2}")
    phi = params.activation
    sw2, sb2 = params.sigma_w**2, params.sigma_b**2
    if isinstance(phi, LReLU):
        alpha = phi.alpha
        m = phi.scale * phi.scale * (1.0 + alpha * alpha) / 2.0  # E[phi(z)^2]
        t1, t2 = sw2 * m * q1, sw2 * m * q2
        # ratios before the root: the product of the two variances
        # overflows for slopes far below those the map itself can take
        a = math.sqrt(t1 / (t1 + sb2) * (t2 / (t2 + sb2)))
        b = math.sqrt(sb2 / (t1 + sb2) * (sb2 / (t2 + sb2)))
        return KernelMap("arccos", 0.0, lambda c: a * lrelu_c_map(alpha, c) + b)
    if not phi.smooth:
        rule = default_rule()
        return KernelMap("quadrature", None, lambda c: local_c(params, rule, c, q1, q2))
    a1, m1, r1 = _hermite_coefficients(phi, math.sqrt(q1), DEFAULT_QUAD_ORDER)
    a2, m2, r2 = (a1, m1, r1) if q2 == q1 else _hermite_coefficients(
        phi, math.sqrt(q2), DEFAULT_QUAD_ORDER
    )
    # measured against the tail left at the cap (floored at 0), so a tail
    # that levels off at the rounding floor of the running sum stops there
    done = ((r1 - max(r1[-1], 0.0) <= _HERMITE_RTOL * m1)
            & (r2 - max(r2[-1], 0.0) <= _HERMITE_RTOL * m2))
    n = int(np.argmax(done))
    full = math.sqrt((sw2 * m1 + sb2) * (sw2 * m2 + sb2))
    tail = sw2 * math.sqrt(max(r1[n], 0.0) * max(r2[n], 0.0)) / full
    denom = full
    if q2 == q1:
        # the kept mass makes C(1) = 1 to rounding, where E[phi^2] leaves
        # 1 - tail for C'(1) > 1 to amplify down a deep chain; the rescaling
        # moves the map by at most one more tail
        denom, tail = sw2 * float(np.dot(a1[: n + 1], a1[: n + 1])) + sb2, 2.0 * tail
    coef = sw2 * a1[: n + 1] * a2[: n + 1] / denom
    coef[0] += sb2 / denom

    def local(c):
        out = np.polynomial.polynomial.polyval(_clamp_unit(c, "kernel_map"), coef)
        return out if out.ndim else float(out)

    return KernelMap("hermite", tail, local)


def global_c(g: NetworkGraph, local, c0):
    """Global C map: compose the local map per the graph structure."""
    return eval_U(g, local, c0)


def cstats(params: LocalMapParams, rule: QuadratureRule) -> CStats:
    """Collect the solver targets Q(1), Q'(1), C'(1), C''(1) and C(0).

    The derivative entries are the plain Gaussian moments E[phi'(z)^2] and
    E[phi''(z)^2]; they equal the true C-map derivatives once the activation
    is normalized to Q(1) = 1, which is the regime every solver works in.

    A smooth activation has no kinks, so the moments are taken on the
    unsplit Gauss-Hermite rule, whose own node set keeps this an oracle
    independent of the solvers' kink-split nodes.  That costs accuracy: for
    tanh it misses C''(1) by 7.7e-6 at order 60 and by 2.1e-9 at order 120
    (C'(1) by 1.9e-7 and 2.5e-11), against order-480 kink-split moments.
    """
    phi = params.activation
    kinks = phi.kinks()
    sw2, sb2 = params.sigma_w**2, params.sigma_b**2
    q1 = sw2 * rule.expect(lambda z: phi.value(z) ** 2, kinks=kinks) + sb2
    qp1 = sw2 * rule.expect(lambda z: phi.value(z) * phi.deriv1(z) * z, kinks=kinks)
    cp1 = sw2 * rule.expect(lambda z: phi.deriv1(z) ** 2, kinks=kinks)
    if phi.smooth:
        cpp1 = sw2 * rule.expect(lambda z: phi.deriv2(z) ** 2, kinks=kinks)
    else:
        cpp1 = math.inf
    mean = rule.expect(lambda z: phi.value(z), kinks=kinks)
    c0 = (sw2 * mean**2 + sb2) / q1
    return CStats(c0=c0, cp1=cp1, cpp1=cpp1, q1=q1, qp1=qp1)
