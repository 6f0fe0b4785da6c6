"""Monte-Carlo validation of Q/C map predictions at finite width.

Propagates input pairs through randomly initialized fully-connected
networks (biases zero) and records per-layer empirical q and c values.
Trials use independent counter-derived RNG streams, so aggregate results do
not depend on execution order.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .activations import Activation
from .errors import DomainError

__all__ = [
    "InitScheme",
    "SimConfig",
    "EmpiricalTrace",
    "DeviationReport",
    "sample_weight_matrix",
    "make_input_pair",
    "propagate_pair",
    "run_simulation",
    "compare_to_theory",
    "theory_trace",
]


class InitScheme(Enum):
    GAUSSIAN_FAN_IN = "gaussian"
    SUO = "suo"


@dataclass(frozen=True)
class SimConfig:
    width: int
    depth: int
    trials: int
    pairs_per_trial: int
    seed: int
    initial_c: float = 0.0

    def __post_init__(self):
        for name in ("width", "depth", "trials", "pairs_per_trial"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.width < 2:
            raise ValueError("width must be >= 2 to hold a pair with a given cosine")
        if not abs(self.initial_c) <= 1.0:
            raise ValueError(f"|initial_c| must be <= 1, got {self.initial_c}")


@dataclass(frozen=True)
class EmpiricalTrace:
    """Per-layer statistics over trials x pairs; index 0 is the input."""

    mean_c: np.ndarray
    std_c: np.ndarray
    mean_q: np.ndarray
    initial_c: float

    @property
    def depth(self) -> int:
        return len(self.mean_c) - 1


@dataclass(frozen=True)
class DeviationReport:
    theory_c: np.ndarray
    max_abs_deviation: float
    mean_abs_deviation: float
    within_one_std_fraction: float


def sample_weight_matrix(scheme: InitScheme, m: int, k: int, rng) -> np.ndarray:
    """Draw an m x k weight matrix.

    Gaussian fan-in: iid N(0, 1/k).  SUO: row-orthonormalized Gaussian
    (transposed procedure when m > k) times max{sqrt(m/k), 1}.
    """
    if m < 1 or k < 1:
        raise ValueError("matrix dimensions must be positive")
    if scheme is InitScheme.GAUSSIAN_FAN_IN:
        return rng.normal(0.0, 1.0 / math.sqrt(k), size=(m, k))
    if scheme is InitScheme.SUO:
        rows, cols = (m, k) if m <= k else (k, m)
        x = rng.normal(size=(cols, rows))
        # QR with sign-corrected R diagonal draws Haar-uniform orthonormal
        # columns, the numerically stable equivalent of (X X^T)^(-1/2) X
        q, r = np.linalg.qr(x)
        q = q * np.sign(np.diag(r))
        return q.T if m <= k else q * math.sqrt(m / k)
    raise ValueError(f"unknown init scheme: {scheme}")


def make_input_pair(dim: int, c0: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two vectors with squared norm dim and cosine exactly c0."""
    if abs(c0) > 1.0:
        raise ValueError(f"|c0| must be <= 1, got {c0}")
    x1 = rng.normal(size=dim)
    x1 *= math.sqrt(dim) / np.linalg.norm(x1)
    u = rng.normal(size=dim)
    u -= (u @ x1) / (x1 @ x1) * x1
    u *= math.sqrt(dim) / np.linalg.norm(u)
    x2 = c0 * x1 + math.sqrt(1.0 - c0 * c0) * u
    return x1, x2


def _pair_stats(x1: np.ndarray, x2: np.ndarray) -> tuple[float, float, float]:
    d = x1.shape[0]
    n1, n2 = np.linalg.norm(x1), np.linalg.norm(x2)
    c = float(x1 @ x2 / (n1 * n2))
    return float(n1 * n1 / d), float(n2 * n2 / d), c


def propagate_pair(
    act: Activation,
    scheme: InitScheme,
    width: int,
    depth: int,
    x1: np.ndarray,
    x2: np.ndarray,
    rng,
):
    """Per-layer (q1, q2, c), fresh weights each layer, biases zero.

    Entry 0 holds the input statistics; one entry per combined layer after.
    """
    if x1.shape != x2.shape:
        raise ValueError("input vectors must have matching dimension")
    stats = [_pair_stats(x1, x2)]
    for _ in range(depth):
        w = sample_weight_matrix(scheme, width, x1.shape[0], rng)
        x1 = act.value(w @ x1)
        x2 = act.value(w @ x2)
        stats.append(_pair_stats(x1, x2))
    return stats


def _fresh_layer(x: np.ndarray, scheme: InitScheme, rng, draws=None) -> np.ndarray:
    """Pre-activation W x for a fresh square weight matrix W, in law.

    The columns of x are the n propagated vectors.  Only their Gram matrix
    x^T x = R_x^T R_x matters, so while n <= 2 width / 3 no width x width
    matrix is drawn:

    - Gaussian fan-in: the rows of W x are iid N(0, x^T x / width), exactly
      the law of G R_x with G a width x n matrix of iid N(0, 1/width).
    - SUO: U x = (U Q_x) R_x, and U Q_x is Haar on the Stiefel manifold,
      exactly the law of G R_G^-1 for a standard normal G with
      G^T G = R_G^T R_G (Cholesky QR; R_G has a positive diagonal).

    The Gram route costs about 3 width n^2 flops against 2 width^2 n for
    the explicit product, hence the bound on n; larger n takes the explicit
    path: W from sample_weight_matrix, then the product.  Any R_x with
    R_x^T R_x = x^T x gives the same law, so a singular Gram matrix (equal
    or opposite columns, as with c0 = +-1) takes R_x from a Householder QR
    of x, which accepts rank-deficient x, instead of Cholesky.

    draws, used on the Gram route only, is a _DrawAhead that draws this
    layer's G from rng on a helper thread.
    """
    width, n = x.shape
    if 3 * n <= 2 * width:
        try:
            r_x = _cholesky_factor(x.T @ x)
        except np.linalg.LinAlgError:
            r_x = np.linalg.qr(x, mode="r")
        g = rng.standard_normal((width, n)) if draws is None else draws.take()
        if scheme is InitScheme.GAUSSIAN_FAN_IN:
            return g @ (r_x / math.sqrt(width))
        try:
            return g @ _solve_upper(_cholesky_factor(g.T @ g), r_x)
        except np.linalg.LinAlgError:
            # a rank-deficient normal draw: probability zero; the explicit
            # draw below comes next from rng, as it would in series
            if draws is not None:
                draws.rewind()
    return sample_weight_matrix(scheme, width, width, rng) @ x


def _solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """M with r M = b for an upper-triangular r, by blocked back substitution.

    The lower half of M is solved first and removed from the upper half's
    right-hand side by one GEMM; blocks of size <= 32 are inverted outright.
    On one BLAS thread this is 2-3 times faster than the general LU of
    np.linalg.solve at n = 200-600, and agrees with it to ~2e-16 relative
    on the well-conditioned R_G.
    """
    n = r.shape[0]
    if n <= 32:
        return np.linalg.inv(r) @ b
    h = n // 2
    lower = _solve_upper(r[h:, h:], b[h:])
    upper = _solve_upper(r[:h, :h], b[:h] - r[:h, h:] @ lower)
    return np.concatenate([upper, lower])


def _cholesky_factor(gram: np.ndarray) -> np.ndarray:
    """Upper-triangular R with R^T R = gram; LinAlgError unless finite and
    positive definite."""
    r = np.linalg.cholesky(gram).T
    if not np.isfinite(r).all():
        raise np.linalg.LinAlgError("non-finite Gram matrix")
    return r


# The smallest width * n (one layer's normal draw) that is drawn on the
# helper thread.  Measured with run_simulation (depth 30, 2 trials, TReLU)
# on a 2-core VM with one BLAS thread, medians of 21 calls, helper against
# serial: 2 560 and 4 000 elements ran at 0.73-1.00x (a hand-off costs
# tens of microseconds), 5 000-8 400 at 0.96-1.14x, and every size from
# 11 200 on at 1.15-1.37x (1.4-1.8x from 30 000).
_DRAW_AHEAD_MIN_ELEMENTS = 10_000


class _DrawAhead:
    """A trial's per-layer width x n standard normal draws, each made on a
    helper thread while the caller computes the layer before it.

    The draws come from rng one after another, into two buffers in turn, so
    rng gives the same numbers as it would in series.  take() returns the
    next draw (valid until the take() after it) and starts the one after.
    rewind() is for a caller that must draw from rng itself first: it waits
    for the draw in flight, drops it and puts rng back where it began.
    """

    def __init__(self, pool, rng, shape, count: int):
        self._pool, self._rng, self._left = pool, rng, count
        self._buffers = [np.empty(shape), np.empty(shape)]
        self._flight = None
        self._start()

    def _start(self) -> None:
        if self._left:
            self._left -= 1
            self._state = self._rng.bit_generator.state
            self._buffers.reverse()
            self._flight = self._pool.submit(self._rng.standard_normal, out=self._buffers[0])

    def take(self) -> np.ndarray:
        if self._flight is None:
            self._start()
        g = self._flight.result()
        self._flight = None
        self._start()
        return g

    def rewind(self) -> None:
        if self._flight is not None:
            self._flight.result()
            self._flight = None
            self._rng.bit_generator.state = self._state
            self._left += 1


def run_simulation(config: SimConfig, act: Activation, scheme: InitScheme) -> EmpiricalTrace:
    """Aggregate pair statistics over trials (networks) x pairs.

    Each trial draws one set of network weights shared by all of its pairs.
    The RNG stream is keyed by (seed, trial), so the result is independent
    of trial execution order.

    On the Gram route, once width * n reaches _DRAW_AHEAD_MIN_ELEMENTS, a
    helper thread draws each layer's normal matrix G while this thread
    computes the layer before (numpy releases the GIL in both).  The stream
    and so every result are those of the serial loop.  The helper runs only
    Generator.standard_normal, never a qcmap function: the benchmark's
    tracer assumes one thread, and np.errstate below is thread-local.  It
    lives inside this call and is joined before it returns or raises.
    """
    depth, pairs, width = config.depth, config.pairs_per_trial, config.width
    all_c = np.empty((config.trials, pairs, depth + 1))
    all_q = np.empty((config.trials, pairs, depth + 1))
    n = 2 * pairs
    helper = contextlib.nullcontext()
    if 3 * n <= 2 * width and width * n >= _DRAW_AHEAD_MIN_ELEMENTS:
        # imported here: at module level it would add ~4 ms to import qcmap
        from concurrent.futures import ThreadPoolExecutor
        helper = ThreadPoolExecutor(max_workers=1)
    # overflow, 0/0 and inf/inf leave non-finite entries; the check after
    # the loop reports them as one DomainError instead of numpy warnings
    with (np.errstate(over="ignore", invalid="ignore", divide="ignore"),
          helper as pool):
        for trial in range(config.trials):
            rng = np.random.default_rng([config.seed, trial])
            pairs_x = []
            for _ in range(pairs):
                x1, x2 = make_input_pair(width, config.initial_c, rng)
                pairs_x += [x1, x2]
            draws = _DrawAhead(pool, rng, (width, n), depth) if pool else None
            x = np.stack(pairs_x, axis=1)  # width x n
            _record_layer(x, all_c, all_q, trial, 0)
            for layer in range(1, depth + 1):
                x = act.value(_fresh_layer(x, scheme, rng, draws))
                _record_layer(x, all_c, all_q, trial, layer)
    bad = ~(np.isfinite(all_c) & np.isfinite(all_q)).all(axis=(0, 1))
    if bad.any():
        raise DomainError(
            f"layer {int(np.argmax(bad))}: a propagated vector is zero or overflows, "
            "so its cosine is undefined"
        )
    flat_c = all_c.reshape(-1, depth + 1)
    flat_q = all_q.reshape(-1, depth + 1)
    return EmpiricalTrace(
        mean_c=flat_c.mean(axis=0),
        std_c=flat_c.std(axis=0),
        mean_q=flat_q.mean(axis=0),
        initial_c=config.initial_c,
    )


def _record_layer(x: np.ndarray, all_c, all_q, trial: int, layer: int) -> None:
    d = x.shape[0]
    x1, x2 = x[:, 0::2], x[:, 1::2]
    n1 = np.linalg.norm(x1, axis=0)
    n2 = np.linalg.norm(x2, axis=0)
    all_c[trial, :, layer] = np.einsum("ij,ij->j", x1, x2) / (n1 * n2)
    all_q[trial, :, layer] = 0.5 * (n1 * n1 + n2 * n2) / d


def theory_trace(local_map, c0: float, depth: int) -> np.ndarray:
    """Iterate a local C map from c0; entry l is the layer-l prediction."""
    out = np.empty(depth + 1)
    out[0] = c0
    c = c0
    for layer in range(1, depth + 1):
        c = local_map(c)
        out[layer] = c
    return out


def compare_to_theory(trace: EmpiricalTrace, depth: int, local_map) -> DeviationReport:
    """Deviation of empirical mean c values from the local map iterated depth times."""
    if trace.depth != depth:
        raise ValueError(
            f"trace depth {trace.depth} does not match expected depth {depth}"
        )
    theory = theory_trace(local_map, trace.initial_c, depth)
    dev = np.abs(trace.mean_c - theory)
    within = np.mean(dev <= np.maximum(trace.std_c, 1e-15))
    return DeviationReport(
        theory_c=theory,
        max_abs_deviation=float(np.max(dev)),
        mean_abs_deviation=float(np.mean(dev)),
        within_one_std_fraction=float(within),
    )
