"""Output checks for every benchmark request.

Each check compares a CLI answer with an oracle that does not reuse the
code path that produced it: closed forms written out here (the arc-cosine
kernel, the depth-limit integral), graph compositions written out here, or
qcmap's quadrature at twice the order the CLI uses.  `check(req, rec)`
returns None when the answer is right and a one-line reason otherwise.

`rec` holds what the call produced: outcome ("returned", "exception" or
"deadline"), rc, stdout, stderr and, for exceptions, their repr.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from qcmap import (
    LocalMapParams,
    QuadratureRule,
    TransformedActivation,
    build_rescaled_resnet,
    build_vanilla,
    cstats,
    eval_M,
    local_c,
    local_c_derivative,
    local_q,
    parse_activation,
)

ORDER = 120  # twice qcmap's default quadrature order

# tolerances, each far above the error of a correct answer
SOLVER_TOL = 1e-6      # TAT/DKS/EOC residuals recomputed at order 120
CLOSED_TOL = 1e-9      # closed-form curves, 12-significant-digit CSV
KINK_TOL = 1e-7        # kink-split quadrature against the closed form
SPOT_TOL = 1e-7        # smooth curve point against order-120 quadrature
ODE_TOL = 1e-6         # flow end point against the quadrature of dt = dx/f
# wide-network mean c within SIM_SIGMAS std_c plus SIM_WIDTH / sqrt(width)
# of theory: over 2 100 random wide TReLU runs the worst gap used 24% of it
SIM_SIGMAS = 6.0
SIM_WIDTH = 4.0


# ---------------------------------------------------------------------------
# oracles written independently of qcmap's code paths


def _k1(c):
    """Arc-cosine kernel of degree 1: E[relu(u) relu(v)], unit variances."""
    c = np.clip(np.asarray(c, dtype=float), -1.0, 1.0)
    return (np.sqrt(1.0 - c * c) + (math.pi - np.arccos(c)) * c) / (2.0 * math.pi)


def lrelu_local_c(alpha: float, c):
    """Local C map of max(x,0) + alpha*min(x,0) (any positive scale).

    phi(x) = relu(x) - alpha relu(-x), so E[phi(u) phi(v)] =
    (1 + alpha^2) k1(c) - 2 alpha k1(-c), normalized by E[phi^2] = (1 + alpha^2)/2.
    """
    return ((1.0 + alpha * alpha) * _k1(c) - 2.0 * alpha * _k1(-np.asarray(c))) / (
        0.5 * (1.0 + alpha * alpha)
    )


def compose(spec: str, local, x):
    """Global map of a vanilla:/resnet: graph spec, composed from `local`.

    Mirrors the CLI's spec grammar but not its graph code: a vanilla net is
    L local maps in a row; a residual block mixes w^2 * shortcut and
    (1 - w^2) * (three local maps), transition blocks put one local map on
    the shortcut, and a transition network ends in one more local map.
    """
    family, _, rest = spec.partition(":")
    if family == "vanilla":
        for _ in range(int(rest)):
            x = local(x)
        return x
    if family != "resnet":
        raise ValueError(f"no oracle for graph spec {spec!r}")
    parts = rest.split(":")
    blocks, w = int(parts[0]), float(parts[1])
    transitions = len(parts) > 2 and parts[2] == "transitions"
    marked = {round(i * (blocks - 1) / 3) for i in range(4)} if transitions else set()
    for b in range(blocks):
        branch = local(local(local(x)))
        shortcut = local(x) if b in marked else x
        x = w * w * shortcut + (1.0 - w * w) * branch
    return local(x) if transitions else x


def ode_f(x):
    x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    return np.sqrt(1.0 - x * x) - x * np.arccos(x)


def flow_time(x0: float, x1: float, n: int = 400) -> float:
    """Time the depth-limit flow dx/dt = f(x) takes from x0 to x1 (< 1)."""
    t, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    return float(half * np.dot(w, 1.0 / ode_f(mid + half * t)))


def flow_lower_bound(c0: float, t):
    """x(t) >= 1 - ((1 - c0)^(-1/2) + (sqrt(2)/3) t)^(-2) for c0 >= 0."""
    return 1.0 - ((1.0 - c0) ** -0.5 + (math.sqrt(2.0) / 3.0) * np.asarray(t)) ** -2.0


# ---------------------------------------------------------------------------
# parsing helpers


def _flag(argv, name, default=None):
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def _csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    data = np.array([[float(v) for v in r] for r in body], dtype=float)
    return header, data.reshape(len(body), len(header))


def _rule():
    return QuadratureRule.gauss_hermite(ORDER)


def _graph(spec):
    family, _, rest = spec.partition(":")
    if family == "vanilla":
        return build_vanilla(int(rest))
    parts = rest.split(":")
    transitions = len(parts) > 2 and parts[2] == "transitions"
    return build_rescaled_resnet(int(parts[0]), float(parts[1]),
                                 with_transitions=transitions,
                                 final_nonlinear=transitions)


# ---------------------------------------------------------------------------
# checks per request kind


def check(req: dict, rec: dict) -> str | None:
    """None if the recorded answer to `req` is right, else the reason."""
    if rec["outcome"] == "deadline":
        return "aborted at the per-request deadline"
    if rec["outcome"] == "exception":
        return f"exception escaped cli.run: {rec['exc']}"
    expect = req["expect"]
    if rec["rc"] not in expect["rc"]:
        return f"exit code {rec['rc']}, expected {expect['rc']}"
    if "Traceback" in rec["stderr"]:
        return "traceback on stderr"
    if rec["rc"] != 0:
        return _check_error(expect, rec)
    if rec["stderr"].strip():
        return f"unexpected stderr: {rec['stderr'][:80]!r}"
    try:
        return _CHECKS[req["argv"][0]](req["argv"], rec["stdout"])
    except Exception as err:  # a malformed answer must not stop the run
        return f"unreadable output: {type(err).__name__}: {err}"


def _check_error(expect, rec) -> str | None:
    if rec["stdout"].strip():
        return "output written although the request failed"
    if rec["rc"] == 2 and expect["error"] is None and "usage:" in rec["stderr"]:
        return None
    lines = [ln for ln in rec["stderr"].splitlines() if ln.strip()]
    try:
        env = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return f"exit {rec['rc']} without the JSON error envelope"
    if not isinstance(env, dict) or set(env) != {"error", "message", "context"}:
        return f"malformed error envelope {lines[-1][:80]!r}"
    if not isinstance(env["message"], str) or not isinstance(env["context"], dict):
        return "error envelope fields have the wrong types"
    if expect["error"] is not None and env["error"] != expect["error"]:
        return f"error {env['error']!r}, expected {expect['error']!r}"
    return None


def _check_solve(argv, stdout) -> str | None:
    out = json.loads(stdout)
    method = _flag(argv, "--method")
    if out.get("method") != method:
        return f"method {out.get('method')!r} in the answer"
    p = out["parameters"]
    if method == "tat-lrelu":
        return _check_tat_lrelu(argv, p["alpha"], out["targets"]["eta"])
    if method in ("tat-smooth", "dks"):
        return _check_transform(argv, method, p, out["targets"])
    if method == "eoc":
        return _check_eoc(argv, p["sigma_w"], p["sigma_b"], out["targets"]["q_fixed_point"])
    return f"no check for method {method!r}"


def _check_tat_lrelu(argv, alpha, achieved) -> str | None:
    eta = float(_flag(argv, "--eta"))
    spec = _flag(argv, "--graph")
    local = lambda c: lrelu_local_c(alpha, c)
    if spec.startswith("vanilla:"):
        got = float(compose(spec, local, 0.0))
    else:
        got = float(eval_M(_graph(spec), local, 0.0))
    if not abs(got - eta) <= SOLVER_TOL:
        return f"maximal c-value {got:.10g} at alpha={alpha!r}, target {eta}"
    if not abs(achieved - got) <= SOLVER_TOL:
        return f"reported eta {achieved!r} differs from the recomputed {got:.10g}"
    return None


def _check_transform(argv, method, p, targets) -> str | None:
    base = parse_activation(_flag(argv, "--activation", "tanh"))
    phi = TransformedActivation(base=base, alpha=p["alpha"], beta=p["beta"],
                                gamma=p["gamma"], delta=p["delta"])
    s = cstats(LocalMapParams(phi), _rule())
    g = _graph(_flag(argv, "--graph"))
    want = {"Q(1)": (s.q1, 1.0), "Q'(1)": (s.qp1, 1.0)}
    if method == "tat-smooth":
        m = eval_M(g, lambda x: 1.0 + x, 0.0)
        target = float(_flag(argv, "--tau")) / m
        want["C'(1)"] = (s.cp1, 1.0)
        want["C''(1)"] = (s.cpp1, target)
        want["reported C''(1)"] = (targets["local_cpp1"], target)
    else:
        m = targets["local_cp1"]
        zeta = float(_flag(argv, "--zeta"))
        want["C(0)"] = (s.c0, 0.0)
        want["C'(1)"] = (s.cp1, m)
        want["global slope"] = (eval_M(g, lambda x: m * x, 1.0), zeta)
    for name, (got, target) in want.items():
        if not abs(got - target) <= SOLVER_TOL * max(1.0, abs(target)):
            return f"{name} = {got:.10g}, expected {target:.10g}"
    return None


def _check_eoc(argv, sigma_w, sigma_b, q_star) -> str | None:
    if sigma_b != float(_flag(argv, "--sigma-b", 0.0)):
        return f"sigma_b {sigma_b!r} differs from the request"
    params = LocalMapParams(parse_activation(_flag(argv, "--activation", "tanh")),
                            sigma_w=sigma_w, sigma_b=sigma_b)
    rule = _rule()
    q = local_q(params, rule, q_star)
    if not abs(q - q_star) <= SOLVER_TOL * max(1.0, q_star):
        return f"Q(q*) = {q:.10g} but q* = {q_star:.10g}"
    slope = local_c_derivative(params, rule, 1.0, q_star, q_star)
    if not abs(slope - 1.0) <= SOLVER_TOL:
        return f"C'(1) = {slope:.10g} at the reported sigma_w, expected 1"
    return None


def _check_cmap(argv, stdout) -> str | None:
    header, data = _csv(stdout)
    if header != ["c", "C_f"]:
        return f"header {header}"
    points = int(_flag(argv, "--points", 201))
    start = float(_flag(argv, "--from", -1.0))
    grid = np.linspace(start, 1.0, points)
    if data.shape[0] != points or not np.allclose(data[:, 0], grid, rtol=0, atol=1e-11):
        return "grid differs from --from/--points"
    spec, act = _flag(argv, "--graph"), _flag(argv, "--activation")
    values = data[:, 1]
    name, _, arg = act.partition(":")
    if name in ("relu", "lrelu", "trelu"):
        alpha = float(arg) if arg else 0.0
        want = compose(spec, lambda c: lrelu_local_c(alpha, c), grid)
        tol = CLOSED_TOL if name == "trelu" else KINK_TOL
        err = float(np.max(np.abs(values - want)))
        return None if err <= tol else f"max deviation {err:.3g} from the arc-cosine form"
    if not np.all(np.abs(values) <= 1.0 + 1e-12):
        return "|C_f| exceeds 1"
    if not np.all(np.diff(values) >= -1e-12):
        return "C_f is not monotone"
    if not abs(values[-1] - 1.0) <= 1e-9:
        return f"C_f(1) = {values[-1]!r}"
    params, rule = LocalMapParams(parse_activation(act)), _rule()
    i = points // 2
    want = compose(spec, lambda c: local_c(params, rule, c, 1.0, 1.0), grid[i])
    if not abs(values[i] - want) <= SPOT_TOL:
        return f"C_f({grid[i]:.6g}) = {values[i]:.12g}, order-{ORDER} value {want:.12g}"
    return None


def _check_ode(argv, stdout) -> str | None:
    header, data = _csv(stdout)
    if header != ["t", "x"]:
        return f"header {header}"
    t, x = data[:, 0], data[:, 1]
    c0 = float(_flag(argv, "--c0", 0.0))
    if t[0] != 0.0 or abs(x[0] - c0) > 1e-12:
        return "trajectory does not start at (0, c0)"
    if not (np.all(np.diff(t) > 0) and np.all(np.diff(x) >= 0)):
        return "times or states not monotone"
    if c0 >= 0 and not np.all(x >= flow_lower_bound(c0, t) - 1e-9):
        return "states fall below the flow's lower bound"
    eta = _flag(argv, "--eta")
    if eta is not None:
        eta = float(eta)
        if not abs(x[-1] - eta) <= ODE_TOL:
            return f"psi(0, T) = {x[-1]!r}, expected {eta}"
        T = flow_time(c0, eta)
    else:
        T = float(_flag(argv, "--T"))
    if not abs(t[-1] - T) <= ODE_TOL * max(1.0, T):
        return f"final time {t[-1]!r}, expected {T!r}"
    if not abs(flow_time(c0, x[-1]) - T) <= ODE_TOL * max(1.0, T):
        return f"end state {x[-1]!r} not reached in time {T!r}"
    return None


def _check_simulate(argv, stdout) -> str | None:
    header, data = _csv(stdout)
    if header != ["layer_index", "mean_c", "std_c", "mean_q", "theory_c"]:
        return f"header {header}"
    depth, width = int(_flag(argv, "--depth")), int(_flag(argv, "--width"))
    pairs = int(_flag(argv, "--pairs", 100))
    c0 = float(_flag(argv, "--c0", 0.0))
    if data.shape[0] != depth + 1 or not np.array_equal(data[:, 0], np.arange(depth + 1)):
        return "layer rows do not run 0..depth"
    _, mean_c, std_c, mean_q, theory = data.T
    if not np.all(np.isfinite(data)):
        return "non-finite statistics"
    if not (np.all(np.abs(mean_c) <= 1.0 + 1e-9) and np.all(np.abs(theory) <= 1.0 + 1e-9)):
        return "|c| exceeds 1"
    if not (np.all(std_c >= 0) and np.all(mean_q > 0)):
        return "negative spread or non-positive q"
    if abs(mean_c[0] - c0) > 1e-9 or std_c[0] > 1e-9 or theory[0] != c0:
        return "layer 0 does not hold the input cosine"
    act = _flag(argv, "--activation")
    name, _, arg = act.partition(":")
    if name == "trelu":
        alpha = float(arg) if arg else 0.0
        want = [c0]
        for _ in range(depth):
            want.append(float(lrelu_local_c(alpha, want[-1])))
        err = float(np.max(np.abs(theory - np.array(want))))
        if err > CLOSED_TOL:
            return f"theory column deviates {err:.3g} from the arc-cosine form"
        if width >= 2 * pairs:
            gap = np.abs(mean_c - theory)[1:]
            tol = SIM_SIGMAS * std_c[1:] + SIM_WIDTH / math.sqrt(width)
            if np.any(gap > tol):
                layer = int(np.argmax(gap / tol)) + 1
                return (f"layer {layer}: mean c {mean_c[layer]:.6g} vs theory "
                        f"{theory[layer]:.6g}, beyond {SIM_SIGMAS:g} std_c + "
                        f"{SIM_WIDTH:g}/sqrt(width)")
    else:
        params = LocalMapParams(parse_activation(act))
        i = depth // 2
        want = local_c(params, _rule(), theory[i], 1.0, 1.0)
        if abs(theory[i + 1] - want) > SPOT_TOL:
            return f"theory step {i}: {theory[i + 1]:.12g}, order-{ORDER} {want:.12g}"
    return None


_CHECKS = {
    "solve": _check_solve,
    "cmap": _check_cmap,
    "ode": _check_ode,
    "simulate": _check_simulate,
}
