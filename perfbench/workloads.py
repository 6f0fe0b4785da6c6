"""Seeded request generation for the qcmap benchmark.

A workload is an endless sequence of *decks*.  A deck is a fixed mix of
request kinds in a seeded random order.  Every parameter of a kind is
drawn by stratified sampling over a cycle of CYCLE decks (see _Deck), and
the parameters that set a request's cost share one stratum, so every cycle
carries the same cost profile whatever the seed and the per-run metrics do
not hinge on a lucky or unlucky draw.  Deck k of a workload depends only on
(workload, seed, k).

A request is a dict:
    kind    -- name used for per-kind reports, e.g. "solve/tat-lrelu/resnet"
    argv    -- the exact argument list handed to qcmap.cli.run
    expect  -- {"rc": [allowed exit codes], "error": envelope code or None}
The checkers in checks.py read only argv and expect; qcmap sees only argv.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("solve", "curve", "simulate")
# Known contract defects of the program; run by hand with --workload defects.
EXTRA_WORKLOADS = ("defects",)

# Decks over which each parameter is stratified (see _Deck).  A timed run
# serves whole cycles, so every run holds the same spread of input sizes.
CYCLE = {"solve": 4, "curve": 2, "simulate": 2, "defects": 1}

# Fixed number of decks replayed by a traced run, so that every count in
# the attribution repeats exactly for a given seed.
TRACE_DECKS = {"solve": 4, "curve": 2, "simulate": 4, "defects": 1}

OK = {"rc": [0], "error": None}


def _fail(error, rc=(1,)):
    return {"rc": list(rc), "error": error}


# ---------------------------------------------------------------------------
# sampling helpers


def _lin(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _log(u: float, lo: float, hi: float) -> float:
    return math.exp(_lin(u, math.log(lo), math.log(hi)))


def _int(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi], uniform over the strata."""
    return min(hi, lo + int(u * (hi - lo + 1)))


def _fmt(x: float) -> str:
    """Six significant digits, never in exponent form: argparse reads a
    value such as -2.9e-05 as an option name."""
    s = f"{x:.6g}"
    return s if "e" not in s else f"{float(s):.12f}".rstrip("0")


class _Deck:
    """The random draws of deck k of a workload.

    Every parameter of every kind is stratified over a cycle of C =
    CYCLE[workload] appearances of the kind: a kind with n requests per
    appearance has n * C equal strata per parameter, permuted per (seed,
    cycle, kind, parameter), and each request takes one stratum plus a
    uniform offset inside it.  A run of whole cycles therefore holds every
    stratum of every parameter once.
    """

    def __init__(self, workload: str, seed: int, k: int):
        self.tag = f"qcmap-bench:{workload}:{seed}"
        self.cycle = CYCLE[workload]
        self.k = k
        self.rng = random.Random(f"{self.tag}:{k}")

    def kind(self, name: str, n: int, every: int = 1) -> "_Kind":
        """Draws for a kind with n requests in every `every`-th deck."""
        return _Kind(self, name, n, self.k // every)


class _Kind:
    def __init__(self, deck: _Deck, name: str, n: int, appearance: int):
        self.deck, self.name, self.n = deck, name, n
        self.cycle_id, self.slot = divmod(appearance, deck.cycle)
        self._perm: dict[str, list[int]] = {}

    def u(self, param: str, i: int) -> float:
        """Uniform in [0, 1) for parameter `param` of request i of the kind."""
        total = self.n * self.deck.cycle
        if param not in self._perm:
            cycle = random.Random(f"{self.deck.tag}:{self.cycle_id}:{self.name}:{param}")
            self._perm[param] = cycle.sample(range(total), total)
        stratum = self._perm[param][self.slot * self.n + i]
        return (stratum + self.deck.rng.random()) / total

    def stratum(self, u: float) -> int:
        """Index of the stratum that u, a draw of this kind, fell in."""
        return int(u * self.n * self.deck.cycle)


# Local targets of the smooth transforms: C''(1) for TAT, C'(1) for DKS.
# Above these the transform grows sharp enough that the default 60-point
# Gauss-Hermite rule loses accuracy (a known defect, see the defects deck).
LOCAL_TARGETS = {"tat-smooth": (0.01, 0.2), "dks": (1.02, 1.12)}


def _spec_parts(spec: str):
    family, _, rest = spec.partition(":")
    if family == "vanilla":
        return family, int(rest), 1.0, False
    parts = rest.split(":")
    return family, int(parts[0]), float(parts[1]), len(parts) > 2


def _curvature_m(spec: str) -> float:
    """Maximal curvature of the graph at unit local curvature (closed form).

    Every nonlinear layer adds 1 along a path; a block adds 3 (1 - w^2)
    plus w^2 when its shortcut carries a layer; the candidates are the
    whole network and a 3-layer branch.
    """
    family, n, w, transitions = _spec_parts(spec)
    if family == "vanilla":
        return float(n)
    whole = 3.0 * (1.0 - w * w) * n + ((4.0 * w * w + 1.0) if transitions else 0.0)
    return max(whole, 3.0)


def _global_slope(spec: str, m: float) -> float:
    """Maximal global C'(1) of the graph at local slope m (closed form)."""
    family, n, w, transitions = _spec_parts(spec)
    if family == "vanilla":
        return m ** n
    plain = w * w + (1.0 - w * w) * m ** 3
    marked = w * w * m + (1.0 - w * w) * m ** 3
    whole = plain ** (n - 4) * marked ** 4 * m if transitions else plain ** n
    return max(whole, m ** 3)


def _resnet_spec(blocks: int, w: float, transitions: bool) -> str:
    spec = f"resnet:{blocks}:{_fmt(w)}"
    return spec + ":transitions" if transitions and blocks >= 4 else spec


# ---------------------------------------------------------------------------
# graph description files for the error traffic


def _node(i, kind, weights=None):
    d = {"id": i, "kind": kind}
    if weights is not None:
        d["weights"] = weights
    return d


_CHAIN = [_node(0, "input"), _node(1, "affine"), _node(2, "nonlinear")]
# input -> affine -> nonlinear, plus a normalized skip sum
_SKIP_EDGES = [[0, 1], [1, 2], [0, 3], [2, 3]]

GRAPH_FILES = {
    # rejected today with the error envelope
    "unnormalized.json": {
        "nodes": _CHAIN + [_node(3, "sum", [0.5, 0.5])],
        "edges": _SKIP_EDGES, "output": 3,
    },
    "missing_edges.json": {"nodes": _CHAIN, "output": 2},
    "two_inputs.json": {
        "nodes": [_node(0, "input"), _node(1, "input"), _node(2, "sum", [0.6, 0.8])],
        "edges": [[0, 2], [1, 2]], "output": 2,
    },
    # CLI contract holes: a traceback instead of the envelope today
    "edge_to_missing_node.json": {
        "nodes": _CHAIN, "edges": [[0, 1], [1, 2], [2, 7]], "output": 2,
    },
    "node_without_kind.json": {
        "nodes": [_node(0, "input"), {"id": 1}, _node(2, "nonlinear")],
        "edges": [[0, 1], [1, 2]], "output": 2,
    },
    "top_level_list.json": [_node(0, "input")],
}


def write_graph_files(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in GRAPH_FILES.items():
        (directory / name).write_text(json.dumps(data))


# ---------------------------------------------------------------------------
# decks


def _solve_deck(d: _Deck, gdir: str) -> list[dict]:
    # the parameters that set a request's cost (graph size, its family and
    # transitions, the local target) follow one stratum per request, so
    # every cycle holds the same cost profile
    out = []
    kind = d.kind("tat-lrelu/vanilla", 4)
    for i in range(4):
        L = _int(kind.u("size", i), 10, 200)
        eta = _lin(kind.u("eta", i), 0.2, 0.85)
        out.append({
            "kind": "solve/tat-lrelu/vanilla",
            "argv": ["solve", "--method", "tat-lrelu", "--graph", f"vanilla:{L}",
                     "--eta", _fmt(eta)],
            "expect": OK,
        })
    kind = d.kind("tat-lrelu/resnet", 4)
    for i in range(4):
        size = kind.u("size", i)
        spec = _resnet_spec(_int(size, 5, 50), _lin(kind.u("w", i), 0.3, 0.95),
                            kind.stratum(size) % 2 == 1)
        out.append({
            "kind": "solve/tat-lrelu/resnet",
            "argv": ["solve", "--method", "tat-lrelu", "--graph", spec,
                     "--eta", _fmt(_lin(kind.u("eta", i), 0.2, 0.55))],
            "expect": OK,
        })
    for method in ("tat-smooth", "dks"):
        for act in ("tanh", "softplus"):
            kind = d.kind(f"{method}/{act}", 2)
            for i in range(2):
                size = kind.u("size", i)
                stratum = kind.stratum(size)
                if stratum % 2 == 0:
                    graph = f"vanilla:{_int(size, 10, 100)}"
                else:
                    graph = _resnet_spec(_int(size, 5, 25),
                                         _lin(kind.u("w", i), 0.3, 0.95),
                                         stratum % 4 == 3)
                local = _lin(size, *LOCAL_TARGETS[method])
                if method == "tat-smooth":
                    target = ["--tau", _fmt(local * _curvature_m(graph))]
                else:
                    target = ["--zeta", _fmt(_global_slope(graph, local))]
                out.append({
                    "kind": f"solve/{method}/{act}",
                    "argv": ["solve", "--method", method, "--graph", graph,
                             "--activation", act] + target,
                    "expect": OK,
                })
    kind = d.kind("eoc/tanh", 3)
    for i in range(3):
        out.append({
            "kind": "solve/eoc/tanh",
            "argv": ["solve", "--method", "eoc", "--activation", "tanh",
                     "--sigma-b", _fmt(_lin(kind.u("sb", i), 0.0, 1.5))],
            "expect": OK,
        })
    errors = _error_requests(d.rng, gdir)
    out += [errors[(2 * d.k) % len(errors)], errors[(2 * d.k + 1) % len(errors)]]
    return out


def _error_requests(rng: random.Random, gdir: str) -> list[dict]:
    """Requests whose correct outcome is an error exit (one of each)."""
    L = rng.randint(2, 10)
    bad_eta = _fmt(rng.uniform(1.01, 3.0))
    return [
        {"kind": "solve/error/unattainable",
         "argv": ["solve", "--method", "tat-lrelu", "--graph", f"vanilla:{L}",
                  "--eta", _fmt(rng.uniform(0.92, 0.99))],
         "expect": _fail("unattainable-target")},
        {"kind": "solve/error/range",
         "argv": ["solve", "--method", "tat-lrelu", "--graph", "vanilla:10",
                  "--eta", bad_eta],
         "expect": _fail("ValueError")},
        {"kind": "solve/error/usage",
         "argv": ["solve", "--method", "tat-lrelu", "--graph", "vanilla:10",
                  "--eta", "high"],
         "expect": _fail(None, rc=(2,))},
        {"kind": "solve/error/graph",
         "argv": ["solve", "--method", "tat-lrelu", "--eta", "0.5", "--graph",
                  f"file:{gdir}/{rng.choice(['unnormalized.json', 'missing_edges.json', 'two_inputs.json'])}"],
         "expect": _fail("GraphValidationError")},
        {"kind": "solve/error/activation",
         "argv": ["solve", "--method", "tat-smooth", "--graph", "vanilla:10",
                  "--activation", rng.choice(["relu", "trelu:0.3"]), "--tau", "0.3"],
         "expect": _fail("UnsupportedDerivativeError")},
    ]


def _curve_deck(d: _Deck, gdir: str) -> list[dict]:
    out = []
    kind = d.kind("cmap/closed-form", 8)
    for i in range(8):
        if kind.u("family", i) < 0.5:
            graph = f"vanilla:{_int(kind.u('size', i), 2, 100)}"
        else:
            graph = _resnet_spec(_int(kind.u("size", i), 2, 50),
                                 _lin(kind.u("w", i), 0.3, 0.95), kind.u("tr", i) < 0.5)
        out.append({
            "kind": "cmap/closed-form",
            "argv": ["cmap", "--graph", graph,
                     "--activation", f"trelu:{_fmt(_lin(kind.u('a', i), 0.0, 1.0))}",
                     "--points", str(_int(kind.u("points", i), 21, 201)),
                     "--from", _fmt(_lin(kind.u("from", i), -1.0, 0.5))],
            "expect": OK,
        })
    for path, acts in (("smooth", ("tanh", "softplus")), ("kinked", ("relu", "lrelu"))):
        kind = d.kind(f"cmap/{path}", 5)
        for i in range(5):
            # the cost is set by nonlinear nodes x points; a cost stratum
            # fixes it together with the activation and the graph
            cost = kind.u("cost", i)
            stratum = kind.stratum(cost)
            act = acts[stratum % 2]
            if act == "lrelu":
                act = f"lrelu:{_fmt(_lin(kind.u('a', i), 0.05, 0.5))}"
            nodes = 1 + (stratum // 2) % 3
            if nodes < 3 or stratum % 4 == 0:
                graph = f"vanilla:{nodes}"
            else:
                graph = f"resnet:1:{_fmt(_lin(kind.u('w', i), 0.3, 0.95))}"
            points = round(_log(cost, 40, 320) / nodes)
            out.append({
                "kind": f"cmap/{path}",
                "argv": ["cmap", "--graph", graph, "--activation", act,
                         "--points", str(min(201, max(21, points))),
                         "--from", _fmt(_lin(kind.u("from", i), -1.0, 0.5))],
                "expect": OK,
            })
    # one depth-limit request per deck, alternating --eta and --T, so the
    # 90th percentile falls inside the curve requests, not between clusters
    if d.k % 2 == 0:
        kind = d.kind("ode/eta", 1, every=2)
        argv = ["ode", "--eta", _fmt(_lin(kind.u("eta", 0), 0.5, 0.95))]
    else:
        kind = d.kind("ode/T", 1, every=2)
        argv = ["ode", "--T", _fmt(_log(kind.u("T", 0), 0.5, 8.0)),
                "--c0", _fmt(_lin(kind.u("c0", 0), 0.0, 0.5))]
    out.append({"kind": "/".join(argv[:2]).replace("--", ""), "argv": argv, "expect": OK})
    return out


def _simulate_deck(d: _Deck, gdir: str) -> list[dict]:
    out = []
    # narrow (width < 2 * pairs) requests are the majority, so the median
    # sits on them; wide ones (width >= 2 * pairs) fill the tail
    for regime, n, tanh_strata in (("narrow", 13, (2, 5)), ("wide", 7, (3,))):
        kind = d.kind(regime, n)
        period = 8 if regime == "narrow" else 7
        for i in range(n):
            # pairs, width, depth, trials, init and activation all follow one
            # stratum, so the cost of the i-th smallest request is the same
            # in every cycle; trials fall as the network grows, which keeps
            # the largest request near a second
            size = kind.u("size", i)
            stratum = kind.stratum(size)
            pairs = _int(size, 10, 100)
            if regime == "narrow":
                width = int(_log(size, 16, 2 * pairs))
            else:
                width = int(_log(size, max(16, 2 * pairs), 1024))
            width = min(max(width, 16), 1024)
            act = ("tanh" if stratum % period in tanh_strata
                   else f"trelu:{_fmt(_lin(kind.u('a', i), 0.0, 0.5))}")
            init = "gaussian" if stratum % 2 == 0 else "suo"
            out.append({
                "kind": f"simulate/{regime}/{init}/{act.split(':')[0]}",
                "argv": ["simulate", "--activation", act,
                         "--width", str(width),
                         "--depth", str(_int(size, 10, 50)),
                         "--trials", str(_int(1.0 - size, 1, 3)),
                         "--pairs", str(pairs),
                         "--seed", str(d.rng.randrange(2**31)),
                         "--init", init,
                         "--c0", _fmt(_lin(kind.u("c0", i), -0.5, 0.9))],
                "expect": OK,
            })
    return out


def _defects_deck(d: _Deck, gdir: str) -> list[dict]:
    """Known defects: each request fails its check today.

    Softplus EOC, identity EOC and the CLI contract holes should end in an
    error exit with the JSON envelope; the smooth transforms past
    LOCAL_TARGETS should answer to the checkers' tolerance.  Not part of
    BENCHMARK.json, so the timed workloads hold only requests that pass.
    """
    env = _fail(None, rc=(1, 2))
    out = [
        {"kind": "defect/eoc-softplus",
         "argv": ["solve", "--method", "eoc", "--activation", "softplus",
                  "--sigma-b", _fmt(d.rng.uniform(0.0, 0.5))],
         "expect": _fail("unattainable-target")},
        {"kind": "defect/eoc-identity",
         "argv": ["solve", "--method", "eoc", "--activation", "identity"],
         "expect": env},
        {"kind": "defect/no-graph",
         "argv": ["solve", "--method", "tat-lrelu", "--eta", "0.5"],
         "expect": env},
        {"kind": "defect/simulate-c0-nan",
         "argv": ["simulate", "--activation", "trelu:0.2", "--width", "16",
                  "--depth", "5", "--trials", "1", "--pairs", "10", "--c0", "nan"],
         "expect": env},
        {"kind": "defect/negative-exponent-value",
         "argv": ["simulate", "--activation", "trelu:0.2", "--width", "16",
                  "--depth", "5", "--trials", "1", "--pairs", "10", "--c0", "-2.5e-05"],
         "expect": OK},
        {"kind": "defect/cmap-points-0",
         "argv": ["cmap", "--graph", "vanilla:2", "--activation", "tanh",
                  "--points", "0"],
         "expect": env},
    ]
    # beyond LOCAL_TARGETS the order-60 answers miss the doubled-order
    # moments by 1e-5 to 1e-2
    out += [
        {"kind": "defect/tat-smooth-accuracy",
         "argv": ["solve", "--method", "tat-smooth", "--graph", "vanilla:10",
                  "--activation", "softplus", "--tau", "5"],
         "expect": OK},
        {"kind": "defect/dks-accuracy",
         "argv": ["solve", "--method", "dks", "--graph", "vanilla:2",
                  "--activation", "tanh", "--zeta", "4"],
         "expect": OK},
    ]
    for name in ("edge_to_missing_node", "node_without_kind", "top_level_list"):
        out.append({
            "kind": f"defect/graph-{name.replace('_', '-')}",
            "argv": ["solve", "--method", "tat-lrelu", "--eta", "0.5",
                     "--graph", f"file:{gdir}/{name}.json"],
            "expect": env,
        })
    return out


_DECKS = {
    "solve": _solve_deck,
    "curve": _curve_deck,
    "simulate": _simulate_deck,
    "defects": _defects_deck,
}


def deck(workload: str, seed: int, k: int, gdir: str) -> list[dict]:
    """Deck k of a workload, in a seeded random order."""
    d = _Deck(workload, seed, k)
    reqs = _DECKS[workload](d, gdir)
    d.rng.shuffle(reqs)
    return reqs


def warmups(workload: str, gdir: str) -> list[dict]:
    """One cheap request per request kind, run untimed during set-up.

    They fill the cached quadrature nodes and touch every code path once.
    Softplus EOC is warmed by tanh EOC: the code path is the same.
    """
    if workload == "solve":
        argvs = [
            "solve --method tat-lrelu --graph vanilla:5 --eta 0.5",
            "solve --method tat-lrelu --graph resnet:4:0.5:transitions --eta 0.4",
            "solve --method tat-smooth --graph vanilla:5 --activation tanh --tau 0.3",
            "solve --method tat-smooth --graph resnet:2:0.5 --activation softplus --tau 0.3",
            "solve --method dks --graph vanilla:5 --activation tanh --zeta 1.5",
            "solve --method dks --graph resnet:2:0.5 --activation softplus --zeta 1.5",
            "solve --method eoc --activation tanh --sigma-b 0.1",
        ]
        extra = _error_requests(random.Random("warmup"), gdir)
    elif workload == "curve":
        argvs = [
            "cmap --graph vanilla:1 --activation trelu:0.2 --points 21",
            "cmap --graph vanilla:1 --activation tanh --points 21",
            "cmap --graph vanilla:1 --activation softplus --points 21",
            "cmap --graph vanilla:1 --activation relu --points 21",
            "cmap --graph vanilla:1 --activation lrelu:0.2 --points 21",
            "ode --eta 0.1",
            "ode --T 0.2 --c0 0.1",
        ]
        extra = []
    elif workload == "simulate":
        argvs = [
            f"simulate --activation {act} --width {w} --depth 3 --trials 1 "
            f"--pairs 10 --init {init}"
            for act in ("trelu:0.2", "tanh")
            for w in (16, 32)
            for init in ("gaussian", "suo")
        ]
        extra = []
    elif workload == "defects":
        argvs = ["solve --method eoc --activation tanh --sigma-b 0.1",
                 "simulate --activation trelu:0.2 --width 16 --depth 3 --trials 1 --pairs 10",
                 "cmap --graph vanilla:1 --activation tanh --points 21"]
        extra = []
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [{"kind": "warmup", "argv": a.split(), "expect": OK} for a in argvs] + extra
