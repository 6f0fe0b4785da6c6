"""Span tracing of qcmap from outside the package.

`Tracer.install()` replaces every public function of the qcmap modules
(the names in each module's ``__all__``) in every qcmap namespace that
holds it, plus the public methods listed in ``METHODS``, with a wrapper
that records one span per call: name, start, end, parent span and request
id.  Spans live in flat arrays in memory and are written out once, by
`save()`.  `uninstall()` restores the originals, so untraced runs never
pay for the wrappers.

Private helpers stay unwrapped; their time counts as self time of the
public function that called them.  Everything runs on one thread with no
queues, so no layer has waiting time; self time is busy time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# layers in call order; a span's layer is the first component of its name
LAYERS = ("activations", "kernel_maps", "netgraph", "solvers",
          "ode_limit", "finite_width", "cli")

# public methods traced besides the module-level functions
METHODS = {
    "kernel_maps": {"QuadratureRule": ("expect", "expect2")},
    "netgraph": {"NetworkGraph": ("topo_order", "successors")},
}
ACTIVATION_METHODS = ("value", "deriv1", "deriv2")


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another on a single thread, so the
    part of the parent's interval they cover is the sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")   # work size recorded by some spans
        self.err = array("b")   # 1 if the call raised
        self.stack = [-1]
        self.req_id = -1
        self.counts: Counter = Counter()
        self.local_q_keys: set = set()
        self.graph_keys: set = set()
        self._patches: list = []

    # -- recording --------------------------------------------------------

    def _intern(self, qual: str) -> int:
        if qual not in self._ids:
            self._ids[qual] = len(self.names)
            self.names.append(qual)
        return self._ids[qual]

    def wrap(self, fn, qual: str, pre=None):
        """Span-recording wrapper of fn.

        pre(args, kwargs) -> (args, kwargs, aux) may replace the arguments
        (to count callback evaluations) and returns the span's work size.
        """
        name_id = self._intern(qual)
        names, parents, reqs = self.name, self.parent, self.req
        starts, ends, auxs, errs = self.start, self.end, self.aux, self.err
        stack, clock, tracer = self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            aux = 0.0
            if pre is not None:
                args, kwargs, aux = pre(args, kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            reqs.append(tracer.req_id)
            auxs.append(aux)
            errs.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errs[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _counting(self, f, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return counted

    def repair(self) -> None:
        """Make the span arrays consistent after a request was interrupted
        by a signal, which may land between two appends of a wrapper."""
        cols = (self.name, self.parent, self.req, self.aux, self.err, self.end, self.start)
        n = min(len(c) for c in cols)
        for c in cols:
            del c[n:]
        for i in range(n):
            if self.end[i] < self.start[i]:
                self.end[i] = self.start[i]
        self.stack[:] = [-1]

    def _pre_hooks(self):
        """Argument hooks that record work sizes and distinct inputs."""
        def size_of(pos):
            def pre(args, kwargs):
                return args, kwargs, float(np.size(args[pos])) if len(args) > pos else 0.0
            return pre

        def local_q(args, kwargs):
            self.local_q_keys.add((args[0], float(args[2])))
            return args, kwargs, 0.0

        def enumerate_max(args, kwargs):
            self.graph_keys.add(hash(args[0]))
            return args, kwargs, 0.0

        def bisect(args, kwargs):
            return (self._counting(args[0], "bisect.f_evals"),) + args[1:], kwargs, 0.0

        def newton(args, kwargs):
            return (self._counting(args[0], "newton.F_evals"),) + args[1:], kwargs, 0.0

        def run_simulation(args, kwargs):
            cfg = args[0]
            return args, kwargs, float(cfg.trials * cfg.pairs_per_trial * cfg.depth)

        return {
            "kernel_maps.local_c": size_of(2),
            "kernel_maps.local_q": local_q,
            "netgraph.enumerate_maximal_subnetworks": enumerate_max,
            "solvers.bisect": bisect,
            "solvers.solve_nonlinear_system": newton,
            "finite_width.run_simulation": run_simulation,
        }

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        import qcmap
        from qcmap.activations import Activation

        hooks = self._pre_hooks()
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"qcmap.{layer}"]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    qual = f"{layer}.{name}"
                    replaced[obj] = self.wrap(obj, qual, hooks.get(qual))
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in meths:
                    self._patch(cls, m, self.wrap(cls.__dict__[m], f"{layer}.{cls_name}.{m}"))
        act_mod = sys.modules["qcmap.activations"]
        value_size = lambda args, kwargs: (args, kwargs, float(np.size(args[1])))
        for obj in vars(act_mod).values():
            if inspect.isclass(obj) and issubclass(obj, Activation) and obj is not Activation:
                for m in ACTIVATION_METHODS:
                    if m in obj.__dict__:
                        pre = value_size if m == "value" else None
                        qual = f"activations.{obj.__name__}.{m}"
                        self._patch(obj, m, self.wrap(obj.__dict__[m], qual, pre))
        # every namespace that imported a public function gets the wrapper
        namespaces = [qcmap] + [sys.modules[f"qcmap.{layer}"] for layer in LAYERS]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in replaced:
                    self._patch(ns, attr, replaced[val])

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "req": np.frombuffer(self.req, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "aux": np.frombuffer(self.aux, dtype=np.float64).copy(),
            "err": np.frombuffer(self.err, dtype=np.int8).copy(),
        }

    def save(self, path, kinds: list[str]) -> None:
        np.savez(path, names=np.array(self.names), kinds=np.array(kinds),
                 **self.arrays())


# ---------------------------------------------------------------------------
# per-layer metrics


def _layer_of(qual: str) -> str:
    return qual.split(".", 1)[0]


def _method_of(qual: str) -> str:
    return qual.rsplit(".", 1)[1]


def _span_kinds(a: dict, kinds: list[str]) -> np.ndarray:
    """Request kind of every span ("" for spans outside a request)."""
    return np.array(kinds + [""])[a["req"]]


def layer_metrics(tracer: Tracer, records: list[dict], kinds: list[str],
                  overhead: float) -> dict:
    """Per-layer metrics of one traced pass as {name: (value, unit)}.

    records[i] is the outcome of request i (rc, outcome, out_bytes) and
    kinds[i] its kind; overhead is traced ÷ untraced wall time.
    """
    a = tracer.arrays()
    names = tracer.names
    dur = a["end"] - a["start"]
    self_t = self_times(a["parent"], dur)
    name_arr = a["name"]

    def ids(pred):
        return np.array([i for i, q in enumerate(names) if pred(q)], dtype=np.int32)

    def mask(pred):
        return np.isin(name_arr, ids(pred))

    def exact(q):
        return mask(lambda n: n == q)

    def ms(m):
        return float(self_t[m].sum() * 1e3)

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    # activations
    value = mask(lambda q: q.startswith("activations.") and _method_of(q) == "value")
    deriv = mask(lambda q: q.startswith("activations.") and _method_of(q) in ("deriv1", "deriv2"))
    put("activations.value.calls", value.sum(), "count")
    put("activations.value.elements", a["aux"][value].sum(), "count")
    put("activations.value.self_ms", ms(value), "ms")
    put("activations.deriv.self_ms", ms(deriv), "ms")
    # kernel maps
    lc = exact("kernel_maps.local_c")
    put("kernel_maps.local_c.calls", lc.sum(), "count")
    put("kernel_maps.local_c.points", a["aux"][lc].sum(), "count")
    put("kernel_maps.local_c.self_ms", ms(lc), "ms")
    for short, qual in (("expect2", "kernel_maps.QuadratureRule.expect2"),
                        ("expect", "kernel_maps.QuadratureRule.expect")):
        sel = exact(qual)
        put(f"kernel_maps.{short}.calls", sel.sum(), "count")
        put(f"kernel_maps.{short}.self_ms", ms(sel), "ms")
    lq = exact("kernel_maps.local_q").sum()
    put("kernel_maps.local_q.calls", lq, "count")
    put("kernel_maps.local_q.distinct_ratio",
        len(tracer.local_q_keys) / lq if lq else 0.0, "ratio")
    lr = exact("kernel_maps.lrelu_c_map")
    put("kernel_maps.lrelu_c_map.calls", lr.sum(), "count")
    put("kernel_maps.lrelu_c_map.self_ms", ms(lr), "ms")
    put("kernel_maps.cstats.calls", exact("kernel_maps.cstats").sum(), "count")
    # graph
    for short in ("eval_M", "enumerate_maximal_subnetworks", "topo_order",
                  "validate_graph", "eval_U"):
        qual = "netgraph.NetworkGraph.topo_order" if short == "topo_order" else f"netgraph.{short}"
        sel = exact(qual)
        put(f"netgraph.{short}.calls", sel.sum(), "count")
        put(f"netgraph.{short}.self_ms", ms(sel), "ms")
        if short == "enumerate_maximal_subnetworks":
            n = sel.sum()
            put("netgraph.enumerate_maximal_subnetworks.distinct_ratio",
                len(tracer.graph_keys) / n if n else 0.0, "ratio")
    # solvers
    for short in ("solve_tat_lrelu", "solve_tat_smooth", "solve_dks", "solve_eoc_smooth"):
        put(f"solvers.{short}.self_ms", ms(exact(f"solvers.{short}")), "ms")
    put("solvers.bisect.calls", exact("solvers.bisect").sum(), "count")
    put("solvers.bisect.f_evals", tracer.counts["bisect.f_evals"], "count")
    newton = exact("solvers.solve_nonlinear_system")
    n_newton = newton.sum()
    n_fail = (a["err"][newton] == 1).sum()
    put("solvers.newton.calls", n_newton, "count")
    put("solvers.newton.F_evals", tracer.counts["newton.F_evals"], "count")
    put("solvers.newton.failures", n_fail, "count")
    put("solvers.multistart.useful_ratio",
        (n_newton - n_fail) / n_newton if n_newton else 0.0, "ratio")
    # errors that leave the solver layer: a raising solvers span whose
    # caller is outside solvers
    solver_ids = ids(lambda q: _layer_of(q) == "solvers")
    raised = np.isin(name_arr, solver_ids) & (a["err"] == 1)
    par = a["parent"][raised]
    outside = (par < 0) | ~np.isin(name_arr[np.maximum(par, 0)], solver_ids)
    put("solvers.errors", outside.sum(), "count")
    # depth-limit ODE
    for short in ("find_T", "integrate_psi", "ode_rhs"):
        sel = exact(f"ode_limit.{short}")
        put(f"ode_limit.{short}.calls", sel.sum(), "count")
        put(f"ode_limit.{short}.self_ms", ms(sel), "ms")
    # finite-width lab
    rs = exact("finite_width.run_simulation")
    put("finite_width.run_simulation.calls", rs.sum(), "count")
    put("finite_width.run_simulation.self_ms", ms(rs), "ms")
    fw = mask(lambda q: _layer_of(q) == "finite_width")
    span_kind = _span_kinds(a, kinds)
    for regime in ("wide", "narrow"):
        sel = fw & np.char.startswith(span_kind, f"simulate/{regime}/")
        put(f"finite_width.{regime}.self_ms", ms(sel), "ms")
    put("finite_width.pair_layers", a["aux"][rs].sum(), "count")
    sw = exact("finite_width.sample_weight_matrix")
    put("finite_width.sample_weight_matrix.calls", sw.sum(), "count")
    put("finite_width.sample_weight_matrix.self_ms", ms(sw), "ms")
    put("finite_width.theory_trace.self_ms", ms(exact("finite_width.theory_trace")), "ms")
    # command line
    put("cli.run.calls", exact("cli.run").sum(), "count")
    put("cli.self_ms", ms(mask(lambda q: _layer_of(q) == "cli")), "ms")
    put("cli.exit1", sum(r["rc"] == 1 for r in records), "count")
    put("cli.exit2", sum(r["rc"] == 2 for r in records), "count")
    put("cli.uncaught", sum(r["outcome"] == "exception" for r in records), "count")
    put("cli.output_bytes", sum(r["out_bytes"] for r in records), "count")
    # whole layers, and the cost of tracing itself
    for layer in LAYERS[:-1]:
        put(f"{layer}.self_ms", ms(mask(lambda q, l=layer: _layer_of(q) == l)), "ms")
    put("trace.spans", dur.size, "count")
    put("trace.overhead", overhead, "x")
    return m


def attribution(tracer: Tracer, kinds: list[str], top: int = 4) -> dict:
    """Per request kind: request time, self-time share per layer, and the
    public functions with the largest inclusive time."""
    a = tracer.arrays()
    names = tracer.names
    dur = a["end"] - a["start"]
    self_t = self_times(a["parent"], dur)
    layer_idx = np.array([LAYERS.index(_layer_of(q)) for q in names], dtype=np.int32)
    span_kind = _span_kinds(a, kinds)
    out = {}
    for kind in sorted(set(kinds)):
        sel = span_kind == kind
        roots = sel & (a["parent"] < 0)
        total = float(dur[roots].sum())
        if total <= 0:
            continue
        by_layer = np.bincount(layer_idx[a["name"][sel]], weights=self_t[sel],
                               minlength=len(LAYERS))
        by_name = np.bincount(a["name"][sel], weights=dur[sel], minlength=len(names))
        order = np.argsort(by_name)[::-1][: top + 1]
        out[kind] = {
            "requests": int(roots.sum()),
            "ms": total * 1e3,
            "layer_share": {LAYERS[i]: float(by_layer[i] / total) for i in range(len(LAYERS))},
            "inclusive_share": {names[i]: float(by_name[i] / total)
                                for i in order if names[i] != "cli.run" and by_name[i] > 0},
        }
    return out
