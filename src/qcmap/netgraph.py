"""Computational graphs of network architectures and their map structure.

A graph holds input / affine / nonlinear / normalized-sum nodes.  The
generalized global map ``eval_U`` substitutes an arbitrary non-decreasing
scalar function for the local C map at every nonlinear node, and ``eval_M``
maximizes it over the candidate subnetworks returned by
``enumerate_maximal_subnetworks``.

The candidates come from the graph's structure alone.  A subnetwork is a
single-entry single-exit region (e, x): e dominates x, x post-dominates e,
and e is not a sum.  Extending a region serially, at its exit or before its
entry, never lowers its value when the rule r is non-decreasing with
r(y) >= y, so only maximal regions are kept, one per distinct program:
affine nodes emit no op, so regions that differ only by affine nodes count
once.

Each graph is lowered once, on first use, into flat programs (one for the
whole graph, one per distinct candidate subnetwork) cached on the graph
object; a single interpreter, ``_run``, evaluates all of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphValidationError

__all__ = [
    "Node",
    "NetworkGraph",
    "SubnetworkRef",
    "INPUT",
    "AFFINE",
    "NONLINEAR",
    "SUM",
    "build_vanilla",
    "build_rescaled_resnet",
    "validate_graph",
    "enumerate_maximal_subnetworks",
    "eval_U",
    "eval_U_with_derivative",
    "eval_M",
    "load_graph_json",
    "graph_from_dict",
]

INPUT = "input"
AFFINE = "affine"
NONLINEAR = "nonlinear"
SUM = "sum"


@dataclass(frozen=True)
class Node:
    id: int
    kind: str
    weights: tuple[float, ...] | None = None  # sum nodes only, one per pred


@dataclass(frozen=True)
class SubnetworkRef:
    """Single-entry single-exit connected sub-DAG of a graph."""

    entry: int
    exit: int
    members: frozenset[int]


@dataclass(frozen=True)
class NetworkGraph:
    nodes: tuple[Node, ...]
    preds: tuple[tuple[int, ...], ...]  # preds[i] lists predecessors of node i
    output: int

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def successors(self) -> list[list[int]]:
        return [list(s) for s in self._succ]

    def topo_order(self) -> list[int]:
        return list(self._order)

    def nonlinear_count(self) -> int:
        return sum(1 for n in self.nodes if n.kind == NONLINEAR)

    # Lazily built, cached in the instance __dict__: no dataclass field, so
    # == and hash are unchanged.  A property that raises caches nothing, so
    # an invalid graph raises on every call.

    @cached_property
    def _succ(self) -> list[list[int]]:
        """succ[i] lists the successors of node i; shared, never mutated."""
        succ: list[list[int]] = [[] for _ in self.nodes]
        for nid, ps in enumerate(self.preds):
            for p in ps:
                succ[p].append(nid)
        return succ

    @cached_property
    def _order(self) -> tuple[int, ...]:
        indeg = [len(ps) for ps in self.preds]
        succ = self._succ
        ready = [i for i, d in enumerate(indeg) if d == 0]
        order: list[int] = []
        while ready:
            n = ready.pop()
            order.append(n)
            for s in succ[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self.nodes):
            raise GraphValidationError("graph contains a cycle")
        return tuple(order)

    @cached_property
    def _rank(self) -> list[int]:
        """rank[v]: the position of node v in the topological order."""
        rank = [0] * len(self.nodes)
        for i, v in enumerate(self._order):
            rank[v] = i
        return rank

    @cached_property
    def _valid(self) -> None:
        validate_graph(self)

    @cached_property
    def _whole_plan(self) -> _Plan:
        # a valid graph's only source is its input, order[0]
        self._valid
        return _lower(self, self._order[0], self.output)[0]

    @cached_property
    def _candidate_plans(self) -> dict[_Plan, tuple[int, int, list[int]]]:
        return _compile(self)


def validate_graph(g: NetworkGraph) -> None:
    """Check every structural invariant; raise GraphValidationError if any fails."""
    n = g.num_nodes
    if n == 0:
        raise GraphValidationError("empty graph")
    if not 0 <= g.output < n:
        raise GraphValidationError(f"output id {g.output} out of range")

    inputs = []
    for node, ps in zip(g.nodes, g.preds):
        kind = node.kind
        if kind == INPUT:
            if ps:
                raise GraphValidationError(f"node {node.id}: input node has predecessors", node.id)
            inputs.append(node.id)
        elif kind == AFFINE or kind == NONLINEAR:
            if len(ps) != 1:
                raise GraphValidationError(
                    f"node {node.id}: {kind} node needs exactly one predecessor", node.id
                )
        elif kind == SUM:
            if len(ps) < 2:
                raise GraphValidationError(
                    f"node {node.id}: sum node needs >= 2 predecessors", node.id
                )
            if node.weights is None or len(node.weights) != len(ps):
                raise GraphValidationError(
                    f"node {node.id}: sum node needs one weight per predecessor", node.id
                )
            total = sum(w * w for w in node.weights)
            if not abs(total - 1.0) <= 1e-12:  # NaN fails too
                raise GraphValidationError(
                    f"node {node.id}: unnormalized sum weights (sum of squares = {total})",
                    node.id,
                )
        else:
            raise GraphValidationError(f"node {node.id}: unknown kind {kind!r}", node.id)
    if len(inputs) == 0:
        raise GraphValidationError("no input node")
    if len(inputs) > 1:
        raise GraphValidationError(f"multiple inputs: nodes {inputs}")

    # Acyclic, and only the input lacks predecessors: all nodes reach back to
    # it.  In a DAG every node reaches a node without successors, so all of
    # them reach the output exactly when it is the only such node.
    g._order  # raises on cycles
    if [v for v, s in enumerate(g._succ) if not s] != [g.output]:
        reaches_out = {g.output}
        stack = [g.output]
        while stack:
            for p in g.preds[stack.pop()]:
                if p not in reaches_out:
                    reaches_out.add(p)
                    stack.append(p)
        dangling = sorted(set(range(n)) - reaches_out)
        raise GraphValidationError(f"nodes {dangling} cannot reach the output")


# ---------------------------------------------------------------------------
# builders


def build_vanilla(depth: int) -> NetworkGraph:
    """Sequential network of `depth` combined (affine + nonlinear) layers."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    nodes = [Node(0, INPUT)]
    preds: list[tuple[int, ...]] = [()]
    prev = 0
    for _ in range(depth):
        a = len(nodes)
        nodes.append(Node(a, AFFINE))
        preds.append((prev,))
        nl = len(nodes)
        nodes.append(Node(nl, NONLINEAR))
        preds.append((a,))
        prev = nl
    return NetworkGraph(tuple(nodes), tuple(preds), prev)


def build_rescaled_resnet(
    num_blocks: int,
    shortcut_weight: float,
    branch_nonlinear_count: int = 3,
    with_transitions: bool = False,
    final_nonlinear: bool = False,
) -> NetworkGraph:
    """Chain of residual blocks whose outputs are normalized sums.

    Each block computes w * shortcut + sqrt(1 - w^2) * branch, the branch
    holding `branch_nonlinear_count` combined layers.  With transitions, four
    evenly spaced blocks carry one combined layer on the shortcut, and
    `final_nonlinear` should normally be set so the graph matches the
    transition-block accounting.
    """
    w = shortcut_weight
    if not -1.0 <= w <= 1.0:
        raise ValueError(f"shortcut weight must be in [-1, 1], got {w}")
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    if branch_nonlinear_count < 1:
        raise ValueError(f"branch_nonlinear_count must be >= 1, got {branch_nonlinear_count}")
    if with_transitions and num_blocks < 4:
        raise ValueError("with_transitions requires at least 4 blocks")

    # four evenly spaced blocks, distinct since num_blocks >= 4; placement
    # does not change U/M values, only counts
    transitions = (
        {round(i * (num_blocks - 1) / 3) for i in range(4)} if with_transitions else set()
    )

    nodes = [Node(0, INPUT)]
    preds: list[tuple[int, ...]] = [()]
    branch_weight = math.sqrt(max(0.0, 1.0 - w * w))
    prev = 0

    def add(kind: str, ps: tuple[int, ...], weights=None) -> int:
        nid = len(nodes)
        nodes.append(Node(nid, kind, weights))
        preds.append(ps)
        return nid

    for b in range(num_blocks):
        entry = prev
        cur = entry
        for _ in range(branch_nonlinear_count):
            cur = add(NONLINEAR, (add(AFFINE, (cur,)),))

        if b in transitions:
            shortcut_end = add(NONLINEAR, (add(AFFINE, (entry,)),))
        else:
            shortcut_end = entry
        prev = add(SUM, (shortcut_end, cur), weights=(w, branch_weight))

    if final_nonlinear:
        a = add(AFFINE, (prev,))
        prev = add(NONLINEAR, (a,))

    return NetworkGraph(tuple(nodes), tuple(preds), prev)


# ---------------------------------------------------------------------------
# subnetwork enumeration


def _immediate_dominators(order, preds, rank) -> list[int]:
    """Immediate dominators in a DAG whose only source is order[0]; rank[v]
    increases along order.

    One pass of the Cooper-Harvey-Kennedy intersection is exact here: every
    node is visited after all of its predecessors.  The root maps to itself.
    """
    idom = [order[0]] * len(order)
    for v in order[1:]:
        ps = preds[v]
        d = ps[0]
        for p in ps[1:]:
            while d != p:
                while rank[d] > rank[p]:
                    d = idom[d]
                while rank[p] > rank[d]:
                    p = idom[p]
        idom[v] = d
    return idom


def _compile(g: NetworkGraph) -> dict[_Plan, tuple[int, int, list[int]]]:
    """The maximal subnetworks of g lowered, one per distinct program:
    {plan: (entry, exit, members)}, the whole graph first.

    On a valid graph a single-entry single-exit connected sub-DAG is exactly
    a pair (e, x) with e dominating x, x post-dominating e and e not a sum;
    its members are the nodes on e -> x paths.  A pair is kept only when
    neither end can move: x is the furthest post-dominator of e that e still
    dominates, and e the earliest non-sum dominator of x that x still
    post-dominates.  Every other subnetwork is a serial piece of a kept
    one (see `eval_M` for why dropping it is exact).  Pairs that lower to
    the same program take the same value under every rule, so only the
    first is kept; as affine nodes emit no op, regions that differ only by
    affine nodes count once.
    """
    whole = g._whole_plan  # validates g first
    order, rank, nodes = g._order, g._rank, g.nodes
    idom = _immediate_dominators(order, g.preds, rank)
    ipdom = _immediate_dominators(order[::-1], g._succ, [-r for r in rank])

    # far[v]: furthest post-dominator of v that v dominates.  Along the
    # post-dominator chain these form a prefix, and v dominates ipdom[v]
    # exactly when it is that node's immediate dominator.
    far = list(range(g.num_nodes))
    for v in reversed(order):
        u = ipdom[v]
        if u != v and idom[u] == v:
            far[v] = far[u]
    # first[v]: earliest non-sum dominator of v that v post-dominates.
    first: list[int | None] = [None] * g.num_nodes
    for v in order:
        d = idom[v]
        if d != v and ipdom[d] == v and first[d] is not None:
            first[v] = first[d]
        elif nodes[v].kind != SUM:
            first[v] = v

    # the whole graph is the pair (order[0], order[-1]) and holds every node
    out = {whole: (order[0], g.output, list(order))}
    for e in order[1:]:
        x = far[e]
        if first[x] == e:
            plan, members = _lower(g, e, x)
            out.setdefault(plan, (e, x, members))
    return out


def enumerate_maximal_subnetworks(g: NetworkGraph) -> list[SubnetworkRef]:
    """Maximal subnetworks, one per distinct program, from the graph's
    structure; the whole graph comes first (see `_compile`)."""
    return [SubnetworkRef(e, x, frozenset(members))
            for e, x, members in g._candidate_plans.values()]


# ---------------------------------------------------------------------------
# generalized map evaluation

_NL = 0   # opcode: r applied to one slot
_SUM = 1  # opcode: square-weighted sum of several slots


@dataclass(frozen=True)
class _Plan:
    """One subnetwork lowered to straight-line code.

    Slot 0 holds the argument x; op i writes slot i + 1.  Each op is
    (_NL, src_slot, None) or (_SUM, src_slots, squared_weights).  Affine
    nodes (and an input or affine entry) emit no op: they alias the slot
    they pass through.
    """

    ops: tuple
    exit: int


def _lower(g: NetworkGraph, entry: int, exit_: int) -> tuple[_Plan, list[int]]:
    """The region (entry, exit) as a program, and its members in topological
    order.

    The members are the nodes on entry -> exit paths.  As exit post-dominates
    entry, they are the nodes from entry to exit in the topological order
    that entry reaches.  There, each member but the entry has only members
    as predecessors and every other node has none, so a node's first
    predecessor decides.  The entry is never a sum (see `_compile`).
    """
    rank = g._rank
    slot: dict[int, int] = {}
    ops, members = [], []
    for v in g._order[rank[entry] : rank[exit_] + 1]:
        node, ps = g.nodes[v], g.preds[v]
        if v == entry:
            src = 0
        elif ps[0] not in slot:
            continue
        elif node.kind == SUM:
            ops.append((_SUM, tuple(slot[p] for p in ps), tuple(w * w for w in node.weights)))
            src = len(ops)
        else:
            src = slot[ps[0]]
        if node.kind == NONLINEAR:
            ops.append((_NL, src, None))
            src = len(ops)
        slot[v] = src
        members.append(v)
    return _Plan(tuple(ops), slot[exit_]), members


def _run(plan: _Plan, r, x, r_prime=None):
    """Evaluate a plan at x; with r_prime, also carry dU/dx forward.

    Sums add (w*w) * v in predecessor order starting from 0, the order of
    the definition, so results are reproducible bit for bit.
    """
    vals = [x]
    if r_prime is None:
        for op, src, w2 in plan.ops:
            if op == _NL:
                vals.append(r(vals[src]))
            else:
                vals.append(sum(w * vals[s] for w, s in zip(w2, src)))
        return vals[plan.exit]
    grads = [np.ones_like(np.asarray(x, dtype=float))]
    for op, src, w2 in plan.ops:
        if op == _NL:
            vals.append(r(vals[src]))
            grads.append(r_prime(vals[src]) * grads[src])
        else:
            vals.append(sum(w * vals[s] for w, s in zip(w2, src)))
            grads.append(sum(w * grads[s] for w, s in zip(w2, src)))
    return vals[plan.exit], grads[plan.exit]


def eval_U(g: NetworkGraph, r, x):
    """Generalized global map: substitute r for the local C map over g.

    Input maps to x, affine nodes to the identity, nonlinear nodes to r, and
    normalized sums to the square-weighted sum of their inputs.  With r equal
    to the local C map this evaluates the network's global C map at x.
    """
    return _run(g._whole_plan, r, x)


def eval_U_with_derivative(g: NetworkGraph, r, r_prime, x):
    """Forward-mode evaluation of (U(x), dU/dx) over the whole graph."""
    return _run(g._whole_plan, r, x, r_prime)


def eval_M(g: NetworkGraph, r, x):
    """Maximum of the generalized map over the candidate subnetworks.

    This equals the maximum over every subnetwork of g when r is
    non-decreasing and r(y) >= y at the values reached from x (the C maps at
    0, ``1 + y`` at 0, ``m * y`` with m >= 1 at 1).  Then each piece that a
    serial extension adds maps y to at least y, and the region it extends is
    non-decreasing, so the extension is never smaller.  The reduction in
    `enumerate_maximal_subnetworks` drops only such extended pieces.
    """
    return max(_run(plan, r, x) for plan in g._candidate_plans)


# ---------------------------------------------------------------------------
# JSON graph description files


def _index(value, what: str) -> int:
    """An integral JSON number as an int; anything else is rejected."""
    if isinstance(value, float) and value.is_integer() or (
        isinstance(value, int) and not isinstance(value, bool)
    ):
        return int(value)
    raise GraphValidationError(f"{what} must be an integer, got {value!r}")


def _weights(raw, nid: int) -> tuple[float, ...] | None:
    if raw is None:
        return None
    if isinstance(raw, list):
        try:
            return tuple(float(w) for w in raw)
        except (TypeError, ValueError, OverflowError):
            pass
    raise GraphValidationError(f"node {nid}: weights must be a list of numbers", nid)


def graph_from_dict(data: dict) -> NetworkGraph:
    """Build a graph from {nodes: [{id, kind, weights?}], edges, output}."""
    if not isinstance(data, dict):
        raise GraphValidationError(
            f"graph description must be an object, got {type(data).__name__}"
        )
    try:
        raw_nodes = data["nodes"]
        edges = data["edges"]
        output = _index(data["output"], "output")
    except KeyError as e:
        raise GraphValidationError(f"graph description missing field {e}") from e
    if not (isinstance(raw_nodes, (list, tuple)) and isinstance(edges, (list, tuple))):
        raise GraphValidationError("graph description needs lists of nodes and edges")
    for i, n in enumerate(raw_nodes):
        if not (isinstance(n, dict) and "id" in n and "kind" in n):
            raise GraphValidationError(f"nodes[{i}] needs an 'id' and a 'kind'")
    ids = [_index(n["id"], f"nodes[{i}] id") for i, n in enumerate(raw_nodes)]
    if sorted(ids) != list(range(len(ids))):
        raise GraphValidationError("node ids must be 0..n-1")
    nodes = [None] * len(ids)
    for nid, n in zip(ids, raw_nodes):
        nodes[nid] = Node(nid, str(n["kind"]), _weights(n.get("weights"), nid))
    preds: list[list[int]] = [[] for _ in nodes]
    for edge in edges:
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2):
            raise GraphValidationError(f"edge {edge!r} is not a [from, to] pair")
        frm, to = (_index(end, f"edge {edge!r} endpoint") for end in edge)
        if not (0 <= frm < len(nodes) and 0 <= to < len(nodes)):
            raise GraphValidationError(f"edge {edge!r} names a node outside 0..{len(nodes) - 1}")
        preds[to].append(frm)
    g = NetworkGraph(tuple(nodes), tuple(tuple(p) for p in preds), output)
    g._valid
    return g


def load_graph_json(path) -> NetworkGraph:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))
