"""Computational graphs of network architectures and their map structure.

A graph holds input / affine / nonlinear / normalized-sum nodes.  The
generalized global map ``eval_U`` substitutes an arbitrary non-decreasing
scalar function for the local C map at every nonlinear node, and ``eval_M``
maximizes it over the candidate subnetworks returned by
``enumerate_maximal_subnetworks``.

Each graph is lowered once, on first use, into flat programs (one for the
whole graph, one per candidate subnetwork) cached on the graph object; a
single interpreter, ``_run``, evaluates all of them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
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
    "enumerate_all_subnetworks",
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

_KINDS = (INPUT, AFFINE, NONLINEAR, SUM)

# Node count above which exhaustive subnetwork enumeration is refused for
# graphs of unknown family (enumeration is exponential in node count).
EXHAUSTIVE_NODE_LIMIT = 16


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
    # Builder metadata used by the subnetwork-candidate reduction.  "vanilla"
    # and "resnet" graphs get the family-specific candidate set; anything
    # else falls back to exhaustive enumeration.
    family: str | None = field(default=None, compare=False)
    branches: tuple[frozenset[int], ...] = field(default=(), compare=False)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def successors(self) -> list[list[int]]:
        succ: list[list[int]] = [[] for _ in self.nodes]
        for nid, ps in enumerate(self.preds):
            for p in ps:
                succ[p].append(nid)
        return succ

    def topo_order(self) -> list[int]:
        return list(self._order)

    def nonlinear_count(self) -> int:
        return sum(1 for n in self.nodes if n.kind == NONLINEAR)

    # Lazily built, cached in the instance __dict__: no dataclass field, so
    # == and hash are unchanged.  A property that raises caches nothing, so
    # an invalid graph raises on every call.

    @cached_property
    def _order(self) -> tuple[int, ...]:
        indeg = [len(ps) for ps in self.preds]
        succ = self.successors()
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
    def _whole_plan(self) -> _Plan:
        return _lower(self, _whole_graph_ref(self))

    @cached_property
    def _candidate_plans(self) -> tuple[_Plan, ...]:
        return tuple(_lower(self, ref) for ref in enumerate_maximal_subnetworks(self))


def validate_graph(g: NetworkGraph) -> None:
    """Check every structural invariant; raise GraphValidationError if any fails."""
    n = g.num_nodes
    if n == 0:
        raise GraphValidationError("empty graph")
    for node in g.nodes:
        if node.kind not in _KINDS:
            raise GraphValidationError(f"node {node.id}: unknown kind {node.kind!r}", node.id)
    if not 0 <= g.output < n:
        raise GraphValidationError(f"output id {g.output} out of range")

    inputs = [node.id for node in g.nodes if node.kind == INPUT]
    if len(inputs) == 0:
        raise GraphValidationError("no input node")
    if len(inputs) > 1:
        raise GraphValidationError(f"multiple inputs: nodes {inputs}")

    for node in g.nodes:
        ps = g.preds[node.id]
        if node.kind == INPUT and ps:
            raise GraphValidationError(f"node {node.id}: input node has predecessors", node.id)
        if node.kind in (AFFINE, NONLINEAR) and len(ps) != 1:
            raise GraphValidationError(
                f"node {node.id}: {node.kind} node needs exactly one predecessor", node.id
            )
        if node.kind == SUM:
            if len(ps) < 2:
                raise GraphValidationError(
                    f"node {node.id}: sum node needs >= 2 predecessors", node.id
                )
            if node.weights is None or len(node.weights) != len(ps):
                raise GraphValidationError(
                    f"node {node.id}: sum node needs one weight per predecessor", node.id
                )
            total = sum(w * w for w in node.weights)
            if abs(total - 1.0) > 1e-12:
                raise GraphValidationError(
                    f"node {node.id}: unnormalized sum weights (sum of squares = {total})",
                    node.id,
                )

    g.topo_order()  # raises on cycles

    # reachability: input -> every node -> output
    succ = g.successors()
    seen = {inputs[0]}
    stack = [inputs[0]]
    while stack:
        for s in succ[stack.pop()]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise GraphValidationError(f"nodes {missing} unreachable from input")

    reaches_out = {g.output}
    stack = [g.output]
    while stack:
        for p in g.preds[stack.pop()]:
            if p not in reaches_out:
                reaches_out.add(p)
                stack.append(p)
    if len(reaches_out) != n:
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
    return NetworkGraph(tuple(nodes), tuple(preds), prev, family="vanilla")


def build_rescaled_resnet(
    num_blocks: int,
    shortcut_weight: float,
    branch_nonlinear_count: int = 3,
    with_transitions: bool = False,
    final_nonlinear: bool = False,
    transition_indices: tuple[int, ...] | None = None,
) -> NetworkGraph:
    """Chain of residual blocks whose outputs are normalized sums.

    Each block computes w * shortcut + sqrt(1 - w^2) * branch, the branch
    holding `branch_nonlinear_count` combined layers.  With transitions, four
    designated blocks (evenly spaced by default) carry one combined layer on
    the shortcut, and `final_nonlinear` should normally be set so the graph
    matches the transition-block accounting.
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

    if with_transitions:
        if transition_indices is None:
            # evenly spaced; placement does not change U/M values, only counts
            transition_indices = tuple(
                round(i * (num_blocks - 1) / 3) for i in range(4)
            )
        if len(set(transition_indices)) != 4:
            raise ValueError("transition_indices must name 4 distinct blocks")
    else:
        transition_indices = ()

    nodes = [Node(0, INPUT)]
    preds: list[tuple[int, ...]] = [()]
    branches: list[frozenset[int]] = []
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
        branch_members = []
        for _ in range(branch_nonlinear_count):
            a = add(AFFINE, (cur,))
            nl = add(NONLINEAR, (a,))
            branch_members += [a, nl]
            cur = nl
        branches.append(frozenset(branch_members))

        if b in transition_indices:
            sa = add(AFFINE, (entry,))
            snl = add(NONLINEAR, (sa,))
            branches.append(frozenset([sa, snl]))
            shortcut_end = snl
        else:
            shortcut_end = entry
        prev = add(SUM, (shortcut_end, cur), weights=(w, branch_weight))

    if final_nonlinear:
        a = add(AFFINE, (prev,))
        prev = add(NONLINEAR, (a,))

    return NetworkGraph(
        tuple(nodes), tuple(preds), prev, family="resnet", branches=tuple(branches)
    )


# ---------------------------------------------------------------------------
# subnetwork enumeration


def _subnetwork_shape_key(g: NetworkGraph, ref: SubnetworkRef):
    """Hashable key identifying a subnetwork up to isomorphism.

    Canonical form: topologically ordered node kinds with locally renumbered
    predecessor lists (sum weights included, rounded).
    """
    members = ref.members
    order = [n for n in g._order if n in members]
    local = {nid: i for i, nid in enumerate(order)}
    key = []
    for nid in order:
        node = g.node(nid)
        ps = tuple(sorted(local[p] for p in g.preds[nid] if p in members))
        ws = None
        if node.weights is not None:
            ws = tuple(round(x, 12) for x in node.weights)
        key.append((node.kind, ps, ws))
    return tuple(key)


def _whole_graph_ref(g: NetworkGraph) -> SubnetworkRef:
    entry = next(n.id for n in g.nodes if n.kind == INPUT)
    return SubnetworkRef(entry, g.output, frozenset(range(g.num_nodes)))


def _branch_ref(g: NetworkGraph, members: frozenset[int]) -> SubnetworkRef:
    inner_exits = [
        n for n in members
        if not any(n in g.preds[m] for m in members)
    ]
    inner_entries = [n for n in members if not any(p in members for p in g.preds[n])]
    assert len(inner_entries) == 1 and len(inner_exits) == 1
    return SubnetworkRef(inner_entries[0], inner_exits[0], members)


def enumerate_all_subnetworks(g: NetworkGraph) -> list[SubnetworkRef]:
    """Exhaustively list all single-entry single-exit connected sub-DAGs.

    Exponential in node count; intended for graphs up to ~16 nodes.  A valid
    subnetwork has one entry node whose predecessors all lie outside the
    member set (sum nodes may not be entries, since they would receive more
    than one external input), all other members fully fed from inside, and a
    unique exit; no member other than the exit may feed a node outside the
    set, so the subnetwork exposes a single output.
    """
    succ = g.successors()
    n = g.num_nodes
    refs = []
    ids = list(range(n))
    for r in range(1, n + 1):
        for combo in itertools.combinations(ids, r):
            members = frozenset(combo)
            entries = []
            ok = True
            for nid in combo:
                ps = g.preds[nid]
                inside = sum(1 for p in ps if p in members)
                if inside == 0:
                    entries.append(nid)
                elif inside != len(ps):
                    ok = False
                    break
            if not ok or len(entries) != 1:
                continue
            entry = entries[0]
            if g.node(entry).kind == SUM and len(g.preds[entry]) > 1:
                continue
            exits = [nid for nid in combo if not any(s in members for s in succ[nid])]
            if len(exits) != 1:
                continue
            # single output: no member but the exit may feed the outside
            if any(
                nid != exits[0] and any(s not in members for s in succ[nid])
                for nid in combo
            ):
                continue
            if not _is_weakly_connected(g, members, succ):
                continue
            refs.append(SubnetworkRef(entry, exits[0], members))
    return refs


def _is_weakly_connected(g: NetworkGraph, members: frozenset[int], succ) -> bool:
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        nid = stack.pop()
        for other in itertools.chain(g.preds[nid], succ[nid]):
            if other in members and other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(members)


def enumerate_maximal_subnetworks(g: NetworkGraph) -> list[SubnetworkRef]:
    """Reduced candidate set for the subnetwork maximization.

    A subnetwork that composes serially with another to form a larger one is
    dominated and can be dropped.  For the builder families this leaves the
    whole network plus one representative per distinct branch shape; unknown
    topologies fall back to exhaustive enumeration (deduplicated by shape).
    """
    validate_graph(g)
    whole = _whole_graph_ref(g)
    if g.family == "vanilla":
        return [whole]
    if g.family == "resnet":
        candidates = [whole]
        seen_shapes = set()
        for members in g.branches:
            ref = _branch_ref(g, members)
            key = _subnetwork_shape_key(g, ref)
            if key not in seen_shapes:
                seen_shapes.add(key)
                candidates.append(ref)
        return candidates
    if g.num_nodes > EXHAUSTIVE_NODE_LIMIT:
        raise GraphValidationError(
            f"graph of unknown family with {g.num_nodes} nodes exceeds the "
            f"exhaustive enumeration limit ({EXHAUSTIVE_NODE_LIMIT})"
        )
    refs = enumerate_all_subnetworks(g)
    out, seen_shapes = [], set()
    for ref in refs:
        key = _subnetwork_shape_key(g, ref)
        if key not in seen_shapes:
            seen_shapes.add(key)
            out.append(ref)
    return out


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


def _lower(g: NetworkGraph, ref: SubnetworkRef) -> _Plan:
    slot: dict[int, int] = {}
    ops = []
    for nid in g._order:
        if nid not in ref.members:
            continue
        node = g.nodes[nid]
        if nid == ref.entry:
            # sum entries are excluded by the enumeration rules
            src = 0
        elif node.kind in (AFFINE, NONLINEAR):
            src = slot[g.preds[nid][0]]
        elif node.kind == SUM:
            srcs = tuple(slot[p] for p in g.preds[nid])
            ops.append((_SUM, srcs, tuple(w * w for w in node.weights)))
            slot[nid] = len(ops)
            continue
        else:  # pragma: no cover - input can only be the entry
            src = 0
        if node.kind == NONLINEAR:
            ops.append((_NL, src, None))
            src = len(ops)
        slot[nid] = src
    return _Plan(tuple(ops), slot[ref.exit])


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
    """Maximum of the generalized map over the candidate subnetworks."""
    return max(_run(plan, r, x) for plan in g._candidate_plans)


# ---------------------------------------------------------------------------
# JSON graph description files


def graph_from_dict(data: dict) -> NetworkGraph:
    """Build a graph from {nodes: [{id, kind, weights?}], edges, output}."""
    if not isinstance(data, dict):
        raise GraphValidationError(
            f"graph description must be an object, got {type(data).__name__}"
        )
    try:
        raw_nodes = data["nodes"]
        edges = data["edges"]
        output = int(data["output"])
    except KeyError as e:
        raise GraphValidationError(f"graph description missing field {e}") from e
    if not (isinstance(raw_nodes, (list, tuple)) and isinstance(edges, (list, tuple))):
        raise GraphValidationError("graph description needs lists of nodes and edges")
    for i, n in enumerate(raw_nodes):
        if not (isinstance(n, dict) and "id" in n and "kind" in n):
            raise GraphValidationError(f"nodes[{i}] needs an 'id' and a 'kind'")
    ids = [int(n["id"]) for n in raw_nodes]
    if sorted(ids) != list(range(len(ids))):
        raise GraphValidationError("node ids must be 0..n-1")
    nodes = [None] * len(ids)
    for n in raw_nodes:
        weights = tuple(float(w) for w in n["weights"]) if "weights" in n else None
        nodes[int(n["id"])] = Node(int(n["id"]), str(n["kind"]), weights)
    preds: list[list[int]] = [[] for _ in nodes]
    for edge in edges:
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2):
            raise GraphValidationError(f"edge {edge!r} is not a [from, to] pair")
        frm, to = int(edge[0]), int(edge[1])
        if not (0 <= frm < len(nodes) and 0 <= to < len(nodes)):
            raise GraphValidationError(f"edge {edge!r} names a node outside 0..{len(nodes) - 1}")
        preds[to].append(frm)
    g = NetworkGraph(tuple(nodes), tuple(tuple(p) for p in preds), output)
    validate_graph(g)
    return g


def load_graph_json(path) -> NetworkGraph:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))
