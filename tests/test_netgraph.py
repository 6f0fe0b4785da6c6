"""Tests for graph construction, validation, and generalized map evaluation."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from qcmap import (
    GraphValidationError,
    NetworkGraph,
    Node,
    build_rescaled_resnet,
    build_vanilla,
    enumerate_maximal_subnetworks,
    eval_M,
    eval_U,
    eval_U_with_derivative,
    lrelu_c_map,
    lrelu_c_map_derivative,
    validate_graph,
)
from qcmap import netgraph
from qcmap.netgraph import AFFINE, INPUT, NONLINEAR, SUM, graph_from_dict


# ---------------------------------------------------------------------------
# independent oracle: exhaustive subnetwork enumeration + direct evaluation,
# written from the definition (single entry fed only from outside, all other
# members fed entirely from inside, single exit that is the only member
# allowed to feed the outside, weakly connected; a sum node cannot be an
# entry because it would need more than one external input).


def oracle_subnetworks(g):
    succ = [[] for _ in g.nodes]
    for nid, ps in enumerate(g.preds):
        for p in ps:
            succ[p].append(nid)
    found = []
    ids = range(len(g.nodes))
    for r in range(1, len(g.nodes) + 1):
        for combo in itertools.combinations(ids, r):
            members = set(combo)
            entries, ok = [], True
            for nid in combo:
                inside = [p for p in g.preds[nid] if p in members]
                if not inside:
                    entries.append(nid)
                elif len(inside) != len(g.preds[nid]):
                    ok = False
                    break
            if not ok or len(entries) != 1:
                continue
            if g.nodes[entries[0]].kind == SUM and len(g.preds[entries[0]]) > 1:
                continue
            exits = [n for n in combo if not any(s in members for s in succ[n])]
            if len(exits) != 1:
                continue
            if any(
                n != exits[0] and any(s not in members for s in succ[n])
                for n in combo
            ):
                continue
            # weak connectivity
            seen, stack = {combo[0]}, [combo[0]]
            while stack:
                n = stack.pop()
                for m in itertools.chain(g.preds[n], succ[n]):
                    if m in members and m not in seen:
                        seen.add(m)
                        stack.append(m)
            if len(seen) != len(members):
                continue
            found.append((entries[0], exits[0], frozenset(members)))
    return found


def oracle_eval(g, entry, exit_, members, r, x):
    vals = {}
    order = list(g.topo_order())
    for nid in order:
        if nid not in members:
            continue
        node = g.nodes[nid]
        if nid == entry:
            vals[nid] = r(x) if node.kind == NONLINEAR else x
        elif node.kind == AFFINE:
            vals[nid] = vals[g.preds[nid][0]]
        elif node.kind == NONLINEAR:
            vals[nid] = r(vals[g.preds[nid][0]])
        elif node.kind == SUM:
            vals[nid] = sum(
                w * w * vals[p] for w, p in zip(node.weights, g.preds[nid])
            )
        else:
            vals[nid] = x
    return vals[exit_]


def oracle_max(g, r, x):
    return max(
        oracle_eval(g, e, o, m, r, x) for e, o, m in oracle_subnetworks(g)
    )


def random_small_graph(rng, max_nodes=12):
    """Random valid DAG: a chain with occasional two-branch normalized sums."""
    nodes = [Node(0, INPUT)]
    preds = [()]

    def add(kind, ps, weights=None):
        nid = len(nodes)
        nodes.append(Node(nid, kind, weights))
        preds.append(tuple(ps))
        return nid

    prev = 0
    while len(nodes) < max_nodes - 4:
        roll = rng.random()
        if roll < 0.45:
            a = add(AFFINE, (prev,))
            prev = add(NONLINEAR, (a,))
        elif roll < 0.7:
            prev = add(AFFINE, (prev,))
        else:
            a = add(AFFINE, (prev,))
            nl = add(NONLINEAR, (a,))
            w = rng.uniform(0.2, 0.95)
            prev = add(SUM, (prev, nl), weights=(w, math.sqrt(1 - w * w)))
    g = NetworkGraph(tuple(nodes), tuple(preds), prev)
    validate_graph(g)
    return g


def graph_to_dict(g):
    """The JSON graph description of g."""
    nodes = []
    for n in g.nodes:
        node = {"id": n.id, "kind": n.kind}
        if n.weights is not None:
            node["weights"] = list(n.weights)
        nodes.append(node)
    edges = [[p, nid] for nid, ps in enumerate(g.preds) for p in ps]
    return {"nodes": nodes, "edges": edges, "output": g.output}


def candidate_set(g):
    return {(ref.entry, ref.exit, ref.members) for ref in enumerate_maximal_subnetworks(g)}


# ---------------------------------------------------------------------------


class TestBuilders:
    def test_vanilla_smallest(self):
        g = build_vanilla(1)
        kinds = [n.kind for n in g.nodes]
        assert kinds == [INPUT, AFFINE, NONLINEAR]
        assert g.output == 2

    def test_vanilla_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            build_vanilla(0)

    def test_vanilla_counts_rule_applications(self):
        g = build_vanilla(3)
        assert g.nonlinear_count() == 3
        assert eval_U(g, lambda x: x + 1.0, 0.0) == 3.0

    def test_vanilla_hundred_layer_composition(self):
        g = build_vanilla(100)
        f = lambda c: lrelu_c_map(0.4, c)
        c = 0.0
        for _ in range(100):
            c = f(c)
        assert eval_U(g, f, 0.0) == pytest.approx(c, abs=0)

    def test_resnet_block_structure(self):
        g = build_rescaled_resnet(2, 0.6, branch_nonlinear_count=2)
        validate_graph(g)
        assert g.nonlinear_count() == 4
        sums = [n for n in g.nodes if n.kind == SUM]
        assert len(sums) == 2
        for s in sums:
            assert s.weights == pytest.approx((0.6, 0.8))

    def test_resnet_shortcut_weight_range(self):
        with pytest.raises(ValueError):
            build_rescaled_resnet(2, 1.5)

    def test_transitions_require_four_blocks(self):
        with pytest.raises(ValueError):
            build_rescaled_resnet(3, 0.5, with_transitions=True)

    def test_transition_counting(self):
        # B blocks of 3 nonlinear units, 4 shortcut units, 1 final unit:
        # nominal depth 3B + 2 when the four extra shortcut units and the
        # final unit net out against the accounting convention
        g = build_rescaled_resnet(
            10, 0.5, branch_nonlinear_count=3, with_transitions=True,
            final_nonlinear=True,
        )
        validate_graph(g)
        assert g.nonlinear_count() == 3 * 10 + 4 + 1


class TestValidation:
    def test_three_four_five_weights_valid(self):
        g = build_rescaled_resnet(1, 0.6, branch_nonlinear_count=1)
        validate_graph(g)

    def test_unnormalized_sum_rejected(self):
        nodes = (
            Node(0, INPUT),
            Node(1, AFFINE),
            Node(2, NONLINEAR),
            Node(3, SUM, (0.5, 0.5)),
        )
        preds = ((), (0,), (1,), (0, 2))
        g = NetworkGraph(nodes, preds, 3)
        with pytest.raises(GraphValidationError, match="unnormalized sum"):
            validate_graph(g)

    def test_multiple_inputs_rejected(self):
        nodes = (Node(0, INPUT), Node(1, INPUT), Node(2, SUM, (0.6, 0.8)))
        preds = ((), (), (0, 1))
        with pytest.raises(GraphValidationError, match="multiple inputs"):
            validate_graph(NetworkGraph(nodes, preds, 2))

    def test_cycle_rejected(self):
        nodes = (Node(0, INPUT), Node(1, AFFINE), Node(2, AFFINE))
        preds = ((), (2,), (1,))
        with pytest.raises(GraphValidationError):
            validate_graph(NetworkGraph(nodes, preds, 2))

    def test_unreachable_node_rejected(self):
        nodes = (Node(0, INPUT), Node(1, AFFINE), Node(2, AFFINE))
        preds = ((), (0,), (1,))
        with pytest.raises(GraphValidationError):
            validate_graph(NetworkGraph(nodes, preds, 1))  # node 2 dangles


class TestSubnetworks:
    def test_vanilla_single_candidate(self):
        g = build_vanilla(50)
        refs = enumerate_maximal_subnetworks(g)
        assert len(refs) == 1
        assert refs[0].members == frozenset(range(g.num_nodes))

    def test_vanilla_reduction_matches_bruteforce_max(self):
        g4 = build_vanilla(4)
        r = lambda c: lrelu_c_map(0.3, c)
        assert eval_M(g4, r, 0.0) == pytest.approx(oracle_max(g4, r, 0.0), abs=0)

    def test_resnet_two_candidate_shapes(self):
        g = build_rescaled_resnet(5, 0.5, branch_nonlinear_count=3)
        refs = enumerate_maximal_subnetworks(g)
        assert len(refs) == 2  # whole network + one branch program
        sizes = sorted(len(ref.members) for ref in refs)
        assert sizes[0] == 6  # 3 combined layers
        assert sizes[1] == g.num_nodes

    def test_single_layer_single_candidate(self):
        refs = enumerate_maximal_subnetworks(build_vanilla(1))
        assert len(refs) == 1

    def test_json_graphs_above_sixteen_nodes_match_builders(self, tmp_path, capsys):
        # written as JSON, a 20-layer chain (41 nodes) and a resnet with
        # transitions (53 nodes) give the candidates, M and solve output of
        # the builder specs
        from qcmap.cli import run

        rules = [lambda c: lrelu_c_map(0.3, c), lambda x: 1.0 + x]
        for spec, built in (
            ("vanilla:20", build_vanilla(20)),
            ("resnet:6:0.5:transitions",
             build_rescaled_resnet(6, 0.5, with_transitions=True, final_nonlinear=True)),
        ):
            path = tmp_path / "g.json"
            path.write_text(json.dumps(graph_to_dict(built)))
            loaded = netgraph.load_graph_json(path)
            assert loaded.num_nodes > 16
            assert candidate_set(loaded) == candidate_set(built)
            for r in rules:
                assert eval_M(loaded, r, 0.0) == eval_M(built, r, 0.0)
            outputs = []
            for graph in (spec, f"file:{path}"):
                assert run(["solve", "--method", "tat-lrelu", "--eta", "0.4",
                            "--graph", graph]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("built, same_order", [
        (build_rescaled_resnet(5, 0.8, branch_nonlinear_count=2), True),
        (build_rescaled_resnet(6, 0.5, with_transitions=True, final_nonlinear=True), False),
    ])
    def test_json_ids_against_topological_order(self, built, same_order):
        # ids reversed: every edge runs from a higher id to a lower one, so a
        # region lowered in id order would read slots before writing them.
        # The candidates are the builder's, mapped; the plans too, op for op,
        # where the topological order visits the branches in the same order
        n = built.num_nodes
        new_id = [n - 1 - i for i in range(n)]
        doc = graph_to_dict(built)
        loaded = graph_from_dict({
            "nodes": [{**node, "id": new_id[node["id"]]} for node in doc["nodes"]],
            "edges": [[new_id[a], new_id[b]] for a, b in doc["edges"]],
            "output": new_id[doc["output"]],
        })
        mapped = {(new_id[ref.entry], new_id[ref.exit], frozenset(new_id[v] for v in ref.members))
                  for ref in enumerate_maximal_subnetworks(built)}
        # the kept representative of a repeated program may be another block
        assert {(len(m), loaded.nodes[e].kind) for e, _, m in candidate_set(loaded)} == {
            (len(m), loaded.nodes[e].kind) for e, _, m in mapped}
        assert len(candidate_set(loaded)) == len(mapped)
        if same_order:
            assert [(p.ops, p.exit) for p in loaded._candidate_plans] == [
                (p.ops, p.exit) for p in built._candidate_plans]
        c = np.linspace(-1.0, 1.0, 41)
        for r in (lambda v: lrelu_c_map(0.3, v), lambda v: 1.0 + v, np.tanh):
            assert np.array_equal(eval_U(loaded, r, c), eval_U(built, r, c))
            assert eval_M(loaded, r, 0.0) == eval_M(built, r, 0.0)

    @pytest.mark.parametrize("depth", [1, 2, 10, 57, 200])
    def test_vanilla_candidates_pinned(self, depth):
        g = build_vanilla(depth)
        assert candidate_set(g) == {(0, g.output, frozenset(range(g.num_nodes)))}

    @pytest.mark.parametrize("blocks", [5, 13, 25, 50])
    @pytest.mark.parametrize("w", [0.3, 0.95])
    @pytest.mark.parametrize("transitions", [False, True])
    def test_resnet_candidates_pinned(self, blocks, w, transitions):
        # the whole network, the first block's 3-layer branch and, with
        # transitions, the first 1-layer shortcut
        g = build_rescaled_resnet(blocks, w, with_transitions=transitions,
                                  final_nonlinear=transitions)
        want = {(0, g.output, frozenset(range(g.num_nodes))),
                (1, 6, frozenset(range(1, 7)))}
        if transitions:
            want.add((7, 8, frozenset({7, 8})))
        assert candidate_set(g) == want

    def test_candidates_are_oracle_subnetworks(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_small_graph(rng)
            assert candidate_set(g) <= set(oracle_subnetworks(g))

    def test_sum_is_never_an_entry(self):
        # node 3 sums 1 and 2 and is dominated only by 1, which 3 does not
        # post-dominate (1 also feeds 5): {3, 4} is no subnetwork; {4} is,
        # with the program of {2}
        s = math.sqrt(0.5)
        nodes = (Node(0, INPUT), Node(1, NONLINEAR), Node(2, NONLINEAR), Node(3, SUM, (s, s)),
                 Node(4, NONLINEAR), Node(5, AFFINE), Node(6, SUM, (s, s)))
        g = NetworkGraph(nodes, ((), (0,), (1,), (1, 2), (3,), (1,), (4, 5)), 6)
        assert candidate_set(g) == {
            (0, 6, frozenset(range(7))), (2, 2, frozenset({2})), (5, 5, frozenset({5}))
        }

    def test_equal_topology_with_other_weights_is_another_shape(self):
        # two residual blocks whose branches hold an inner sum: same wiring,
        # different inner weights, so both branches stay candidates (next to
        # the whole graph and the inner 1-layer branch), even 1e-13 apart,
        # and the maximum over the candidates is the exhaustive one
        for inner_weights in ((0.99, 0.6), (0.6 + 1e-13, 0.6)):
            nodes, preds = [Node(0, INPUT)], [()]

            def add(kind, ps, weights=None):
                nodes.append(Node(len(nodes), kind, weights))
                preds.append(ps)
                return len(nodes) - 1

            entry = 0
            for w in inner_weights:
                n1 = add(NONLINEAR, (add(AFFINE, (entry,)),))
                n2 = add(NONLINEAR, (add(AFFINE, (n1,)),))
                inner = add(SUM, (n1, n2), (w, math.sqrt(1 - w * w)))
                entry = add(SUM, (entry, inner), (0.95, math.sqrt(1 - 0.95 ** 2)))
            g = NetworkGraph(tuple(nodes), tuple(preds), entry)
            assert len(candidate_set(g)) == 4
            for r in (lambda x: 1.0 + x, lambda c: lrelu_c_map(0.3, c)):
                assert eval_M(g, r, 0.0) == oracle_max(g, r, 0.0)

    def test_branches_differing_by_an_affine_node_count_once(self):
        # affine nodes emit no op: the second branch lowers to the first
        # one's program, so it adds no candidate
        nodes, preds = [Node(0, INPUT)], [()]

        def add(kind, ps, weights=None):
            nodes.append(Node(len(nodes), kind, weights))
            preds.append(ps)
            return len(nodes) - 1

        entry = 0
        for extra_affine in (False, True):
            cur = add(NONLINEAR, (add(AFFINE, (entry,)),))
            if extra_affine:
                cur = add(AFFINE, (cur,))
            cur = add(NONLINEAR, (add(AFFINE, (cur,)),))
            entry = add(SUM, (entry, cur), (0.6, 0.8))
        g = NetworkGraph(tuple(nodes), tuple(preds), entry)
        assert len(candidate_set(g)) == 2
        for r in (lambda x: 1.0 + x, lambda c: lrelu_c_map(0.3, c)):
            assert eval_M(g, r, 0.0) == oracle_max(g, r, 0.0)

    def test_whole_graph_enters_at_its_input_whatever_its_id(self):
        # input -> nonlinear -> affine -> nonlinear at positions 0..3, with
        # ids that are not the positions: the input's id names position 3
        nodes = (Node(3, INPUT), Node(1, NONLINEAR), Node(2, AFFINE), Node(0, NONLINEAR))
        g = NetworkGraph(nodes, ((), (0,), (1,), (2,)), 3)
        assert eval_U(g, lambda x: 1.0 + x, 0.0) == 2.0
        assert eval_M(g, lambda x: 1.0 + x, 0.0) == 2.0
        assert enumerate_maximal_subnetworks(g)[0].entry == 0

    def test_graph_has_only_structure_fields(self):
        names = [f.name for f in dataclasses.fields(NetworkGraph)]
        assert names == ["nodes", "preds", "output"]


class TestEvalU:
    def test_identity_propagates(self):
        for g in (build_vanilla(7), build_rescaled_resnet(3, 0.5)):
            assert eval_U(g, lambda x: x, 0.37) == pytest.approx(0.37, abs=1e-15)

    def test_vanilla_linear_rule_counts_layers(self):
        cpp = 0.173
        g = build_vanilla(50)
        assert eval_U(g, lambda x: cpp + x, 0.0) == pytest.approx(50 * cpp, abs=1e-12)

    def test_simple_resnet_curvature_rule(self):
        # B blocks of k nonlinear units: U at 0 under r(x) = cpp + x is
        # L (1 - w^2) cpp with L = B k total nonlinear units
        cpp = 0.31
        for w in (0.0, 0.5, 0.8):
            g = build_rescaled_resnet(10, w, branch_nonlinear_count=5)
            want = 50 * (1 - w * w) * cpp
            assert eval_U(g, lambda x: cpp + x, 0.0) == pytest.approx(want, abs=1e-12)

    def test_block_map_is_weighted_sum(self):
        w = 0.7
        g = build_rescaled_resnet(1, w, branch_nonlinear_count=1)
        r = lambda c: lrelu_c_map(0.2, c)
        for c in np.linspace(-1, 1, 11):
            want = w * w * c + (1 - w * w) * r(c)
            assert eval_U(g, r, c) == pytest.approx(want, abs=1e-14)

    def test_serial_composition(self):
        r = lambda c: lrelu_c_map(0.35, c)
        g3, g5, g8 = build_vanilla(3), build_vanilla(5), build_vanilla(8)
        for x in np.linspace(-1, 1, 9):
            assert eval_U(g8, r, x) == pytest.approx(
                eval_U(g5, r, eval_U(g3, r, x)), abs=1e-14
            )

    def test_monotone_rule_gives_monotone_map(self):
        r = lambda c: lrelu_c_map(0.25, c)
        g = build_rescaled_resnet(4, 0.6, branch_nonlinear_count=2)
        grid = np.linspace(-1, 1, 201)
        vals = [eval_U(g, r, x) for x in grid]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_forward_derivative_matches_finite_differences(self):
        alpha = 0.3
        r = lambda c: lrelu_c_map(alpha, c)
        from qcmap import lrelu_c_map_derivative

        rp = lambda c: lrelu_c_map_derivative(alpha, c)
        g = build_rescaled_resnet(3, 0.5, branch_nonlinear_count=2)
        h = 1e-6
        for x in np.linspace(-0.9, 0.9, 7):
            val, grad = eval_U_with_derivative(g, r, rp, x)
            fd = (eval_U(g, r, x + h) - eval_U(g, r, x - h)) / (2 * h)
            assert val == pytest.approx(eval_U(g, r, x), abs=1e-14)
            assert grad == pytest.approx(fd, abs=1e-6)

    def test_derivative_channel_values_equal_eval_u(self):
        alpha = 0.45
        r = lambda c: lrelu_c_map(alpha, c)
        rp = lambda c: lrelu_c_map_derivative(alpha, c)
        grid = np.linspace(-1, 1, 41)
        for g in (
            build_vanilla(30),
            build_rescaled_resnet(6, 0.7, branch_nonlinear_count=2, with_transitions=True),
        ):
            val, _ = eval_U_with_derivative(g, r, rp, grid)
            assert np.array_equal(val, eval_U(g, r, grid))
            for x in (-1.0, -0.3, 0.0, 0.8, 1.0):
                assert eval_U_with_derivative(g, r, rp, x)[0] == eval_U(g, r, x)


class TestEvalM:
    def test_vanilla_m_equals_u(self):
        g = build_vanilla(6)
        r = lambda c: lrelu_c_map(0.15, c)
        assert eval_M(g, r, 0.0) == eval_U(g, r, 0.0)

    def test_zero_curvature_gives_zero(self):
        for g in (build_vanilla(9), build_rescaled_resnet(4, 0.8)):
            assert eval_M(g, lambda x: 0.0 + x, 0.0) == 0.0

    def test_curvature_rule_scales_linearly(self):
        g = build_rescaled_resnet(6, 0.7, branch_nonlinear_count=3)
        a = eval_M(g, lambda x: 0.2 + x, 0.0)
        b = eval_M(g, lambda x: 0.4 + x, 0.0)
        assert b / a == pytest.approx(2.0, abs=1e-12)

    def test_simple_resnet_max_formula(self):
        # branch value k cpp vs whole-network value L (1 - w^2) cpp
        cpp = 0.11
        for w in (0.0, 0.5, 0.8, 0.95):
            g = build_rescaled_resnet(10, w, branch_nonlinear_count=3)
            want = max(3.0, 30.0 * (1 - w * w)) * cpp
            assert eval_M(g, lambda x: cpp + x, 0.0) == pytest.approx(want, abs=1e-12)

    def test_m_dominates_all_subnetworks_family_graphs(self):
        r = lambda c: lrelu_c_map(0.2, c)
        for g in (
            build_vanilla(4),
            build_rescaled_resnet(1, 0.6, branch_nonlinear_count=2),
            build_rescaled_resnet(2, 0.3, branch_nonlinear_count=1),
        ):
            m = eval_M(g, r, 0.0)
            for e, o, mem in oracle_subnetworks(g):
                assert m >= oracle_eval(g, e, o, mem, r, 0.0) - 1e-14

    def test_m_equals_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(5)
        r = lambda c: lrelu_c_map(0.1, c)
        for _ in range(15):
            g = random_small_graph(rng)
            assert eval_M(g, r, 0.0) == oracle_max(g, r, 0.0)

    def test_resnet_m_equals_oracle(self):
        rules = [lambda c, a=a: lrelu_c_map(a, c) for a in (0.0, 0.2, 0.6)]
        rules += [lambda x: 0.3 + x, lambda x: 1.07 * x]
        for g in (
            build_rescaled_resnet(2, 0.6, branch_nonlinear_count=2),
            build_rescaled_resnet(3, 0.3, branch_nonlinear_count=1),
            build_rescaled_resnet(5, 0.9, branch_nonlinear_count=1),
        ):
            for r in rules:
                for x in (0.0, 0.5, 1.0):
                    assert eval_M(g, r, x) == oracle_max(g, r, x)

    def test_mu0_strictly_decreasing_in_alpha(self):
        g = build_vanilla(12)
        alphas = np.linspace(0.0, 0.95, 20)
        vals = [eval_M(g, lambda c, a=a: lrelu_c_map(a, c), 0.0) for a in alphas]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestJsonGraphs:
    def test_round_trip_dict(self):
        data = {
            "nodes": [
                {"id": 0, "kind": "input"},
                {"id": 1, "kind": "affine"},
                {"id": 2, "kind": "nonlinear"},
                {"id": 3, "kind": "sum", "weights": [0.6, 0.8]},
            ],
            "edges": [[0, 1], [1, 2], [0, 3], [2, 3]],
            "output": 3,
        }
        g = graph_from_dict(data)
        assert g.nonlinear_count() == 1
        assert eval_U(g, lambda x: x + 1.0, 0.0) == pytest.approx(0.64)

    def test_missing_field_rejected(self):
        with pytest.raises(GraphValidationError):
            graph_from_dict({"nodes": [], "edges": []})

    CHAIN = [{"id": 0, "kind": "input"}, {"id": 1, "kind": "affine"},
             {"id": 2, "kind": "nonlinear"}]

    def test_top_level_not_an_object_rejected(self):
        for data in ([{"id": 0, "kind": "input"}], "graph", 3, None):
            with pytest.raises(GraphValidationError, match="must be an object"):
                graph_from_dict(data)

    def test_node_without_kind_or_id_rejected(self):
        for bad in ({"id": 1}, {"kind": "affine"}, 1):
            nodes = [self.CHAIN[0], bad, self.CHAIN[2]]
            with pytest.raises(GraphValidationError, match=r"nodes\[1\]"):
                graph_from_dict({"nodes": nodes, "edges": [[0, 1], [1, 2]], "output": 2})

    def test_edge_endpoint_out_of_range_rejected(self):
        for edge in ([2, 7], [3, 2], [-1, 2], [1, -3]):
            with pytest.raises(GraphValidationError, match="outside 0..2"):
                graph_from_dict(
                    {"nodes": self.CHAIN, "edges": [[0, 1], [1, 2], edge], "output": 2}
                )

    @pytest.mark.parametrize("field, value", [
        ("id", None), ("output", None), ("endpoint", None),
        ("id", 1.7), ("output", 2.5), ("endpoint", 0.5), ("id", True), ("id", "1"),
    ])
    def test_non_integer_index_rejected(self, field, value):
        nodes = [dict(n) for n in self.CHAIN]
        edges, output = [[0, 1], [1, 2]], 2
        if field == "id":
            nodes[1]["id"] = value
        elif field == "output":
            output = value
        else:
            edges[1][0] = value
        with pytest.raises(GraphValidationError, match="must be an integer"):
            graph_from_dict({"nodes": nodes, "edges": edges, "output": output})

    @pytest.mark.parametrize("weights", [5, "0.6", [0.6, None], [0.6, "x"], [10**400, 0.0]])
    def test_malformed_weights_rejected(self, weights):
        nodes = self.CHAIN + [{"id": 3, "kind": "sum", "weights": weights}]
        with pytest.raises(GraphValidationError, match="weights must be a list"):
            graph_from_dict({"nodes": nodes, "edges": [[0, 1], [1, 2], [0, 3], [2, 3]],
                             "output": 3})

    @pytest.mark.parametrize("weights", [[math.nan, 0.8], [math.nan, math.nan],
                                         [math.inf, 0.0]])
    def test_non_finite_sum_weights_rejected(self, weights):
        nodes = self.CHAIN + [{"id": 3, "kind": "sum", "weights": weights}]
        with pytest.raises(GraphValidationError, match="unnormalized sum"):
            graph_from_dict({"nodes": nodes, "edges": [[0, 1], [1, 2], [0, 3], [2, 3]],
                             "output": 3})

    def test_integral_float_index_and_null_weights_accepted(self):
        nodes = [dict(n) for n in self.CHAIN]
        nodes[1]["id"] = 1.0
        nodes[2]["weights"] = None
        g = graph_from_dict({"nodes": nodes, "edges": [[0, 1.0], [1, 2]], "output": 2.0})
        assert g.output == 2 and g.preds == ((), (0,), (1,))

    def test_edge_not_a_pair_rejected(self):
        for edge in ([0, 1, 2], [1], 5, "01"):
            with pytest.raises(GraphValidationError, match="pair"):
                graph_from_dict(
                    {"nodes": self.CHAIN, "edges": [edge, [1, 2]], "output": 2}
                )


class TestCompiledProgram:
    def test_validates_and_enumerates_once_per_graph(self, monkeypatch):
        # the candidates are enumerated by the compile, once per graph object
        calls = {"validate": 0, "compile": 0}
        validate, compile_ = netgraph.validate_graph, netgraph._compile

        def counting_validate(g):
            calls["validate"] += 1
            return validate(g)

        def counting_compile(g):
            calls["compile"] += 1
            return compile_(g)

        monkeypatch.setattr(netgraph, "validate_graph", counting_validate)
        monkeypatch.setattr(netgraph, "_compile", counting_compile)
        g = build_rescaled_resnet(8, 0.5, branch_nonlinear_count=2, with_transitions=True)
        r = lambda c: lrelu_c_map(0.3, c)
        first = eval_M(g, r, 0.0)
        for _ in range(4):
            assert eval_M(g, r, 0.0) == first
        enumerate_maximal_subnetworks(g)
        assert calls == {"validate": 1, "compile": 1}
        # an equal but distinct graph object compiles its own program
        eval_M(build_rescaled_resnet(8, 0.5, branch_nonlinear_count=2, with_transitions=True),
               lambda c: c, 0.0)
        assert calls == {"validate": 2, "compile": 2}

    def test_invalid_graph_raises_on_every_call(self):
        nodes = (Node(0, INPUT), Node(1, AFFINE), Node(2, AFFINE))
        g = NetworkGraph(nodes, ((), (2,), (1,)), 2)
        for _ in range(2):
            with pytest.raises(GraphValidationError):
                eval_M(g, lambda c: c, 0.0)
            with pytest.raises(GraphValidationError):
                eval_U(g, lambda c: c, 0.0)
            with pytest.raises(GraphValidationError):
                g.topo_order()

    def test_unnormalized_graph_is_never_cached(self):
        nodes = (Node(0, INPUT), Node(1, AFFINE), Node(2, NONLINEAR), Node(3, SUM, (0.5, 0.5)))
        g = NetworkGraph(nodes, ((), (0,), (1,), (0, 2)), 3)
        identity = lambda c: c
        # every evaluator checks the graph first, not only eval_M's compile
        for evaluate in (lambda: eval_M(g, identity, 0.3), lambda: eval_U(g, identity, 0.3),
                         lambda: eval_U_with_derivative(g, identity, lambda c: 1.0, 0.3)):
            for _ in range(2):
                with pytest.raises(GraphValidationError, match="unnormalized sum"):
                    evaluate()

    def test_cache_leaves_equality_and_hash_alone(self):
        g, h = build_rescaled_resnet(4, 0.5), build_rescaled_resnet(4, 0.5)
        eval_M(g, lambda c: c, 0.0)
        assert g == h and hash(g) == hash(h)

    def test_topo_order_returns_a_fresh_list(self):
        g = build_rescaled_resnet(3, 0.5)
        order = g.topo_order()
        order.reverse()
        assert g.topo_order() != order
        assert sorted(g.topo_order()) == list(range(g.num_nodes))
