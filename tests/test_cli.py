"""End-to-end tests of the command-line interface.

The CLI is exercised through its `run(argv)` entry point (same code path as
the console script).  Checks cover exit codes, the JSON/CSV output contracts,
the error envelope, and byte-identical determinism.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcmap
from qcmap import GraphValidationError, TReLU, eval_M, lrelu_c_map
from qcmap.cli import _build_parser, run
from qcmap.netgraph import graph_from_dict


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


class TestSolveCommand:
    def test_tat_lrelu_json(self, capsys):
        code, out, err = invoke(
            ["solve", "--method", "tat-lrelu", "--graph", "vanilla:5", "--eta", "0.5"],
            capsys,
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["method"] == "tat-lrelu"
        alpha = payload["parameters"]["alpha"]
        c = 0.0
        for _ in range(5):
            c = lrelu_c_map(alpha, c)
        assert c == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("extra", [[], ["--sigma-b", "0.3"]])
    def test_eoc_identity_refused(self, capsys, extra):
        code, out, err = invoke(
            ["solve", "--method", "eoc", "--activation", "identity"] + extra, capsys
        )
        assert code == 1 and out == ""
        envelope = json.loads(err)
        assert envelope["error"] == "unattainable-target"
        assert "affine" in envelope["message"]

    def test_eoc_lrelu_closed_form(self, capsys):
        code, out, _ = invoke(
            ["solve", "--method", "eoc", "--activation", "relu"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["parameters"]["sigma_w"] == pytest.approx(math.sqrt(2.0))
        assert payload["residuals"] == {}

    @pytest.mark.parametrize("spec, sigma_w", [
        ("lrelu:0.2", math.sqrt(2.0 / 1.04)), ("trelu:0.5", 1.0), ("trelu:0", 1.0),
    ])
    def test_eoc_leaky_relu_family(self, capsys, spec, sigma_w):
        code, out, _ = invoke(["solve", "--method", "eoc", "--activation", spec], capsys)
        assert code == 0
        assert json.loads(out)["parameters"] == {"sigma_w": sigma_w, "sigma_b": 0.0}

    @pytest.mark.parametrize("spec", ["relu", "lrelu:0.2", "trelu:0.5"])
    def test_eoc_leaky_relu_refuses_a_bias(self, capsys, spec):
        argv = ["solve", "--method", "eoc", "--activation", spec, "--sigma-b"]
        code, out, err = invoke(argv + ["0.5"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "unattainable-target"
        for bad in ("-0.5", "inf", "nan"):
            code, out, err = invoke(argv + [bad], capsys)
            _, _, smooth = invoke(argv[:4] + ["tanh", "--sigma-b", bad], capsys)
            assert code == 1 and out == ""
            assert err == smooth and json.loads(err)["error"] == "ValueError"

    def test_eoc_smooth_reports_its_deviation(self, capsys):
        code, out, _ = invoke(
            ["solve", "--method", "eoc", "--activation", "tanh", "--sigma-b", "0.2"], capsys
        )
        assert code == 0
        residuals = json.loads(out, parse_constant=_reject_constant)["residuals"]
        assert set(residuals) == {"deviation"}
        assert 0.0 <= residuals["deviation"] <= 1e-9

    def test_dks_json(self, capsys):
        code, out, _ = invoke(
            ["solve", "--method", "dks", "--graph", "vanilla:4",
             "--activation", "softplus", "--zeta", "1.5"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["targets"]["local_cp1"] == pytest.approx(1.5 ** 0.25, abs=1e-9)

    def test_missing_target_flag_fails(self, capsys):
        code, out, err = invoke(
            ["solve", "--method", "tat-lrelu", "--graph", "vanilla:5"], capsys
        )
        assert code == 1
        envelope = json.loads(err)
        assert set(envelope) == {"error", "message", "context"}

    @pytest.mark.parametrize("method, flags", [
        ("tat-lrelu", ["--eta", "0.5"]),
        ("tat-smooth", ["--tau", "0.3"]),
        ("dks", ["--zeta", "1.5"]),
    ])
    def test_graph_methods_require_graph(self, capsys, method, flags):
        code, out, err = invoke(["solve", "--method", method, *flags], capsys)
        assert code == 1 and out == ""
        envelope = json.loads(err)
        assert envelope["error"] == "ValueError"
        assert envelope["message"] == f"{method} requires --graph"

    def test_unattainable_envelope(self, capsys):
        code, out, err = invoke(
            ["solve", "--method", "tat-lrelu", "--graph", "vanilla:1", "--eta", "0.5"],
            capsys,
        )
        assert code == 1 and out == ""
        envelope = json.loads(err)
        assert envelope["error"] == "unattainable-target"
        assert "unattainable target; max C_f(0)=0.3183" in envelope["message"]
        assert envelope["context"]["max_value"] == pytest.approx(1 / math.pi, abs=1e-9)

    def test_solver_failure_envelope_carries_the_iterate(self, capsys):
        # too sharp for the degree-150 series: the certificate refuses it
        code, out, err = invoke(
            ["solve", "--method", "tat-smooth", "--graph", "vanilla:10",
             "--activation", "softplus", "--tau", "5"],
            capsys,
        )
        assert code == 1 and out == ""
        envelope = json.loads(err, parse_constant=_reject_constant)
        assert set(envelope) == {"error", "message", "context"}
        assert envelope["error"] == "SolverFailure"
        assert len(envelope["context"]["last_iterate"]) == 4
        assert all(math.isfinite(v) for v in envelope["context"]["last_iterate"])

    def test_newton_failure_envelope_carries_the_iterate(self, capsys):
        # C'(1) = 10 on one layer: Newton's line search stalls before the
        # certificate is reached
        code, out, err = invoke(
            ["solve", "--method", "dks", "--graph", "vanilla:1",
             "--activation", "tanh", "--zeta", "10"],
            capsys,
        )
        assert code == 1 and out == ""
        envelope = _envelope(err)
        assert envelope["error"] == "SolverFailure"
        assert "moment system" in envelope["message"]
        context = envelope["context"]
        assert len(context["last_iterate"]) == 2 and len(context["residual"]) == 2
        assert all(math.isfinite(v) for v in context["last_iterate"])

    @pytest.mark.parametrize("doc, argv, error, context", [
        # a graph with no nonlinear node has global slope 1 for every m
        ({"nodes": [{"id": 0, "kind": "input"}, {"id": 1, "kind": "affine"}],
          "edges": [[0, 1]], "output": 1},
         ["solve", "--method", "dks", "--activation", "tanh", "--zeta", "2"],
         "BracketError", {"f_lo": -1.0, "f_hi": -1.0}),
        ({"nodes": [{"id": 0, "kind": "input"}, {"id": 1, "kind": "affine"},
                    {"id": 2, "kind": "nonlinear"},
                    {"id": 3, "kind": "sum", "weights": [0.5, 0.5]}],
          "edges": [[0, 1], [1, 2], [0, 3], [2, 3]], "output": 3},
         ["validate-graph"], "GraphValidationError", {"node_id": 3}),
    ])
    def test_error_context_from_exception(self, capsys, tmp_path, doc, argv, error, context):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(argv + ["--graph", f"file:{path}"], capsys)
        assert code == 1 and out == ""
        envelope = json.loads(err, parse_constant=_reject_constant)
        assert envelope["error"] == error
        assert envelope["context"] == context

    def test_tat_smooth_without_nonlinear_node_refused(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": [{"id": 0, "kind": "input"},
                                              {"id": 1, "kind": "affine"}],
                                    "edges": [[0, 1]], "output": 1}))
        code, out, err = invoke(["solve", "--method", "tat-smooth", "--activation", "tanh",
                                 "--tau", "0.3", "--graph", f"file:{path}"], capsys)
        assert code == 1 and out == ""
        envelope = _envelope(err)
        assert envelope["error"] == "ValueError"
        assert envelope["message"] == "graph has no nonlinear node"

    def test_eoc_softplus_refused_in_bounded_time(self, capsys):
        # softplus reaches C'(1) = 1 only as q* diverges; the refusal must
        # not wait on the fixed-point iteration creeping towards it
        start = time.perf_counter()
        code, out, err = invoke(
            ["solve", "--method", "eoc", "--activation", "softplus",
             "--sigma-b", "0.109961"],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        envelope = json.loads(err)
        assert envelope["error"] == "unattainable-target"
        assert envelope["context"]["max_value"] < 1.0

    @pytest.mark.parametrize("sigma_b", ["10", "20"])
    def test_eoc_uncertified_answer_refused(self, capsys, sigma_b):
        code, out, err = invoke(
            ["solve", "--method", "eoc", "--activation", "tanh", "--sigma-b", sigma_b],
            capsys,
        )
        assert code == 1 and out == ""
        envelope = _envelope(err)
        assert envelope["error"] == "SolverFailure"
        assert "certificate" in envelope["message"]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "sol.json"
        code, out, _ = invoke(
            ["solve", "--method", "eoc", "--activation", "relu", "-o", str(path)],
            capsys,
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["method"] == "eoc"


class TestCmapCommand:
    def test_grid_and_fixed_point(self, capsys):
        code, out, _ = invoke(
            ["cmap", "--graph", "vanilla:3", "--activation", "trelu:0.4"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["c", "C_f"]
        assert len(rows) == 202  # header + 201 points
        assert float(rows[1][0]) == -1.0
        assert float(rows[-1][0]) == 1.0
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-9)

    def test_values_match_library(self, capsys):
        code, out, _ = invoke(
            ["cmap", "--graph", "vanilla:2", "--activation", "trelu:0.3",
             "--points", "5"],
            capsys,
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for c_str, v_str in rows:
            c = float(c_str)
            assert float(v_str) == pytest.approx(
                lrelu_c_map(0.3, lrelu_c_map(0.3, c)), abs=1e-9
            )

    @pytest.mark.parametrize("act, alpha", [("relu", 0.0), ("lrelu:0.3", 0.3),
                                            ("lrelu:-0.2", -0.2)])
    def test_leaky_relu_family_is_the_composed_closed_form(self, capsys, act, alpha):
        # arc-cosine kernel written out here, independent of lrelu_c_map
        def k1(c):
            return (math.sqrt(1 - c * c) + (math.pi - math.acos(c)) * c) / (2 * math.pi)

        def local(c):
            return ((1 + alpha**2) * k1(c) - 2 * alpha * k1(-c)) / (0.5 * (1 + alpha**2))

        code, out, _ = invoke(
            ["cmap", "--graph", "vanilla:3", "--activation", act, "--points", "41"],
            capsys,
        )
        assert code == 0
        for c_str, v_str in list(csv.reader(io.StringIO(out)))[1:]:
            c = float(c_str)
            assert abs(float(v_str) - local(local(local(c)))) <= 1e-12

    @pytest.mark.parametrize("flags, error", [(["--points", "0"], "ValueError"),
                                              (["--from", "nan"], "DomainError")])
    def test_empty_or_nan_grid_fails_cleanly(self, capsys, flags, error):
        code, out, err = invoke(
            ["cmap", "--graph", "vanilla:2", "--activation", "tanh", *flags], capsys
        )
        assert code == 1 and out == ""
        envelope = json.loads(err)
        assert envelope["error"] == error and flags[0] in envelope["message"]

    def test_deep_tanh_chain_keeps_its_fixed_points(self, capsys):
        # c = 1 is a fixed point of every C map with q1 = q2 and tanh is odd,
        # so C_f(-1) = -1 and C_f(1) = 1 exactly, however deep the chain
        code, out, _ = invoke(["cmap", "--graph", "vanilla:200", "--activation", "tanh"],
                              capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["-1", "-1"] and rows[-1] == ["1", "1"]

    def test_resnet_graph_spec(self, capsys):
        code, out, _ = invoke(
            ["cmap", "--graph", "resnet:2:0.5", "--activation", "trelu:0.2",
             "--points", "3"],
            capsys,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4


class TestCsvOutput:
    @pytest.mark.parametrize("argv", [
        ["cmap", "--graph", "vanilla:2", "--activation", "tanh", "--points", "1"],
        ["cmap", "--graph", "resnet:2:0.5", "--activation", "trelu:0.2", "--points", "9"],
        ["ode", "--T", "0.5", "--c0", "-0.25"],
        ["simulate", "--activation", "tanh", "--width", "8", "--depth", "2",
         "--trials", "1", "--pairs", "2"],
    ])
    def test_file_matches_stdout_and_the_csv_module(self, capsys, tmp_path, argv):
        code, out, _ = invoke(argv, capsys)
        assert code == 0
        path = tmp_path / "out.csv"
        assert run(argv + ["--output", str(path)]) == 0
        assert path.read_bytes() == out.encode()
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) >= 2 and out.count("\r\n") == len(rows)
        rewritten = io.StringIO(newline="")
        csv.writer(rewritten).writerows(rows)
        assert rewritten.getvalue() == out

    def test_single_point(self, capsys):
        code, out, _ = invoke(["cmap", "--graph", "vanilla:1", "--activation", "relu",
                               "--points", "1", "--from", "0"], capsys)
        assert code == 0
        assert out == f"c,C_f\r\n0,{1 / math.pi:.12g}\r\n"


class TestSimulateCommand:
    ARGS = ["simulate", "--activation", "trelu:0.3", "--width", "48",
            "--depth", "3", "--trials", "2", "--pairs", "2", "--seed", "5"]

    def test_csv_contract(self, capsys):
        code, out, _ = invoke(self.ARGS, capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["layer_index", "mean_c", "std_c", "mean_q", "theory_c"]
        assert len(rows) == 5  # header + depth+1 layers
        assert float(rows[1][4]) == 0.0  # theory at layer 0 is c0

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = invoke(self.ARGS, capsys)
        _, out2, _ = invoke(self.ARGS, capsys)
        assert out1 == out2

    def test_seed_matters(self, capsys):
        _, out1, _ = invoke(self.ARGS, capsys)
        _, out2, _ = invoke(self.ARGS[:-1] + ["6"], capsys)
        assert out1 != out2

    def test_suo_init_and_c0(self, capsys):
        code, out, _ = invoke(
            ["simulate", "--activation", "identity", "--width", "32",
             "--depth", "2", "--trials", "1", "--pairs", "1", "--init", "suo",
             "--c0", "0.5"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for row in rows:  # orthogonal identity net preserves c exactly
            assert float(row[1]) == pytest.approx(0.5, abs=1e-12)

    def test_bad_width_fails_cleanly(self, capsys):
        code, _, err = invoke(
            ["simulate", "--activation", "relu", "--width", "0", "--depth", "1"],
            capsys,
        )
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"

    def test_nan_c0_fails_cleanly(self, capsys):
        code, out, err = invoke(self.ARGS + ["--c0", "nan"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_interrupted_wide_request_leaves_nothing_behind(self, capsys, monkeypatch):
        # a BaseException at layer 4 (the benchmark worker's SIGALRM
        # deadline is one) while the next layer's draw is on the helper
        # thread: the thread is joined and the next request is unaffected
        argv = ["simulate", "--activation", "trelu:0.3", "--width", "200",
                "--depth", "6", "--trials", "2", "--pairs", "30", "--seed", "5",
                "--init", "suo"]
        baseline = threading.active_count()
        fresh = invoke(argv, capsys)

        class Stop(BaseException):
            pass

        real, calls = TReLU.value, [0]

        def value(self, x):
            calls[0] += 1
            if calls[0] == 4:
                raise Stop
            return real(self, x)

        monkeypatch.setattr(TReLU, "value", value)
        with pytest.raises(Stop):
            run(argv)
        monkeypatch.undo()
        assert calls[0] == 4
        assert threading.active_count() == baseline
        assert invoke(argv, capsys) == fresh

    @pytest.mark.parametrize("argv", [
        ["simulate", "--activation", "relu", "--width", "16", "--depth", "10",
         "--trials", "1000000000000", "--pairs", "100"],
        ["cmap", "--graph", "vanilla:2", "--activation", "relu",
         "--points", "100000000000000"],
    ])
    def test_oversized_request_gives_envelope(self, capsys, argv):
        # petabyte arrays: the allocation fails before any memory is touched
        code, out, err = invoke(argv, capsys)
        assert code == 1 and out == ""
        assert _envelope(err)["error"] == "MemoryError"


class TestOdeCommand:
    def test_by_duration(self, capsys):
        code, out, _ = invoke(["ode", "--T", "2.0"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "x"]
        assert float(rows[1][0]) == 0.0 and float(rows[1][1]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(2.0)

    def test_by_eta_ends_at_eta(self, capsys):
        code, out, _ = invoke(["ode", "--eta", "0.8"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert float(rows[-1][1]) == pytest.approx(0.8, abs=1e-6)

    def test_by_eta_near_one_refused(self, capsys):
        # T(1 - 1e-8) is about 21 211, where the RK4 step is 2.1: its first
        # step lands on the clip at 1 and every row read 1 with exit 0.  Past
        # T = 850 the rows miss the flow by more than 1e-6, so it is refused
        code, out, err = invoke(["ode", "--eta", "0.99999999"], capsys)
        assert code == 1 and out == ""
        envelope = json.loads(err)
        assert envelope["error"] == "DomainError"
        assert "T must lie in [0, 850], got 21210.97" in envelope["message"]
        # T(1 - 1e-5) = 668.6 is still served, and ends at eta
        code, out, _ = invoke(["ode", "--eta", "0.99999"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert float(rows[-1][0]) == pytest.approx(668.5888, rel=1e-6)
        assert abs(float(rows[-1][1]) - 0.99999) <= 1e-9

    def test_nan_c0_fails_cleanly(self, capsys):
        code, out, err = invoke(["ode", "--c0", "nan", "--T", "1"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_requires_eta_or_T(self, capsys):
        code, _, err = invoke(["ode"], capsys)
        assert code == 1
        assert "requires --eta or --T" in json.loads(err)["message"]


class TestValidateGraphCommand:
    def test_valid_graph(self, capsys):
        code, out, _ = invoke(["validate-graph", "--graph", "vanilla:4"], capsys)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_file_graph(self, capsys, tmp_path):
        doc = {
            "nodes": [
                {"id": 0, "kind": "input"},
                {"id": 1, "kind": "affine"},
                {"id": 2, "kind": "nonlinear"},
            ],
            "edges": [[0, 1], [1, 2]],
            "output": 2,
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(["validate-graph", "--graph", f"file:{path}"], capsys)
        assert code == 0

    @pytest.mark.parametrize("doc", [
        [{"id": 0, "kind": "input"}],
        {"nodes": [{"id": 0, "kind": "input"}, {"id": 1}], "edges": [[0, 1]], "output": 1},
        {"nodes": [{"id": 0, "kind": "input"}, {"id": 1, "kind": "affine"}],
         "edges": [[0, 1], [1, 7]], "output": 1},
        {"nodes": [{"id": 0, "kind": "input"}, {"id": 1, "kind": "affine"}],
         "edges": [[0, 1, 1]], "output": 1},
        {"nodes": [{"id": 0, "kind": "input"}, {"id": None, "kind": "affine"}],
         "edges": [[0, 1]], "output": 1},
        {"nodes": [{"id": 0, "kind": "input"}, {"id": 1, "kind": "affine"}],
         "edges": [[0, 1]], "output": None},
        {"nodes": [{"id": 0, "kind": "input"}, {"id": 1, "kind": "affine"}],
         "edges": [[0, None]], "output": 1},
        {"nodes": [{"id": 0, "kind": "input"}, {"id": 1, "kind": "affine"},
                   {"id": 2, "kind": "sum", "weights": 5}],
         "edges": [[0, 1], [0, 2], [1, 2]], "output": 2},
        {"nodes": [{"id": 0, "kind": "input"}, {"id": 1.7, "kind": "affine"}],
         "edges": [[0, 1]], "output": 1},
        {"nodes": [{"id": 0, "kind": "input"}, {"id": 1, "kind": "affine"},
                   {"id": 2, "kind": "sum", "weights": [float("nan"), 0.8]}],
         "edges": [[0, 1], [0, 2], [1, 2]], "output": 2},
    ], ids=["top-level-list", "node-without-kind", "edge-to-missing-node", "edge-not-a-pair",
            "null-id", "null-output", "null-edge-endpoint", "scalar-weights",
            "fractional-id", "nan-weights"])
    def test_malformed_file_graph_gives_envelope(self, capsys, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(
            ["solve", "--method", "tat-lrelu", "--eta", "0.5", "--graph", f"file:{path}"],
            capsys,
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "GraphValidationError"

    def test_invalid_file_graph_reported_before_bad_eta(self, capsys, tmp_path):
        # the CLI loads (and validates) the graph before the solver sees eta
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"nodes": [{"id": 0, "kind": "input"}, {"id": 1, "kind": "affine"},
                       {"id": 2, "kind": "nonlinear"},
                       {"id": 3, "kind": "sum", "weights": [0.5, 0.5]}],
             "edges": [[0, 1], [1, 2], [0, 3], [2, 3]], "output": 3}))
        code, out, err = invoke(
            ["solve", "--method", "tat-lrelu", "--eta", "1.5", "--graph", f"file:{path}"],
            capsys,
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "GraphValidationError"

    @pytest.mark.parametrize("command", [
        ["validate-graph"], ["cmap", "--activation", "relu", "--points", "3"],
    ])
    def test_nan_sum_weights_rejected(self, capsys, tmp_path, command):
        # NaN weights used to pass the normalisation check: `valid: true`
        # from validate-graph and NaN rows with exit 0 from cmap
        doc = {"nodes": [{"id": 0, "kind": "input"}, {"id": 1, "kind": "nonlinear"},
                         {"id": 2, "kind": "sum", "weights": [0.6, float("nan")]}],
               "edges": [[0, 1], [0, 2], [1, 2]], "output": 2}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(command + ["--graph", f"file:{path}"], capsys)
        assert code == 1 and out == ""
        assert "unnormalized sum" in json.loads(err)["message"]

    def test_missing_file_fails(self, capsys):
        code, _, err = invoke(
            ["validate-graph", "--graph", "file:/nonexistent.json"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"]


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60), st.integers(10**20, 10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.floats(-2, 2), max_size=3), st.just({}),
)


@st.composite
def graph_docs(draw):
    """A random JSON graph description of up to 40 nodes and whether it was
    left valid: a DAG of affine, nonlinear and 2- or 3-input sum nodes with
    shuffled ids, whose dangling nodes feed one final sum, and then maybe
    one random corruption."""
    n = draw(st.one_of(st.integers(1, 10), st.integers(11, 36)))
    kinds, preds, weights = ["input"], [[]], [None]
    for i in range(1, n):
        kind = draw(st.sampled_from(["affine", "nonlinear", "sum"] if i >= 2
                                    else ["affine", "nonlinear"]))
        if kind == "sum":
            ps = draw(st.lists(st.integers(0, i - 1), min_size=2,
                               max_size=min(3, i), unique=True))
            raw = [draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([1, -1])) for _ in ps]
            norm = math.sqrt(sum(w * w for w in raw))
            ws = [w / norm for w in raw]
        else:
            ps, ws = [draw(st.integers(max(0, i - 4), i - 1))], None
        kinds.append(kind)
        preds.append(ps)
        weights.append(ws)
    dangling = sorted(set(range(n)) - {p for ps in preds for p in ps})
    if len(dangling) > 1:
        kinds.append("sum")
        preds.append(dangling)
        weights.append([1 / math.sqrt(len(dangling))] * len(dangling))
    ids = draw(st.permutations(range(len(kinds))))
    nodes = []
    for i, kind in enumerate(kinds):
        node = {"id": ids[i], "kind": kind}
        if weights[i] is not None:
            node["weights"] = weights[i]
        nodes.append(node)
    edges = [[ids[p], ids[i]] for i, ps in enumerate(preds) for p in ps]
    doc = {"nodes": nodes, "edges": edges, "output": ids[-1]}

    corruption = draw(st.sampled_from(
        [None, "node-field", "drop-node-field", "edge-end", "add-edge", "drop-edge",
         "output", "drop-field", "top-level"])) if draw(st.booleans()) else None
    if corruption == "node-field":
        node = draw(st.sampled_from(nodes))
        node[draw(st.sampled_from(["id", "kind", "weights"]))] = draw(_JSON_VALUES)
    elif corruption == "drop-node-field":
        draw(st.sampled_from(nodes)).pop(draw(st.sampled_from(["id", "kind", "weights"])), None)
    elif corruption == "edge-end" and edges:
        draw(st.sampled_from(edges))[draw(st.integers(0, 1))] = draw(_JSON_VALUES)
    elif corruption == "add-edge":
        edges.append([draw(st.integers(-1, len(kinds))), draw(st.integers(-1, len(kinds)))])
    elif corruption == "drop-edge" and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif corruption == "output":
        doc["output"] = draw(_JSON_VALUES)
    elif corruption == "drop-field":
        doc.pop(draw(st.sampled_from(["nodes", "edges", "output"])))
    elif corruption == "top-level":
        doc = draw(_JSON_VALUES)
    return doc, corruption is None


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestGraphFuzz:
    @settings(derandomize=True, deadline=None)
    @given(graph_docs())
    def test_random_graph_files(self, case):
        import test_netgraph as tn

        doc, valid = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            for argv in (["validate-graph"],
                         ["solve", "--method", "tat-lrelu", "--eta", "0.2"]):
                code, _, err = _run_captured(argv + ["--graph", f"file:{path}"])
                assert code in (0, 1, 2)
                if code == 1:
                    assert set(json.loads(err)) == {"error", "message", "context"}
                if valid and argv[0] == "validate-graph":
                    assert code == 0
        try:
            g = graph_from_dict(doc)
        except GraphValidationError:
            assert not valid
            return
        if g.num_nodes <= 12:
            assert tn.candidate_set(g) <= set(tn.oracle_subnetworks(g))
            for r in (lambda v: 1.0 + v, lambda v: lrelu_c_map(0.3, v)):
                assert eval_M(g, r, 0.0) == tn.oracle_max(g, r, 0.0)


def _envelope(err):
    """The JSON envelope on the last stderr line, parsed strictly."""
    envelope = json.loads(err.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert set(envelope) == {"error", "message", "context"}
    return envelope


class TestLeakySlope:
    SIM = ["--width", "8", "--depth", "2", "--trials", "1", "--pairs", "1"]

    @pytest.mark.parametrize("argv, error", [
        (["cmap", "--graph", "vanilla:2", "--activation", "lrelu:nan", "--points", "3"],
         "DomainError"),
        (["cmap", "--graph", "vanilla:2", "--activation", "lrelu:inf", "--points", "3"],
         "DomainError"),
        (["simulate", "--activation", "lrelu:nan", *SIM], "DomainError"),
        (["solve", "--method", "eoc", "--activation", "lrelu:nan"], "DomainError"),
        (["cmap", "--graph", "vanilla:2", "--activation", "lrelu:1e200", "--points", "3"],
         "OverflowError"),
        # the Monte-Carlo layers overflow before the theory column does
        (["simulate", "--activation", "lrelu:1e200", *SIM], "DomainError"),
        # pi (1 + alpha^2) overflows while (1 - alpha)^2 does not
        (["cmap", "--graph", "vanilla:2", "--activation", "lrelu:1e154", "--points", "3"],
         "OverflowError"),
        (["cmap", "--graph", "vanilla:2", "--activation", "lrelu:-1e154", "--points", "3"],
         "OverflowError"),
    ])
    def test_bad_slope_gives_envelope(self, capsys, argv, error):
        code, _, err = invoke(argv, capsys)
        assert code == 1
        assert _envelope(err)["error"] == error

    @pytest.mark.parametrize("slope", ["1e100", "-1e100"])
    def test_huge_finite_slope_gives_the_relu_map(self, capsys, slope):
        # the two variances' product overflows from |alpha| ~ 1.6e77, but
        # the map's coefficient (1 - alpha)^2 / (pi (1 + alpha^2)) is 1/pi
        argv = ["cmap", "--graph", "vanilla:2", "--points", "41", "--activation"]
        code, out, err = invoke([*argv, f"lrelu:{slope}"], capsys)
        assert code == 0 and err == ""
        assert invoke([*argv, "relu"], capsys) == (0, out, "")
        assert out.splitlines()[-1] == "1,1"

    @pytest.mark.parametrize("argv", [
        # one unit cannot hold two vectors with cosine 0
        ["simulate", "--activation", "relu", "--width", "1", "--depth", "2"],
        # a dead ReLU layer leaves a zero vector, whose cosine is undefined
        ["simulate", "--activation", "relu", "--width", "2", "--depth", "6",
         "--trials", "2", "--pairs", "3"],
        # the negative branch grows by 1e50 a layer until it overflows
        ["simulate", "--activation", "lrelu:1e50", "--width", "8", "--depth", "6",
         "--trials", "1", "--pairs", "1"],
    ])
    def test_undefined_statistics_give_envelope(self, capsys, argv):
        code, out, err = invoke(argv, capsys)
        assert code == 1 and out == ""
        _envelope(err)


def _float_options():
    """(subcommand, option, dest, required argv) for every float-typed option."""
    subs = next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    out = []
    for name, p in subs.choices.items():
        required = []
        for a in p._actions:
            if a.required:
                required += [a.option_strings[0], a.choices[0] if a.choices else "1"]
        out += [(name, a.option_strings[0], a.dest, required)
                for a in p._actions if a.type is float]
    return out


class TestNegativeExponentValues:
    @pytest.mark.parametrize("name, option, dest, required", _float_options())
    @pytest.mark.parametrize("value", ["-2.5e-05", "-1E+3", "-.5e1", "-7.", "-inf"])
    def test_every_float_option_takes_one(self, name, option, dest, required, value):
        args = _build_parser().parse_args([name, *required, option, value])
        assert getattr(args, dest) == float(value)

    def test_the_walk_sees_the_float_options(self):
        assert {(name, option) for name, option, _, _ in _float_options()} >= {
            ("solve", "--eta"), ("solve", "--tau"), ("solve", "--zeta"),
            ("solve", "--sigma-b"), ("cmap", "--from"), ("simulate", "--c0"),
            ("ode", "--eta"), ("ode", "--T"), ("ode", "--c0")}

    def test_simulate_c0(self, capsys):
        code, out, _ = invoke(
            ["simulate", "--activation", "trelu:0.2", "--width", "16", "--depth", "2",
             "--trials", "1", "--pairs", "2", "--c0", "-2.5e-05"], capsys)
        assert code == 0
        assert float(list(csv.reader(io.StringIO(out)))[1][1]) == pytest.approx(-2.5e-05)

    def test_solve_sigma_b_reaches_the_solver(self, capsys):
        code, _, err = invoke(["solve", "--method", "eoc", "--sigma-b", "-1e-3"], capsys)
        assert code == 1
        assert "-0.001" in _envelope(err)["message"]

    def test_ode_c0(self, capsys):
        code, out, _ = invoke(["ode", "--T", "1", "--c0", "-1e-1"], capsys)
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[1] == ["0", "-0.1"]

    def test_a_following_flag_is_not_taken_as_a_value(self, capsys):
        assert invoke(["ode", "--c0", "--T", "1"], capsys)[0] == 2


def _mostly(good, bad):
    """good nine times in ten, else bad."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 9 else good)


_NUMBERS = _mostly(st.one_of(
    st.sampled_from(["0", "-0", "nan", "-nan", "inf", "-inf", "1e300", "-1e300",
                     "1e-300", "-1e-300", "-2.5e-05", "-1e-3", "1e+3"]),
    st.floats(-1.0, 1.0).map(repr),
    st.floats(0.0, 4.0).map(repr),
    st.floats(allow_nan=False).map(repr),
), st.text(max_size=3))
_ACTIVATIONS = st.one_of(
    _mostly(st.sampled_from(["relu", "tanh", "softplus", "identity", "trelu:0.2"]),
            st.just("swish")),
    st.builds("{}:{}".format, st.sampled_from(["lrelu", "trelu"]), _NUMBERS),
)
_GRAPHS = st.one_of(
    st.integers(1, 8).map("vanilla:{}".format),
    st.builds("resnet:{}:{}{}".format, st.integers(1, 4),
              st.one_of(st.floats(-1.0, 1.0).map(repr), _NUMBERS),
              st.sampled_from(["", ":transitions"])),
    st.sampled_from(["vanilla:x", "mesh:3", "file:/nonexistent.json"]),
)


def _ints(lo, hi):
    return _mostly(st.integers(lo, hi).map(str), _NUMBERS)


@st.composite
def _options(draw, command, required, optional):
    """command, then its flags in random order: each required flag is left out
    one time in ten, each optional one half the time."""
    chosen = ([o for o in required if draw(st.integers(0, 9)) < 9]
              + [o for o in optional if draw(st.booleans())])
    chosen = draw(st.permutations(chosen))
    return [*command, *(tok for flag, values in chosen for tok in (flag, draw(values)))]


@st.composite
def _simulate_argv(draw):
    trials = draw(st.integers(1, 3))
    pairs = draw(st.integers(1, 6 // trials))
    return draw(_options(["simulate"], [
        ("--activation", _ACTIVATIONS), ("--width", _ints(2, 64)), ("--depth", _ints(1, 6)),
        ("--trials", st.just(str(trials))), ("--pairs", st.just(str(pairs))),
    ], [
        ("--seed", _ints(0, 2**32)),
        ("--init", _mostly(st.sampled_from(["gaussian", "suo"]), st.just("haar"))),
        ("--c0", _NUMBERS),
    ]))


_TARGETS = {"tat-lrelu": "--eta", "tat-smooth": "--tau", "dks": "--zeta"}


def _solve_argv(method):
    """The graph and target flag a method needs, the other flags maybe."""
    required = [(flag, _NUMBERS) for flag in (_TARGETS.get(method),) if flag]
    if method != "eoc":
        required.append(("--graph", _GRAPHS))
    optional = [(flag, _NUMBERS) for flag in ("--eta", "--tau", "--zeta", "--sigma-b")
                if flag not in dict(required)]
    return _options(["solve", "--method", method], required,
                    optional + [("--activation", _ACTIVATIONS)])


_ARGVS = {
    "solve": _mostly(st.sampled_from(["tat-lrelu", "tat-smooth", "dks", "eoc"]),
                     st.just("nope")).flatmap(_solve_argv),
    "cmap": _options(["cmap"], [("--graph", _GRAPHS), ("--activation", _ACTIVATIONS)],
                     [("--from", _NUMBERS), ("--points", _ints(1, 50))]),
    "simulate": _simulate_argv(),
    "ode": _options(["ode"], [], [("--eta", _NUMBERS), ("--T", _NUMBERS), ("--c0", _NUMBERS)]),
    "validate-graph": _options(["validate-graph"], [("--graph", _GRAPHS)], []),
}


class TestArgvFuzz:
    """Random argv per subcommand: every outcome is a clean exit 0, 1 or 2."""

    @pytest.mark.parametrize("name, examples", [
        ("solve", 150), ("cmap", 150), ("simulate", 150), ("ode", 6), ("validate-graph", 30),
    ])
    def test_random_argv(self, name, examples):
        @settings(derandomize=True, deadline=None, max_examples=examples, database=None)
        @given(_ARGVS[name])
        def check(argv):
            code, out, err = _run_captured(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                _envelope(err)
            if code != 0 or name == "validate-graph":
                return
            if name == "solve":
                json.loads(out, parse_constant=_reject_constant)
            else:
                values = [float(v) for row in list(csv.reader(io.StringIO(out)))[1:]
                          for v in row]
                assert values and all(math.isfinite(v) for v in values), argv

        check()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert invoke(["frobnicate"], capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert invoke(["ode", "--T", "1.0", "--bogus"], capsys)[0] == 2

    def test_bad_method_choice(self, capsys):
        assert invoke(["solve", "--method", "nope"], capsys)[0] == 2

    def test_bad_graph_spec(self, capsys):
        code, _, err = invoke(
            ["cmap", "--graph", "mesh:3", "--activation", "relu"], capsys
        )
        assert code == 1
        assert "unknown graph spec" in json.loads(err)["message"]


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        # the parser is built once per process; each call must still parse
        # into a fresh namespace, so the eta of one solve does not leak into
        # the next, and usage errors and --version keep their exit codes
        argvs = [
            ["validate-graph", "--graph", "vanilla:3"],
            ["solve", "--method", "tat-lrelu", "--graph", "vanilla:5", "--eta", "0.5"],
            ["solve", "--method", "nope"],
            ["solve", "--method", "tat-lrelu", "--graph", "vanilla:5"],
            ["--version"],
            ["cmap", "--graph", "vanilla:2", "--activation", "relu", "--points", "3"],
            ["ode", "--T", "1.0", "--bogus"],
            ["validate-graph", "--graph", "vanilla:3"],
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(qcmap.__file__)),
             os.environ.get("PYTHONPATH", "")]))
        for argv in argvs:
            fresh = subprocess.run(
                [sys.executable, "-c", "from qcmap.cli import main; main()", *argv],
                capture_output=True, env=env,
            )
            want = (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode())
            assert invoke(argv, capsys) == want, argv


def _run_script(argv, **env_extra):
    """Run the console entry point in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(qcmap.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    env.pop("QCMAP_QUAD_ORDER", None)
    return subprocess.run(
        [sys.executable, "-c", "from qcmap.cli import main; main()", *argv],
        capture_output=True, text=True, env=dict(env, **env_extra),
    )


class TestConsoleScript:
    def test_version_via_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-c", "from qcmap.cli import main; main()", "--version"],
            capture_output=True, text=True,
        )
        # argparse --version exits 0 and prints the version string
        assert result.returncode == 0

    def test_env_var_does_not_set_the_quadrature_order(self):
        # the order is a constant of the code, not an input: a 24-point rule
        # fails the DKS certificate and lets the cmap series exceed C(1) = 1
        for argv in (
            ["solve", "--method", "dks", "--graph", "vanilla:10",
             "--activation", "tanh", "--zeta", "1.5"],
            ["cmap", "--graph", "vanilla:3", "--activation", "tanh"],
        ):
            results = [_run_script(argv, **extra)
                       for extra in ({}, {"QCMAP_QUAD_ORDER": "24"})]
            plain, with_var = ((r.returncode, r.stdout) for r in results)
            assert plain[0] == 0, argv
            assert with_var == plain, argv

    @pytest.mark.parametrize("argv", [
        # the negative branch overflows to inf, then inf - inf gives nan
        ["simulate", "--activation", "lrelu:1e50", "--width", "10", "--depth", "40",
         "--trials", "1", "--pairs", "1"],
        # a dead ReLU layer: its cosine is 0 / 0
        ["simulate", "--activation", "relu", "--width", "2", "--depth", "30",
         "--trials", "1", "--pairs", "1", "--seed", "3", "--c0", "-1"],
    ])
    def test_simulate_refusal_writes_only_the_envelope(self, argv):
        # numpy's floating-point warnings would print source lines first
        result = _run_script(argv)
        assert result.returncode == 1 and result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert _envelope(lines[0])["error"] == "DomainError"
