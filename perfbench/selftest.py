"""Self-tests of the benchmark: generation, checkers, deadline, span arithmetic.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import signal
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qcmap import cli  # noqa: E402

GDIR = str(HERE.parent / ".perfbench" / "selftest-graphs")
workloads.write_graph_files(Path(GDIR))


def _run(argv, deadline_s=60.0):
    return worker.execute(cli, argv, deadline_s)


def _req(argv, expect=workloads.OK):
    return {"kind": "test", "argv": argv, "expect": expect}


def _perturb_json(rec, path, delta):
    out = json.loads(rec["stdout"])
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    return dict(rec, stdout=json.dumps(out))


def _perturb_csv(rec, row, col, delta):
    lines = rec["stdout"].splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    return dict(rec, stdout="\n".join(lines) + "\n")


class Generation(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for wl in workloads.WORKLOADS + workloads.EXTRA_WORKLOADS:
            for k in range(3):
                a = [r["argv"] for r in workloads.deck(wl, 7, k, GDIR)]
                b = [r["argv"] for r in workloads.deck(wl, 7, k, GDIR)]
                self.assertEqual(a, b)
        self.assertNotEqual([r["argv"] for r in workloads.deck("solve", 7, 0, GDIR)],
                            [r["argv"] for r in workloads.deck("solve", 8, 0, GDIR)])

    def test_same_mix_in_every_cycle(self):
        def mix(wl, seed, c):
            cycle = workloads.CYCLE[wl]
            return sorted(r["kind"] for k in range(c * cycle, (c + 1) * cycle)
                          for r in workloads.deck(wl, seed, k, GDIR)
                          if "/error/" not in r["kind"])

        for wl in workloads.WORKLOADS:
            for seed, c in ((1, 0), (2, 1), (3, 2)):
                self.assertEqual(mix(wl, seed, c), mix(wl, 0, 0))

    def test_simulate_mostly_narrow(self):
        deck = workloads.deck("simulate", 3, 0, GDIR)
        narrow = [r for r in deck if r["kind"].startswith("simulate/narrow/")]
        self.assertGreater(len(narrow), len(deck) / 2)
        for r in deck:
            width = int(checks._flag(r["argv"], "--width"))
            pairs = int(checks._flag(r["argv"], "--pairs"))
            self.assertEqual(width < 2 * pairs, r["kind"].startswith("simulate/narrow/"))


class Checkers(unittest.TestCase):
    """Each checker passes the real answer and rejects a perturbed one."""

    def assert_rejects(self, req, rec, bad):
        self.assertIsNone(checks.check(req, rec), msg=" ".join(req["argv"]))
        self.assertIsNotNone(checks.check(req, bad), msg=" ".join(req["argv"]))

    def test_tat_lrelu(self):
        for graph in ("vanilla:20", "resnet:6:0.7:transitions"):
            req = _req(["solve", "--method", "tat-lrelu", "--graph", graph, "--eta", "0.4"])
            rec = _run(req["argv"])
            self.assert_rejects(req, rec, _perturb_json(rec, ["parameters", "alpha"], 1e-3))
            self.assert_rejects(req, rec, _perturb_json(rec, ["targets", "eta"], 1e-3))

    def test_transforms(self):
        for method, flag in (("tat-smooth", ["--tau", "1.5"]), ("dks", ["--zeta", "2.5"])):
            req = _req(["solve", "--method", method, "--graph", "vanilla:20",
                        "--activation", "tanh"] + flag)
            rec = _run(req["argv"])
            for key in ("alpha", "beta", "gamma", "delta"):
                self.assert_rejects(req, rec, _perturb_json(rec, ["parameters", key], 1e-3))

    def test_eoc(self):
        req = _req(["solve", "--method", "eoc", "--activation", "tanh", "--sigma-b", "0.3"])
        rec = _run(req["argv"])
        self.assert_rejects(req, rec, _perturb_json(rec, ["parameters", "sigma_w"], 1e-3))
        self.assert_rejects(req, rec, _perturb_json(rec, ["targets", "q_fixed_point"], 1e-3))

    def test_cmap_curves(self):
        for graph, act in (("resnet:8:0.6", "trelu:0.3"), ("vanilla:2", "relu"),
                           ("vanilla:2", "lrelu:0.2"), ("vanilla:2", "tanh"),
                           ("resnet:1:0.5", "softplus")):
            req = _req(["cmap", "--graph", graph, "--activation", act,
                        "--points", "21", "--from", "-0.5"])
            rec = _run(req["argv"])
            self.assert_rejects(req, rec, _perturb_csv(rec, 10, 1, 1e-3))
            self.assert_rejects(req, rec, _perturb_csv(rec, 20, 1, -1e-3))

    def test_ode(self):
        for argv in (["ode", "--eta", "0.6"], ["ode", "--T", "2.5", "--c0", "0.3"]):
            req = _req(argv)
            rec = _run(argv)
            last = len(rec["stdout"].splitlines()) - 2
            self.assert_rejects(req, rec, _perturb_csv(rec, last, 1, -1e-3))
            self.assert_rejects(req, rec, _perturb_csv(rec, last, 0, 1e-3))

    def test_simulate(self):
        for act, width in (("trelu:0.2", 256), ("tanh", 40)):
            req = _req(["simulate", "--activation", act, "--width", str(width),
                        "--depth", "12", "--trials", "2", "--pairs", "20",
                        "--seed", "5", "--init", "suo", "--c0", "0.1"])
            rec = _run(req["argv"])
            self.assert_rejects(req, rec, _perturb_csv(rec, 7, 4, 1e-3))
            self.assert_rejects(req, rec, _perturb_csv(rec, 0, 1, 1e-3))
            self.assert_rejects(req, rec, dict(rec, stdout=rec["stdout"].replace("0.", "nan", 1)))

    def test_wide_agreement(self):
        # on a wide network the empirical mean must track the theory
        req = _req(["simulate", "--activation", "trelu:0.2", "--width", "512",
                    "--depth", "12", "--trials", "1", "--pairs", "20", "--seed", "5"])
        rec = _run(req["argv"])
        self.assert_rejects(req, rec, _perturb_csv(rec, 6, 1, 0.5))

    def test_error_traffic(self):
        for req in workloads._error_requests(__import__("random").Random(3), GDIR):
            rec = _run(req["argv"])
            self.assertIsNone(checks.check(req, rec), msg=req["kind"])
            wrong_rc = dict(rec, rc=0 if rec["rc"] else 1)
            self.assertIsNotNone(checks.check(req, wrong_rc), msg=req["kind"])
            if rec["rc"] == 1:
                self.assertIsNotNone(checks.check(req, dict(rec, stderr="oops\n")))
                env = json.loads(rec["stderr"])
                env["error"] = "SomethingElse"
                self.assertIsNotNone(checks.check(req, dict(rec, stderr=json.dumps(env))))
                del env["context"]
                self.assertIsNotNone(checks.check(req, dict(rec, stderr=json.dumps(env))))

    def test_success_with_wrong_exit_code(self):
        req = _req(["solve", "--method", "eoc", "--activation", "tanh"])
        rec = _run(req["argv"])
        self.assert_rejects(req, rec, dict(rec, rc=1))

    def test_escaped_exception_counts(self):
        req = _req(["solve", "--method", "tat-lrelu", "--eta", "0.5"])
        rec = _run(req["argv"])  # no --graph: escapes cli.run today
        bad = dict(rec, outcome="exception", rc=None, exc="AttributeError: x")
        self.assertIsNotNone(checks.check(req, bad))


class DeadlineTest(unittest.TestCase):
    def setUp(self):
        self.old = signal.signal(signal.SIGALRM, worker._on_alarm)

    def tearDown(self):
        signal.signal(signal.SIGALRM, self.old)

    def test_deadline_fires_and_counts(self):
        argv = ["ode", "--eta", "0.95"]
        t0 = time.perf_counter()
        rec = _run(argv, deadline_s=0.05)
        elapsed = time.perf_counter() - t0
        self.assertEqual(rec["outcome"], "deadline")
        self.assertLess(elapsed, 1.0)
        self.assertGreaterEqual(rec["ms"], 50.0)
        self.assertEqual(checks.check(_req(argv), rec), "aborted at the per-request deadline")
        # the next request runs normally: the timer was disarmed
        rec = _run(["solve", "--method", "eoc", "--activation", "tanh"], deadline_s=5.0)
        self.assertEqual(rec["outcome"], "returned")
        self.assertEqual(rec["rc"], 0)

    def test_deadline_inside_traced_call(self):
        t = tracer.Tracer()
        t.install()
        try:
            t.req_id = 0
            rec = _run(["ode", "--eta", "0.95"], deadline_s=0.05)
            t.repair()
        finally:
            t.uninstall()
        self.assertEqual(rec["outcome"], "deadline")
        a = t.arrays()
        self.assertEqual(len({v.size for v in a.values()}), 1)
        self.assertTrue(np.all(a["end"] >= a["start"]))
        self.assertEqual(t.stack, [-1])


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_synthetic_nested_trace(self):
        # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]; d [12, 13] is another root
        parent = np.array([-1, 0, 0, 2, -1])
        start = np.array([0.0, 1.0, 5.0, 6.0, 12.0])
        end = np.array([10.0, 4.0, 9.0, 7.0, 13.0])
        got = tracer.self_times(parent, end - start)
        np.testing.assert_allclose(got, [3.0, 3.0, 3.0, 1.0, 1.0])

    def test_wrapped_calls_nest_and_add_up(self):
        t = tracer.Tracer()

        def leaf(x):
            time.sleep(0.002)
            return x + 1

        leaf_w = t.wrap(leaf, "activations.leaf")

        def outer(x):
            time.sleep(0.003)
            return leaf_w(leaf_w(x))

        outer_w = t.wrap(outer, "kernel_maps.outer")
        t.req_id = 4
        self.assertEqual(outer_w(1), 3)
        a = t.arrays()
        self.assertEqual(a["parent"].tolist(), [-1, 0, 0])
        self.assertEqual(a["req"].tolist(), [4, 4, 4])
        dur = a["end"] - a["start"]
        own = tracer.self_times(a["parent"], dur)
        self.assertAlmostEqual(own.sum(), dur[0], places=12)
        self.assertGreater(own[0], 0.002)

    def test_install_restores_every_original(self):
        import qcmap
        from qcmap import activations, kernel_maps, netgraph

        before = (qcmap.eval_M, netgraph.eval_M, kernel_maps.eval_U,
                  activations.Tanh.__dict__["value"],
                  kernel_maps.QuadratureRule.__dict__["expect"])
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(netgraph.eval_M, before[1])
            self.assertIs(qcmap.eval_M, netgraph.eval_M)
            self.assertIs(kernel_maps.eval_U, netgraph.eval_U)
        finally:
            t.uninstall()
        after = (qcmap.eval_M, netgraph.eval_M, kernel_maps.eval_U,
                 activations.Tanh.__dict__["value"],
                 kernel_maps.QuadratureRule.__dict__["expect"])
        for x, y in zip(before, after):
            self.assertIs(x, y)


if __name__ == "__main__":
    unittest.main(verbosity=2)
