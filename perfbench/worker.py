"""Benchmark worker: one fresh interpreter that serves CLI requests in-process.

Started by run.py.  It reads one JSON job line on stdin, imports qcmap
from the checkout's src/ directory, runs the untimed warm-up requests and
reports "ready"; the time until then is the set-up time.  A set-up-only
worker exits there.  A run worker then serves decks of requests through
qcmap.cli.run, closed loop, and reports the per-request results as one
JSON line on stdout.  Protocol lines are the only output on stdout: the
CLI's own output goes into per-request buffers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


class Deadline(BaseException):
    """Raised by SIGALRM inside a request that ran past the deadline.

    A BaseException, so no `except Exception` in qcmap can swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


def execute(cli, argv: list[str], deadline_s: float) -> dict:
    """Run one CLI request; never raises (the deadline included)."""
    out, err = io.StringIO(), io.StringIO()
    rec = {"outcome": "returned", "rc": None, "exc": None}
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rec["rc"] = cli.run(list(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        rec["outcome"] = "deadline"
    except Exception as e:  # an escaping exception is a counted failure
        rec["outcome"] = "exception"
        rec["exc"] = f"{type(e).__name__}: {e}"
    rec["ms"] = (time.perf_counter() - t0) * 1e3
    rec["stdout"], rec["stderr"] = out.getvalue(), err.getvalue()
    rec["out_bytes"] = len(rec["stdout"]) + len(rec["stderr"])
    return rec


def _send(msg: dict) -> None:
    sys.__stdout__.write(json.dumps(msg) + "\n")
    sys.__stdout__.flush()


def _metadata() -> dict:
    import numpy as np
    import qcmap

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "quad_order": qcmap.default_rule().order,
        "qcmap_file": str(Path(qcmap.__file__).relative_to(ROOT)),
    }


def _run_pass(cli, reqs, deadline_s, tracer=None) -> list[dict]:
    recs = []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.req_id = i
        recs.append(execute(cli, req["argv"], deadline_s))
        if tracer is not None and recs[-1]["outcome"] == "deadline":
            tracer.repair()
    return recs


def main() -> int:
    job = json.loads(sys.stdin.readline())
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qcmap
    from qcmap import cli

    if not Path(qcmap.__file__).resolve().is_relative_to(src):
        print(f"qcmap imported from {qcmap.__file__}, not {src}", file=sys.stderr)
        return 3
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline_s, gdir = job["deadline_s"], job["graph_dir"]
    workload = job["workload"]
    for req in workloads.warmups(workload, gdir):
        execute(cli, req["argv"], deadline_s)
    _send({"event": "ready"})
    if job["role"] == "setup":
        return 0

    import checks

    seed, seconds = job["seed"], job["seconds"]
    result = {"event": "done", "meta": _metadata()}
    if not job["trace"]:
        # closed loop over whole cycles of decks until the time is up
        reqs, recs = [], []
        cycle = workloads.CYCLE[workload]
        t_start = time.perf_counter()
        k = 0
        while k == 0 or k % cycle or time.perf_counter() - t_start < seconds:
            deck = workloads.deck(workload, seed, k, gdir)
            recs += _run_pass(cli, deck, deadline_s)
            reqs += deck
            k += 1
        result["wall_s"] = time.perf_counter() - t_start
        result["decks"] = k
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracer import Tracer, attribution, layer_metrics

        reqs = []
        for k in range(workloads.TRACE_DECKS[workload]):
            reqs += workloads.deck(workload, seed, k, gdir)
        tracer = Tracer()
        tracer.install()
        try:
            recs = _run_pass(cli, reqs, deadline_s, tracer)
        finally:
            tracer.uninstall()
        replay = _run_pass(cli, reqs, deadline_s)
        overhead = sum(r["ms"] for r in recs) / sum(r["ms"] for r in replay)
        kinds = [r["kind"] for r in reqs]
        out_dir = ROOT / job["out_dir"]
        tracer.save(out_dir / f"spans-{workload}.npz", kinds)
        result["layers"] = layer_metrics(tracer, recs, kinds, overhead)
        result["attribution"] = attribution(tracer, kinds)
        result["decks"] = workloads.TRACE_DECKS[workload]
    result["requests"] = [
        {"kind": req["kind"], "ms": rec["ms"], "rc": rec["rc"], "outcome": rec["outcome"],
         "fail": checks.check(req, rec), "argv": req["argv"]}
        for req, rec in zip(reqs, recs)
    ]
    _send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
