"""qcmap benchmark: seeded CLI workloads, checked outputs, traced attribution.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload curve --seed 1 --trace 1
    python3 perfbench/run.py --workload defects        # known contract holes
    python3 perfbench/selftest.py                      # the benchmark's own tests

Load shape: one client, closed loop, one worker interpreter that calls
qcmap.cli.run(argv) in-process and waits for each reply.  The worker's
environment is fixed here: BLAS/OpenMP threads pinned to 1 and
QCMAP_QUAD_ORDER removed, so the default quadrature order is in force.

With --trace 0 the run starts SETUPS fresh workers one after another;
each imports qcmap and serves one untimed warm-up request per request kind,
and setup_s is the median of their start-to-ready times.  The last worker
then serves whole cycles of request decks (see workloads.py) until
--seconds have passed, and every answer is checked afterwards (see
checks.py).

With --trace 1 the worker wraps qcmap's public functions (see tracer.py),
serves a fixed number of decks traced, replays them untraced to measure
the tracing overhead, and reports the per-layer metrics.  Spans and the
per-kind attribution are written to .perfbench/ in the checkout.

The last line of stdout is the JSON result:
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ".perfbench"
GRAPH_DIR = ".perfbench/graphs"
BUDGET_S = 170.0  # a run that is not done by then is killed and fails
SETUPS = 3  # fresh workers started per timed run; setup_s is their median

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("QCMAP_QUAD_ORDER", "PYTHONPATH", "PYTHONSTARTUP", "PYTHONHOME"):
        env.pop(var, None)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
    })
    return env


class Worker:
    """One worker interpreter, killed if it outlives the run's budget."""

    def __init__(self, job: dict, deadline: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=worker_env(), text=True,
        )
        self._timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self._timer.start()
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.close()

    def receive(self, event: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker ended before sending {event!r}")
        msg = json.loads(line)
        if msg.get("event") != event:
            raise BenchError(f"worker sent {msg.get('event')!r}, expected {event!r}")
        return msg

    def close(self) -> None:
        try:
            self.proc.stdout.close()
            self.proc.wait()
        finally:
            self._timer.cancel()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")


def percentile(values, p: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def source_metadata() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcmap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def run(args) -> dict:
    if not (ROOT / "src" / "qcmap" / "__init__.py").is_file():
        raise BenchError(f"no qcmap sources under {ROOT / 'src'}")
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    workloads.write_graph_files(ROOT / GRAPH_DIR)
    kill_at = time.monotonic() + BUDGET_S
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "deadline_s": args.deadline_s,
           "graph_dir": GRAPH_DIR, "out_dir": OUT_DIR}
    setups = []
    n_setups = 1 if args.trace else SETUPS
    for i in range(n_setups):
        last = i == n_setups - 1
        t0 = time.perf_counter()
        worker = Worker(dict(job, role="run" if last else "setup"), kill_at)
        worker.receive("ready")
        setups.append(time.perf_counter() - t0)
        if not last:
            worker.close()
    try:
        done = worker.receive("done")
    finally:
        worker.close()
    done["setups_s"] = setups
    return done


def report(args, done: dict) -> dict:
    reqs = done["requests"]
    failed = [r for r in reqs if r["fail"] is not None]
    meta = dict(done["meta"], **source_metadata(), workload=args.workload,
                seed=args.seed, decks=done["decks"], deadline_s=args.deadline_s)
    meta["requests_per_kind"] = dict(sorted(Counter(r["kind"] for r in reqs).items()))
    print(f"# qcmap benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}")
    for key, val in meta.items():
        print(f"#   {key}: {val}")
    print(f"#   {'kind':34s} {'n':>5s} {'failed':>6s} {'p50 ms':>9s} {'max ms':>9s}")
    for kind in meta["requests_per_kind"]:
        ms = [r["ms"] for r in reqs if r["kind"] == kind]
        nf = sum(1 for r in reqs if r["kind"] == kind and r["fail"])
        print(f"#   {kind:34s} {len(ms):5d} {nf:6d} {percentile(ms, 50):9.2f} {max(ms):9.2f}")
    for r in failed[:20]:
        print(f"# FAILED {r['kind']}: {r['fail']}  [{' '.join(r['argv'])}]")
    if len(failed) > 20:
        print(f"# ... and {len(failed) - 20} more failures")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in done["layers"].items()}
        print("# per-kind attribution (share of request time):")
        for kind, a in done["attribution"].items():
            layers = ", ".join(f"{k} {v:.0%}" for k, v in a["layer_share"].items() if v >= 0.005)
            top = ", ".join(f"{k} {v:.0%}" for k, v in a["inclusive_share"].items())
            print(f"#   {kind} ({a['requests']} req, {a['ms']:.0f} ms)")
            print(f"#     self time by layer: {layers}")
            print(f"#     inclusive by function: {top}")
        print("#   waiting time: none -- one thread, no queues; self time is busy time")
    else:
        ms = [r["ms"] for r in reqs]
        metrics = {
            "setup_s": {"value": statistics.median(done["setups_s"]), "unit": "s"},
            "req_ms_p50": {"value": percentile(ms, 50), "unit": "ms"},
            "req_ms_p90": {"value": percentile(ms, 90), "unit": "ms"},
            "req_per_s": {"value": len(reqs) / done["wall_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": done["peak_rss_mb"], "unit": "MB"},
        }
        fail_frac = len(failed) / len(reqs)
        print(f"#   fail_frac: {fail_frac:.4f} ({len(failed)}/{len(reqs)})  "
              f"setups_s: {[round(s, 4) for s in done['setups_s']]}")
        for name, m in metrics.items():
            print(f"#   {name}: {m['value']:.6g} {m['unit']}")
    result = {"correct": not failed, "attempted": len(reqs), "failed": len(failed),
              "metrics": metrics}
    saved = dict(result, meta=meta, attribution=done.get("attribution"),
                 failures=[{k: r[k] for k in ("kind", "argv", "fail")} for r in failed],
                 requests=[[r["kind"], round(r["ms"], 4)] for r in reqs])
    path = ROOT / OUT_DIR / f"result-{args.workload}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(saved, indent=1))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--deadline-s", type=float, default=30.0,
                   help="per-request deadline; a request still running is aborted "
                        "and counted as failed")
    args = p.parse_args(argv)
    try:
        result = report(args, run(args))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
