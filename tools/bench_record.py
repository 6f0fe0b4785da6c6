"""Parent-vs-change benchmark record: alternating pairs of perfbench runs.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --parent HEAD~1 --change HEAD \
        --seeds 301-310 --out BENCH_<n>.json

Both revisions are exported with `git archive` into fresh directories under
the system temp directory, and `perfbench/run.py --trace 0` runs there for
each workload and seed: pair i runs the parent first when i is even and the
change first when i is odd, with the same seed on both sides.  Each side
then gets one traced run (seed 1) for the per-layer metrics, and the
change's tier-1 suite runs once with -W error::RuntimeWarning and
--durations=15, as in CI.

The only file written in the repository is --out:
    {git_sha, parent_sha, numpy, cores, seeds, seconds, src_lines: {parent,
     change}, src_lines_by_file: {parent: {path: lines}, change: {...}},
     workloads: {name: {metric: {parent: [median, q1, q3], change: [...],
     wins, pairs, verdict}}, failed, attempted, failed_share, runs},
     trace: {name: {metric: {parent, change}}}, tier1}
where src_lines counts the lines of src/**/*.py in each exported tree (the
net-lines metric of ROADMAP.md), src_lines_by_file splits that count by
file, and wins counts the pairs in which the
change is better in the direction BENCHMARK.json gives the metric.  verdict judges the metric against its
BENCHMARK.json bound: "worse" when the change's median is past the bound,
else "unresolved" when the parent's quartile spread exceeds the bound and
not every change run beats every parent run, else "ok".  failed_share
totals each side's failed and attempted requests over its runs and is
"worse" when the change fails a larger share of them.  Nothing under
perfbench/ or BENCHMARK.json is changed; the benchmark's own command and
bounds are used as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 1


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Write the files of rev into dest; return the full commit id."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def src_lines_by_file(checkout: Path) -> dict[str, int]:
    """Newline count of each of the tree's src/**/*.py files, as wc -l gives
    it, keyed by its path relative to the tree."""
    return {p.relative_to(checkout).as_posix(): p.read_bytes().count(b"\n")
            for p in sorted(checkout.glob("src/**/*.py"))}


def src_lines(checkout: Path) -> int:
    """Newline count of all the tree's src/**/*.py files."""
    return sum(src_lines_by_file(checkout).values())


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its last stdout line is the JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--deadline-s", "30"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    """[median, q1, q3] (inclusive method: interpolation between samples)."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [med, q1, q3]


def verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """One metric's verdict, "worse", "unresolved" or "ok"; sign is +1 when
    higher is better.  Both thresholds are bound times the parent's median."""
    (p_med, p_q1, p_q3), c_med = quartiles(parent), quartiles(change)[0]
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    all_beat = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_q3 - p_q1 > bound * abs(p_med) and not all_beat:
        return "unresolved"
    return "ok"


def failed_share(failed: dict[str, list[int]], attempted: dict[str, list[int]]) -> dict:
    """{side: {failed, attempted, share}} summed over each side's runs, and a
    verdict: "worse" when the change's share of failed requests is higher."""
    out = {}
    for side in ("parent", "change"):
        f, a = sum(failed[side]), sum(attempted[side])
        out[side] = {"failed": f, "attempted": a, "share": f / a if a else 0.0}
    out["verdict"] = "worse" if out["change"]["share"] > out["parent"]["share"] else "ok"
    return out


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per-metric medians, quartiles, wins and verdict over the pairs of runs;
    metrics maps each name to its BENCHMARK.json entry."""
    out = {}
    for name, spec in metrics.items():
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        out[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(runs),
            "verdict": verdict(parent, change, sign, spec["bound"]),
        }
    return out


def tier1(checkout: Path) -> dict:
    """Run the tier-1 suite once, as CI does (RuntimeWarnings are errors), and
    keep its counts and slowest tests."""
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-W", "error::RuntimeWarning", "--durations=15", "-p", "no:cacheprovider"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - t0
    text = proc.stdout
    counts = {key: int(n) for n, key in re.findall(r"(\d+) (passed|failed|error)", text)}
    slowest = {}
    for s, test in re.findall(r"^(\d+\.\d+)s call\s+(\S+)$", text, flags=re.M):
        slowest[test] = float(s)
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0), "seconds": round(seconds, 1),
            "slowest": slowest}


def parse_seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", default="HEAD~1")
    p.add_argument("--change", default="HEAD")
    p.add_argument("--seeds", default="301-310", help="one seed per pair, e.g. 301-310")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    tmp = Path(tempfile.mkdtemp(prefix="qcmap-bench-"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        shas = {side: export(getattr(args, side), path) for side, path in sides.items()}
        record = {"git_sha": shas["change"], "parent_sha": shas["parent"],
                  "numpy": subprocess.run(
                      [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                      capture_output=True, text=True).stdout.strip(),
                  "cores": len(os.sched_getaffinity(0)), "seeds": seeds,
                  "seconds": seconds,
                  "src_lines": {side: src_lines(path) for side, path in sides.items()},
                  "src_lines_by_file": {side: src_lines_by_file(path)
                                        for side, path in sides.items()},
                  "workloads": {}, "trace": {}}
        for workload in workloads:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench(sides[side], workload, seed, seconds, 0)
                runs.append(pair)
                print(f"# {workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['req_per_s']['value']:.2f} req/s"
                    for side in ("parent", "change")), file=sys.stderr, flush=True)
            failed = {side: [r[side]["failed"] for r in runs] for side in sides}
            attempted = {side: [r[side]["attempted"] for r in runs] for side in sides}
            record["workloads"][workload] = dict(
                summarize(runs, metrics), failed=failed, attempted=attempted,
                failed_share=failed_share(failed, attempted),
                runs=[{"seed": r["seed"], "first": r["first"],
                       **{side: {k: v["value"] for k, v in r[side]["metrics"].items()}
                          for side in sides}} for r in runs],
            )
            traced = {side: bench(sides[side], workload, TRACE_SEED, seconds, 1)["metrics"]
                      for side in sides}
            record["trace"][workload] = {
                name: {side: traced[side].get(name, {}).get("value") for side in sides}
                for name in traced["change"]
            }
        record["tier1"] = tier1(sides["change"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
