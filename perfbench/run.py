"""Benchmark of pomsetblock: certify, codes and closed_forms workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  The inputs are generated from the seed (see `inputs.py`) and each
workload runs in a fresh single-threaded interpreter as a closed loop with
one client, so lazy caches start cold as they do for a CLI invocation.

`--workload all` runs the three workloads in turn (metric names in the
final line then carry the workload as a prefix).  With `--trace 0` the run
measures set-up time in several fresh interpreters, then runs as many whole
passes of the workload's job list as take about S seconds on the reference
machine and reports the end-to-end metrics, with every time scaled to the
reference speed of `metrics.reference_s` (the wall-clock figures are in the
`detail` line).  With `--trace 1` it runs one pass with spans and counters
installed between two untraced passes, and reports the per-layer metrics.
Every answer is checked either way.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import metrics  # noqa: E402

SETUP_PROBES = 13
CHILD_TIMEOUT_S = 170
# Whole passes over each workload's job list per 30 s of --seconds; one pass
# takes 4-7 s (certify), about 3 s (codes) and 3-4 s (closed_forms) on the
# reference machine (see README.md).  Whole passes make every run of a seed
# time the same multiset of jobs, and these counts put the tail job (the
# 11th slowest) inside a group of equally heavy jobs rather than at the edge
# between two, where one noisy sample would decide it.
PASSES_PER_30S = {"certify": 6, "codes": 6, "closed_forms": 7}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(spec_path: Path, out_path: Path, *extra: str) -> dict:
    """Run one worker process to completion and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)]
    t0 = time.monotonic()
    proc = subprocess.run(
        [*cmd, "--t0", repr(t0), *extra],
        env=child_env(), cwd=str(ROOT), timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def write_inputs(spec: dict, work: Path) -> Path:
    """Problem files for the CLI requests, then the spec the worker reads."""
    files = []
    for i, doc in enumerate(spec.get("problems", [])):
        path = work / f"problem{i}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        files.append(str(path))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps({**spec, "problem_files": files}), encoding="utf-8")
    return spec_path


def failed_jobs(*results) -> tuple[int, int, bool]:
    """Jobs attempted, jobs failed, and whether no answer was wrong."""
    attempted = failed = wrong = 0
    for res in results:
        for status, count in res["statuses"].items():
            attempted += count
            if status != "ok":
                failed += count
            if status == "wrong":
                wrong += count
    return attempted, failed, wrong == 0


def untraced(spec_path: Path, work: Path, passes: int) -> tuple[dict, dict]:
    """End-to-end metrics, every time scaled to the reference speed.

    Each set-up probe is flanked by two runs of the reference loop in this
    process, each job by two in the worker (see `metrics.at_reference_speed`).
    """
    # The first probe may compile bytecode; it is a warm-up and not counted.
    worker(spec_path, work / "probe.json", "--setup-only")
    setups, wall_setups = [], []
    for _ in range(SETUP_PROBES):
        before = metrics.reference_s()
        wall = worker(spec_path, work / "probe.json", "--setup-only")["setup_s"]
        setups.append(metrics.at_reference_speed(wall, before, metrics.reference_s()))
        wall_setups.append(wall)
    res = worker(spec_path, work / "run.json", "--passes", str(passes))
    wall_lat = res["latencies"]
    lat = metrics.scaled_latencies(wall_lat, res["reference_s"])
    tail_s, pct, count = metrics.tail(lat)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }
    detail = {
        "tail_percentile": round(pct, 3),
        "samples": count,
        "passes": round(res["passes"], 3),
        "statuses": res["statuses"],
        "failures": res["failures"],
        "wall_clock": {
            "setup_s": statistics.median(wall_setups),
            "jobs_per_s": len(wall_lat) / sum(wall_lat),
            "job_p50_ms": statistics.median(wall_lat) * 1e3,
            "job_tail_ms": metrics.tail(wall_lat)[0] * 1e3,
        },
        "reference_ms": {
            "median": statistics.median(res["reference_s"]) * 1e3,
            "at_reference_speed": metrics.REFERENCE_S * 1e3,
        },
        "setup_samples_s": setups,
    }
    return values, {"results": [res], "detail": detail}


def _at_reference_speed(res: dict) -> float:
    """A worker's summed job latency, scaled to the reference speed."""
    return sum(metrics.scaled_latencies(res["latencies"], res["reference_s"]))


def traced(spec_path: Path, work: Path, workload: str) -> tuple[dict, dict]:
    # Untraced passes before and after the traced one.  Their mean, taken at
    # the reference speed and brought to the host's speed during the traced
    # pass, keeps the host's drift between passes out of the overhead ratio.
    before = worker(spec_path, work / "before.json", "--passes", "1")
    spans_path = ROOT / ".perfbench_out" / f"{workload}.spans.json"
    spans_path.parent.mkdir(exist_ok=True)
    res = worker(spec_path, work / "traced.json", "--passes", "1", "--trace", str(spans_path))
    after = worker(spec_path, work / "after.json", "--passes", "1")
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    untraced_ref = (_at_reference_speed(before) + _at_reference_speed(after)) / 2
    untraced_s = untraced_ref * sum(res["latencies"]) / _at_reference_speed(res)
    values = metrics.per_layer(spans, res["counts"], untraced_s)
    detail = {
        "spans": len(spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "statuses": res["statuses"],
        "failures": res["failures"],
    }
    return values, {"results": [before, res, after], "detail": detail}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Generate, run and check one workload; print its summary block."""
    spec = inputs.generate(workload, seed)
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec_path = write_inputs(spec, work)
        if trace:
            values, info = traced(spec_path, work, workload)
        else:
            passes = max(1, round(PASSES_PER_30S[workload] * seconds / 30))
            values, info = untraced(spec_path, work, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted, failed, correct = failed_jobs(*info["results"])
    print(f"workload {workload} seed {seed} trace {trace} "
          f"jobs {len(spec['jobs'])} digest {spec['digest']}")
    for name, (value, unit) in values.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':34s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print("detail " + json.dumps({"workload": workload, "seed": seed,
                                  "digest": spec["digest"], **info["detail"]}))
    return {"correct": correct, "attempted": attempted, "failed": failed, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "pomsetblock" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'pomsetblock'}", file=sys.stderr)
        return 2

    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    prefix = len(runs) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
            for w, r in runs.items()
            for name, (value, unit) in r["values"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
