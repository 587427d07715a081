"""One benchmark process: set up in a fresh interpreter, run jobs, check them.

Run by `run.py`, never imported.  The process is single-threaded and runs
its jobs back to back as a closed loop with one client; each check runs
after its job has returned, outside the timed region.

    python3 perfbench/worker.py SPEC OUT --t0 T (--setup-only | --passes P)
        [--trace SPANS]

`--t0` is the parent's monotonic clock just before it started this process.
Set-up time is interpreter start (t0 to this module's first line) plus
`import pomsetblock` and building the workload's objects; the harness's own
imports and reading the generated inputs between the two are left out.
"""

from __future__ import annotations

import time

HARNESS_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import jobs as jobmod  # noqa: E402
import metrics  # noqa: E402

HARD_LIMIT_S = 140.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("out")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--passes", type=int)
    ap.add_argument("--trace")
    args = ap.parse_args()

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)

    lib_start = time.monotonic()
    import pomsetblock
    from pomsetblock import balls, oracle, pomset, space

    lib = SimpleNamespace(pomset=pomset, space=space, balls=balls, oracle=oracle)
    if spec["workload"] == "codes":
        from pomsetblock import cli

        lib.cli = cli
    ctx = SimpleNamespace(
        spaces=[
            pomsetblock.Space(
                d["m"],
                pomsetblock.Pomset.from_relations(d["pomset"]["s"], d["m"] // 2,
                                                  d["pomset"]["relations"]),
                tuple(d["labeling"]),
            )
            for d in spec.get("spaces", [])
        ],
        problem_files=spec.get("problem_files", []),
    )
    setup_s = (HARNESS_START - args.t0) + (time.monotonic() - lib_start)
    if args.setup_only:
        _write(args.out, {"setup_s": setup_s})
        return

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    result = loop(lib, ctx, spec, rec, args.passes)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        result["counts"] = dict(rec.counts)
        _write(args.trace, rec.spans)
    _write(args.out, result)


def loop(lib, ctx, spec, rec, passes: int) -> dict:
    """Run the job list `passes` times over, or until HARD_LIMIT_S.

    The reference loop runs before each job and after the last, so every
    job's latency is flanked by two timings of the host's speed.
    """
    job_list = spec["jobs"]
    refs: dict = {}
    latencies: list[float] = []
    speed: list[float] = []
    statuses: Counter = Counter()
    failures: list[str] = []
    started = time.monotonic()
    n = 0
    while n < passes * len(job_list) and time.monotonic() - started < HARD_LIMIT_S:
        job = job_list[n % len(job_list)]
        speed.append(metrics.reference_s())
        if rec is not None:
            rec.job = n
            root = rec.open("job", "job")
        t = time.perf_counter()
        try:
            answer = jobmod.run_job(lib, ctx, job)
            raised = None
        except (Exception, SystemExit) as exc:  # a failed job, counted below
            raised = exc
        dt = time.perf_counter() - t
        if rec is not None:
            rec.close(root)
            rec.paused = True
        if raised is not None:
            status, reason = jobmod.ERROR, f"{type(raised).__name__}: {raised}"
        else:
            space_doc = None
            if "space" in job:
                space_doc = spec["spaces"][job["space"]]
                if job["space"] not in refs and job["kind"] in ("rball_sweep", "ideals_by_card"):
                    refs[job["space"]] = jobmod.reference(lib, ctx.spaces[job["space"]])
            status, reason = jobmod.check(job, jobmod.summarize(job, answer),
                                          refs.get(job.get("space")), space_doc)
        if rec is not None:
            rec.paused = False
        answer = None
        latencies.append(dt)
        statuses[status] += 1
        if status != jobmod.OK and statuses[status] <= 3:
            failures.append(f"{job['kind']} {job.get('argv', '')}: {status}: {reason}")
        n += 1
    speed.append(metrics.reference_s())
    return {
        "latencies": latencies,
        "reference_s": speed,
        "statuses": dict(statuses),
        "failures": failures,
        "passes": n / len(job_list),
    }


def _write(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
