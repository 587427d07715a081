"""Arithmetic of the benchmark: percentiles, span self time, the per-layer
figures derived from a traced run, and the reference loop that scales
wall-clock times to a fixed host speed."""

from __future__ import annotations

import time
from collections import Counter, defaultdict

LAYERS = ("pomset", "space", "balls", "codes", "oracle", "cli")
TAIL_BEYOND = 10

# The reference loop: fixed pure-Python work (dict lookups, integer
# arithmetic, function calls) that allocates no object the garbage collector
# tracks, so neither the library's code nor the heap it leaves behind can
# change how long the loop takes; only the host's speed can.  REFERENCE_S
# fixes the unit: the loop's time at the reference speed, which lies between
# the reference machine's fast and slow phases (see README.md).
REFERENCE_ROUNDS = 150
REFERENCE_S = 1.9e-3
_REF_KEYS = tuple(range(1000, 1097))
_REF_TABLE = {k: k * 7 % 13 for k in _REF_KEYS}


def _ref_step(t: int, k: int) -> int:
    return t + _REF_TABLE[k] * k % 11


def reference_s() -> float:
    """Wall time of one run of the reference loop, after an untimed round
    that brings its code and data back into the caches the job left."""
    for k in _REF_KEYS:
        _ref_step(0, k)
    t = 0
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        for k in _REF_KEYS:
            t = _ref_step(t, k)
    elapsed = time.perf_counter() - start
    if t != REFERENCE_ROUNDS * sum(_REF_TABLE[k] * k % 11 for k in _REF_KEYS):
        raise RuntimeError("reference loop computed a wrong sum")
    return elapsed


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A wall time scaled to the reference speed.

    `before` and `after` are reference-loop times taken just before and just
    after the timed work; their mean is the host's speed over it.  The shared
    host's speed drifts by tens of percent over seconds to minutes; the work
    and the loop slow down together, so the ratio keeps far less of that
    drift than the wall time does.
    """
    return seconds * REFERENCE_S * 2 / (before + after)


def scaled_latencies(latencies, refs) -> list[float]:
    """Job latencies at the reference speed; refs[i] and refs[i + 1] flank job i."""
    if len(refs) != len(latencies) + 1:
        raise ValueError(f"{len(latencies)} jobs need {len(latencies) + 1} reference timings")
    return [at_reference_speed(t, refs[i], refs[i + 1]) for i, t in enumerate(latencies)]


def tail(values) -> tuple[float, float, int]:
    """Value at the highest percentile that keeps TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count).  With n sorted samples this
    is the one at 0-based index n - TAIL_BEYOND - 1, i.e. percentile
    100 * (n - TAIL_BEYOND) / n; it needs at least TAIL_BEYOND + 1 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    A span is [name, layer, start, end, parent index, job id]; the parent
    index is -1 for a root.  Children are clipped to their parent.
    """
    children = defaultdict(list)
    for idx, sp in enumerate(spans):
        if sp[4] >= 0:
            children[sp[4]].append(idx)
    out = []
    for idx, (_, _, start, end, _, _) in enumerate(spans):
        inner = [
            (max(spans[c][2], start), min(spans[c][3], end)) for c in children[idx]
        ]
        out.append(end - start - covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def per_layer(spans, counts, untraced_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    A rate whose denominator is zero, because the workload never makes the
    call, reads 0.
    """
    counts = Counter(counts)
    selfs = self_times(spans)
    own = defaultdict(float)      # self time by span name
    total = defaultdict(float)    # inclusive time by span name
    calls = defaultdict(int)
    by_layer = defaultdict(float)
    job_s = 0.0
    suite_jobs = set()
    for sp, self_s in zip(spans, selfs):
        name, layer, start, end, _, job = sp
        own[name] += self_s
        total[name] += end - start
        calls[name] += 1
        by_layer[layer] += self_s
        if layer == "job":
            job_s += end - start
        if name == "oracle.verify_formula_suite":
            suite_jobs.add(job)
    census = ("codes.check_I_perfect", "codes.check_r_perfect", "codes.check_r_error_correcting")
    requests = calls["cli.run"]
    m = {
        "space.weight_us_per_vector": (
            _ratio(total["oracle.weight_census"], counts["space.census_vectors"], 1e6), "us"),
        "space.vectors_weighed": (counts["space.vectors_weighed"], "count"),
        "pomset.us_per_ideal": (
            _ratio(own["pomset.all_ideals"] + own["pomset.enumerate_ideals"],
                   counts["pomset.ideals_built"], 1e6), "us"),
        "pomset.ideals_built": (counts["pomset.ideals_built"], "count"),
        "pomset.downsets_s": (own["pomset.enumerate_root_downsets"], "s"),
        "balls.rball_us_per_sphere": (
            _ratio(own["balls.r_ball_cardinality"], counts["balls.rball_spheres"], 1e6), "us"),
        "balls.sphere_evals": (counts["balls.sphere_evals"], "count"),
        "balls.ball_members": (counts["balls.ball_members"], "count"),
        "balls.in_ball_tests": (counts["balls.in_ball_tests"], "count"),
        "codes.span_us_per_tuple": (
            _ratio(total["codes.span_generator"], counts["codes.span_tuples"], 1e6), "us"),
        "codes.dual_us_per_vector": (
            _ratio(total["codes.dual_code"], counts["codes.dual_vectors"], 1e6), "us"),
        "codes.census_us_per_membership": (
            _ratio(sum(own[n] for n in census), counts["codes.memberships"], 1e6), "us"),
        "codes.memberships": (counts["codes.memberships"], "count"),
        "codes.intersect_us_per_codeword": (
            _ratio(total["codes.ball_code_intersection"], counts["codes.intersect_codewords"],
                   1e6), "us"),
        "oracle.suite_self_s": (
            _ratio(own["oracle.verify_formula_suite"], len(suite_jobs)), "s/job"),
        "oracle.metric_us_per_triple": (
            _ratio(total["oracle.verify_metric"], counts["oracle.triples"], 1e6), "us"),
        "oracle.checks_skipped": (counts["oracle.checks_skipped"], "count"),
        "cli.load_ms": (_ratio(total["cli.load_problem"], requests, 1e3), "ms"),
        "cli.overhead_ms": (_ratio(own["cli.run"], requests, 1e3), "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = (_ratio(by_layer[layer], job_s), "ratio")
    m["trace.overhead_ratio"] = (_ratio(job_s - untraced_s, untraced_s), "ratio")
    return m
