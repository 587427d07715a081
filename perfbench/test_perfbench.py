"""Tests of the benchmark's own helpers: the tail-percentile rule, scaling
to the reference speed, span self time, per-job checks and the trace
wrappers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import jobs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = metrics.tail(list(range(100, 0, -1)))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = metrics.tail([5.0] * 10 + [1.0])
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        metrics.tail([1.0] * 10)


def test_times_scale_to_the_reference_speed():
    r = metrics.REFERENCE_S
    # A host at half speed doubles both the job and the reference loop.
    assert metrics.at_reference_speed(0.2, 2 * r, 2 * r) == pytest.approx(0.1)
    # Each job is scaled by the mean of the two timings that flank it.
    assert metrics.scaled_latencies([0.1, 0.3], [r, 3 * r, r]) == pytest.approx([0.05, 0.15])
    with pytest.raises(ValueError):
        metrics.scaled_latencies([0.1, 0.3], [r, r])
    assert metrics.reference_s() > 0


def span(name, layer, start, end, parent, job=0):
    return [name, layer, start, end, parent, job]


def test_self_time_of_nested_spans():
    spans = [
        span("job", "job", 0.0, 10.0, -1),
        span("codes.dual_code", "codes", 1.0, 4.0, 0),
        span("pomset.all_ideals", "pomset", 2.0, 3.0, 1),
        span("balls.r_ball_cardinality", "balls", 5.0, 9.0, 0),
    ]
    assert metrics.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # Overlapping children count once; a child leaking past its parent is clipped.
    spans = [
        span("job", "job", 0.0, 10.0, -1),
        span("a", "codes", 1.0, 4.0, 0),
        span("b", "codes", 3.0, 6.0, 0),
        span("c", "codes", 8.0, 12.0, 0),
    ]
    assert metrics.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_per_layer_shares_and_rates():
    spans = [
        span("job", "job", 0.0, 10.0, -1),
        span("pomset.all_ideals", "pomset", 1.0, 3.0, 0),
        span("balls.r_ball_cardinality", "balls", 4.0, 9.0, 0),
        span("pomset.enumerate_ideals", "pomset", 5.0, 7.0, 2),
    ]
    counts = {"pomset.ideals_built": 4, "balls.rball_spheres": 3}
    m = metrics.per_layer(spans, counts, untraced_s=8.0)
    assert m["pomset.share"][0] == pytest.approx(0.4)
    assert m["balls.share"][0] == pytest.approx(0.3)
    assert m["pomset.us_per_ideal"][0] == pytest.approx(4.0 / 4 * 1e6)
    assert m["balls.rball_us_per_sphere"][0] == pytest.approx(3.0 / 3 * 1e6)
    assert m["trace.overhead_ratio"][0] == pytest.approx(0.25)
    assert m["codes.dual_us_per_vector"][0] == 0


def _first(spec, kind):
    return next(j for j in spec["jobs"] if j["kind"] == kind)


def test_corrupted_answers_count_as_failed():
    spec = inputs.generate("closed_forms", 3)
    job = _first(spec, "rball_sweep")
    size = job["expect"]["size"]
    ref = {"ideals": 2, "spheres_by_card": {1: size - 1}}
    assert jobs.check(job, [1, size], ref)[0] == jobs.OK
    assert jobs.check(job, [1, size - 1], ref)[0] == jobs.WRONG

    job = dict(_first(spec, "ideals_by_card"))
    assert jobs.check(job, [[(0, 0)], [(1, 0)]], {"ideals": 2})[0] == jobs.OK
    assert jobs.check(job, [[(0, 0)], [(0, 1), (1, 1)]], {"ideals": 3})[0] == jobs.WRONG

    cert = _first(inputs.generate("certify", 3), "certify")
    summary = {
        "ok": True,
        "checks": [(name, "pass", "") for name in jobs.MUST_PASS],
        "metric": (True, False, cert["expect"]["samples"]),
    }
    summary["checks"][3] = ("sphere-partition", "pass", f"total {cert['expect']['size']}")
    assert jobs.check(cert, summary)[0] == jobs.OK
    summary["checks"][3] = ("sphere-partition", "pass", f"total {cert['expect']['size'] + 1}")
    assert jobs.check(cert, summary)[0] == jobs.WRONG


def test_cli_checks_catch_wrong_and_repeated_output():
    job = {"kind": "cli", "argv": ["intersect"], "expect": {"exit": 0, "count": 3}}
    assert jobs.check(job, (0, "count=3\n")) == (jobs.OK, "")
    assert jobs.check(job, (0, "count=4\n"))[0] == jobs.WRONG
    assert jobs.check(job, (0, "count=3\ncount=3\n"))[0] == jobs.MALFORMED
    assert jobs.check(job, (3, "error=budget\n"))[0] == jobs.ERROR
    failed = {"kind": "cli", "argv": ["partition"], "expect": {"exit": 1, "count": None}}
    twice = "partition=false\nwitness_element=2\n" * 2
    assert jobs.check(failed, (1, twice))[0] == jobs.MALFORMED
    assert run.failed_jobs({"statuses": {"ok": 8, "malformed": 2}}) == (10, 2, True)
    assert run.failed_jobs({"statuses": {"ok": 8, "wrong": 1}}) == (9, 1, False)


def test_generator_is_deterministic():
    for workload in inputs.WORKLOADS:
        a, b = inputs.generate(workload, 7), inputs.generate(workload, 7)
        assert inputs.canonical(a) == inputs.canonical(b)
        assert a["digest"] != inputs.generate(workload, 8)["digest"]


def test_install_rebinds_every_module_and_restores():
    import pomsetblock.cli as cli
    from pomsetblock import balls, pomset
    from pomsetblock.space import Space

    original = balls.r_ball_cardinality
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert cli.r_ball_cardinality is balls.r_ball_cardinality is not original
        sp = Space(5, pomset.Pomset.chain(2, 2), (1, 1))
        assert cli.r_ball_cardinality(sp, 4) == 25
        sp.coords_weight((1, 2))
    finally:
        tracing.uninstall(undo)
    assert cli.r_ball_cardinality is balls.r_ball_cardinality is original
    names = [s[0] for s in rec.spans]
    assert names[0] == "balls.r_ball_cardinality" and "pomset.enumerate_ideals" in names
    assert rec.counts["balls.sphere_evals"] == rec.counts["balls.rball_spheres"] > 0
    assert rec.counts["space.vectors_weighed"] == 1
