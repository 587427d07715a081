"""Job bodies and per-job correctness checks.

A job body calls the library through module attributes (`oracle.verify_metric`,
never a name imported once), so the traced run's wrappers see every call.
Each check takes the job (with the generator's expectations) and a plain
summary of the answer, and returns one of:

- OK: every identity held;
- ERROR: the job raised, ran out of budget or exited with an error code;
- MALFORMED: the answer arrived but broke its output contract, such as a
  machine key printed twice;
- WRONG: a returned value contradicts an identity checked here.

Every status but OK counts as a failed job; only WRONG makes a run incorrect.
"""

from __future__ import annotations

import io
from collections import Counter

import inputs

OK, ERROR, MALFORMED, WRONG = "ok", "error", "malformed", "wrong"

# Suite checks that never skip; `rball-union` and `ball-duality` may skip
# when over their pair budget, which is reported, not failed.
MUST_PASS = (
    "sphere-formula",
    "ball-formula",
    "rball-formula",
    "sphere-partition",
    "full-ball-submodule",
    "partition-tiling",
)


class Verdict(Exception):
    """Raised inside a check to end it with a status and a reason."""

    def __init__(self, status: str, reason: str):
        super().__init__(reason)
        self.status = status
        self.reason = reason


def expect(cond: bool, reason: str, status: str = WRONG) -> None:
    if not cond:
        raise Verdict(status, reason)


# ----------------------------------------------------------------- bodies


def run_job(lib, ctx, job):
    """Execute one job and return the library's raw answer."""
    kind = job["kind"]
    if kind == "cli":
        out = io.StringIO()
        argv = [job["argv"][0], "--machine", *job["argv"][1:], ctx.problem_files[job["problem"]]]
        return lib.cli.run(argv, out=out), out.getvalue()
    sp = ctx.spaces[job["space"]]
    if kind == "certify":
        suite = lib.oracle.verify_formula_suite(sp, seed=job["seed"])
        metric = lib.oracle.verify_metric(sp, seed=job["seed"], samples=job["samples"])
        return suite, metric
    if kind == "rball_sweep":
        return [lib.balls.r_ball_cardinality(sp, r) for r in range(sp.max_weight + 1)]
    if kind == "ideal_balls":
        return [
            (i.counts, lib.balls.I_ball_cardinality(sp, i), lib.balls.I_sphere_cardinality(sp, i))
            for i in lib.pomset.all_ideals(sp.pomset)
        ]
    if kind == "ideals_by_card":
        return [lib.pomset.enumerate_ideals(sp.pomset, r) for r in range(sp.max_weight + 1)]
    if kind == "downsets_by_size":
        return [lib.pomset.enumerate_root_downsets(sp.pomset, k) for k in range(sp.s + 1)]
    raise ValueError(f"unknown job kind {kind!r}")


def summarize(job, answer):
    """Plain-data view of an answer, taken outside the timed region."""
    kind = job["kind"]
    if kind == "certify":
        suite, metric = answer
        return {
            "ok": suite.ok,
            "checks": [(c.name, c.status, c.detail) for c in suite.checks],
            "metric": (metric.passed, metric.exhaustive, metric.triples_checked),
        }
    if kind == "ideals_by_card":
        return [[i.counts for i in layer] for layer in answer]
    if kind == "downsets_by_size":
        return [[sorted(d) for d in layer] for layer in answer]
    return answer


def reference(lib, sp) -> dict:
    """Per-space facts for the closed-form checks, from `all_ideals` alone."""
    by_card: Counter = Counter()
    ideals = lib.pomset.all_ideals(sp.pomset)
    for i in ideals:
        by_card[i.cardinality] += lib.balls.I_sphere_cardinality(sp, i)
    return {"ideals": len(ideals), "spheres_by_card": dict(by_card)}


# ----------------------------------------------------------------- checks


def check(job, summary, ref=None, space_doc=None) -> tuple[str, str]:
    """Status and reason for one finished job."""
    try:
        CHECKS[job["kind"]](job, summary, ref, space_doc)
    except Verdict as v:
        return v.status, v.reason
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        # An answer the check cannot even read, such as a non-numeric value.
        return MALFORMED, f"unreadable answer: {type(exc).__name__}: {exc}"
    return OK, ""


def _check_certify(job, summary, ref, space_doc):
    exp = job["expect"]
    statuses = {name: status for name, status, _ in summary["checks"]}
    expect(summary["ok"], "suite report not ok")
    for name in MUST_PASS:
        expect(statuses.get(name) == "pass", f"suite check {name} is {statuses.get(name)}")
    detail = {name: d for name, _, d in summary["checks"]}["sphere-partition"]
    expect(detail == f"total {exp['size']}", f"census {detail!r}, space has {exp['size']}")
    passed, exhaustive, triples = summary["metric"]
    expect(passed, "metric axioms failed")
    expect(not exhaustive and triples == exp["samples"], f"metric checked {triples} triples")


def _check_rball_sweep(job, balls, ref, space_doc):
    exp = job["expect"]
    expect(balls[0] == 1, f"radius-0 ball has {balls[0]} vectors")
    expect(balls[-1] == exp["size"], f"full-radius ball {balls[-1]} != m^n {exp['size']}")
    spheres = ref["spheres_by_card"]
    for r in range(1, len(balls)):
        expect(
            balls[r] - balls[r - 1] == spheres.get(r, 0),
            f"ball({r}) - ball({r - 1}) != sphere sum at cardinality {r}",
        )


def _check_ideal_balls(job, rows, ref, space_doc):
    exp = job["expect"]
    expect(len(rows) == exp["ideals"], f"{len(rows)} ideals, expected {exp['ideals']}")
    expect(sum(sphere for _, _, sphere in rows) == exp["size"], "spheres do not sum to m^n")
    h = space_doc["m"] // 2
    for counts, ball, sphere in rows:
        expect(1 <= sphere <= ball, f"sphere {sphere} outside 1..ball {ball} at {counts}")
        expect(ball == inputs.ball_size(space_doc["m"], space_doc["labeling"], counts),
               f"ball of {counts} is {ball}")
        if all(c == h for c in counts):
            expect(ball == exp["size"], "ball of the full ideal is not the space")


def _check_ideals_by_card(job, layers, ref, space_doc):
    expect(sum(len(layer) for layer in layers) == ref["ideals"],
           "ideals by cardinality do not add up to all_ideals")
    for r, layer in enumerate(layers):
        expect(all(sum(c) == r for c in layer), f"ideal of wrong cardinality at r={r}")
        expect(len(set(layer)) == len(layer), f"duplicate ideal at r={r}")


def _check_downsets_by_size(job, layers, ref, space_doc):
    below, _ = inputs.order_sets(space_doc["pomset"]["s"], space_doc["pomset"]["relations"])
    expect(sum(len(layer) for layer in layers) == job["expect"]["downsets"],
           "downsets by size do not add up to the downset count")
    for k, layer in enumerate(layers):
        for d in layer:
            expect(len(d) == k, f"downset {d} listed at size {k}")
            expect(all(below[i] <= set(d) for i in d), f"{d} is not downward closed")


def parse_machine(text: str) -> dict:
    """Key=value lines of a --machine report; each key must appear once."""
    seen: dict = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        expect(bool(sep), f"line without '=': {line!r}", MALFORMED)
        expect(key not in seen, f"machine key {key!r} printed more than once", MALFORMED)
        seen[key] = value
    return seen


def _check_cli(job, summary, ref, space_doc):
    status, text = summary
    exp = job["expect"]
    cmd = job["argv"][0]
    if status != exp["exit"]:
        expect(status in (0, 1), f"{cmd} exited {status}", ERROR)
        expect(False, f"{cmd} exited {status}, expected {exp['exit']}")
    kv = parse_machine(text)

    def get(key):
        expect(key in kv, f"{cmd} printed no {key!r}", MALFORMED)
        return kv[key]

    if cmd in ("singleton", "check-mds"):
        for key, value in exp["facts"].items():
            expect(int(get(key)) == value, f"{key}={get(key)}, expected {value}")
        verdict = get("attained" if cmd == "singleton" else "mds")
        expect(verdict == ("true" if exp["facts"]["lhs"] == exp["facts"]["rhs"] else "false"),
               f"verdict {verdict}")
    elif cmd == "weight-dist":
        dist = {int(k[2:]): int(v) for k, v in kv.items() if k.startswith("A.")}
        expect(sum(dist.values()) == exp["size"], f"A sums to {sum(dist.values())}")
        d = min((r for r, a in dist.items() if r and a), default=None)
        expect(d == exp["d"], f"least nonzero weight {d}, expected {exp['d']}")
    elif cmd == "dual":
        size = int(get("size"))
        expect(size == exp["size"], f"|C| * |C^perp| != m^n: dual has {size}")
        expect(sum(k.startswith("codeword.") for k in kv) == size, "dual codeword count")
    elif cmd == "intersect":
        expect(int(get("count")) == exp["count"], f"count {get('count')}, expected {exp['count']}")
    elif cmd == "block-threshold":
        expect(int(get("threshold")) == exp["threshold"], f"threshold {get('threshold')}")
        expect(int(get("min_root")) == exp["threshold"], f"min_root {get('min_root')}")
    elif cmd == "partition":
        expect(get("partition") == ("true" if exp["exit"] == 0 else "false"), "partition verdict")
        if exp["exit"] == 0:
            expect(int(get("count")) == exp["count"], f"{get('count')} centres")
            expect(sum(k.startswith("center.") for k in kv) == exp["count"], "centre lines")
        else:
            get("witness_element")
    elif cmd == "check-perfect":
        expect(get("mode") == exp["mode"], f"mode {get('mode')}")
        expect(get("perfect") == ("true" if exp["exit"] == 0 else "false"), "perfect verdict")
        if exp["exit"]:
            get("witness")
    elif cmd == "check-error-correcting":
        expect(get("error_correcting") == ("true" if exp["exit"] == 0 else "false"),
               "error-correcting verdict")
        if exp["exit"]:
            get("witness")


CHECKS = {
    "certify": _check_certify,
    "rball_sweep": _check_rball_sweep,
    "ideal_balls": _check_ideal_balls,
    "ideals_by_card": _check_ideals_by_card,
    "downsets_by_size": _check_downsets_by_size,
    "cli": _check_cli,
}
