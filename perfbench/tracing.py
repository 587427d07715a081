"""Span recorder and counting wrappers installed from outside the library.

Modules import each other's functions by name (`codes.in_I_ball` and
`cli.r_ball_cardinality` are bindings separate from those in `balls`), so
`install` replaces every binding of a wrapped function in every loaded
`pomsetblock` module, not only the one in its home module.

Coarse public calls get spans: name, layer, start, end, parent and job id,
kept in memory and written out when the run ends.  Per-vector and per-ideal
functions get counting-only wrappers, since a span around each call would
cost more than the call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

_clock = time.perf_counter


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        # Each span is [name, layer, start, end, parent index, job id].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self.paused = False

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, _clock(), None, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = _clock()
        self.stack.pop()


def _rank(coords, m: int) -> int:
    """Position of a coordinate tuple in lexicographic order."""
    r = 0
    for x in coords:
        r = r * m + x
    return r


# Units of work for spans: (counter name, amount from result and arguments).
def _ideals(res, args, kwargs):
    return "pomset.ideals_built", len(res)


def _census_vectors(res, args, kwargs):
    return "space.census_vectors", args[0].size


def _span_tuples(res, args, kwargs):
    return "codes.span_tuples", args[0].m ** len(args[1])


def _dual_vectors(res, args, kwargs):
    return "codes.dual_vectors", args[0].space.size


def _intersect_words(res, args, kwargs):
    return "codes.intersect_codewords", args[0].size


def _triples(res, args, kwargs):
    return "oracle.triples", res.triples_checked


def _skipped(res, args, kwargs):
    return "oracle.checks_skipped", sum(c.status == "skip" for c in res.checks)


# (home module, attribute, span name, layer, unit function).  The census and
# the r-ball filter are whole-space scans over `Space.weight_counts`, so they
# are booked to the `space` layer although they live in `oracle` and `codes`.
SPANS = (
    ("pomset", "all_ideals", "pomset.all_ideals", "pomset", _ideals),
    ("pomset", "enumerate_ideals", "pomset.enumerate_ideals", "pomset", _ideals),
    ("pomset", "enumerate_root_downsets", "pomset.enumerate_root_downsets", "pomset", None),
    ("oracle", "weight_census", "oracle.weight_census", "space", _census_vectors),
    ("codes", "_r_ball_coords", "codes._r_ball_coords", "space", None),
    ("balls", "r_ball_cardinality", "balls.r_ball_cardinality", "balls", None),
    ("balls", "partition_centers", "balls.partition_centers", "balls", None),
    ("balls", "enumerate_I_ball", "balls.enumerate_I_ball", "balls", None),
    ("codes", "span_generator", "codes.span_generator", "codes", _span_tuples),
    ("codes", "dual_code", "codes.dual_code", "codes", _dual_vectors),
    ("codes", "check_I_perfect", "codes.check_I_perfect", "codes", None),
    ("codes", "check_r_perfect", "codes.check_r_perfect", "codes", None),
    ("codes", "check_r_error_correcting", "codes.check_r_error_correcting", "codes", None),
    ("codes", "ball_code_intersection", "codes.ball_code_intersection", "codes", _intersect_words),
    ("codes", "min_distance", "codes.min_distance", "codes", None),
    ("codes", "singleton_rhs", "codes.singleton_rhs", "codes", None),
    ("codes", "is_MDS", "codes.is_MDS", "codes", None),
    ("codes", "block_dependency_witnesses", "codes.block_dependency_witnesses", "codes", None),
    ("codes", "min_ideal_root_size", "codes.min_ideal_root_size", "codes", None),
    ("codes", "weight_distribution", "codes.weight_distribution", "codes", None),
    ("oracle", "verify_formula_suite", "oracle.verify_formula_suite", "oracle", _skipped),
    ("oracle", "verify_metric", "oracle.verify_metric", "oracle", _triples),
    ("cli", "run", "cli.run", "cli", None),
    ("cli", "load_problem", "cli.load_problem", "cli", None),
)


def spanned(rec: Recorder, fn, name: str, layer: str, units=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        idx = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if units is not None:
            key, amount = units(result, args, kwargs)
            rec.counts[key] += amount
        return result

    return wrapper


def counted(rec: Recorder, fn, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.paused:
            rec.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def rball_spheres(rec: Recorder, fn):
    """Books the sphere evaluations made inside r_ball_cardinality."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = rec.counts["balls.sphere_evals"]
        result = fn(*args, **kwargs)
        if not rec.paused:
            rec.counts["balls.rball_spheres"] += rec.counts["balls.sphere_evals"] - before
        return result

    return wrapper


def ball_members(rec: Recorder, fn):
    """Span around I-ball enumeration that also consumes it.

    The library returns a lazy product; materialising it inside the span
    books the enumeration to `balls` rather than to whichever caller
    iterates.  Every caller consumes the whole ball, so results are equal.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        idx = rec.open("balls.iter_I_ball_coords", "balls")
        try:
            members = list(fn(*args, **kwargs))
        finally:
            rec.close(idx)
        rec.counts["balls.ball_members"] += len(members)
        return iter(members)

    return wrapper


def census_memberships(rec: Recorder, fn):
    """Counts |C| * |ball| plus the vectors a failed cover check scanned."""
    @functools.wraps(fn)
    def wrapper(c, ball_coords, budget, require_cover):
        ball = list(ball_coords)
        result = fn(c, ball, budget, require_cover)
        if not rec.paused:
            scanned = 0
            if not result.ok and result.reason == "vector covered by no ball":
                scanned = _rank(result.witness, c.space.m) + 1
            rec.counts["codes.memberships"] += c.size * len(ball) + scanned
        return result

    return wrapper


def _rebind(old, new) -> list[tuple]:
    """Point every loaded pomsetblock binding of `old` at `new`."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "pomsetblock" and not modname.startswith("pomsetblock."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def _home(name: str):
    return sys.modules.get(f"pomsetblock.{name}")


def install(rec: Recorder) -> list[tuple]:
    """Wrap the loaded library modules' calls; returns the bindings to restore."""
    undo = []
    for home, attr, name, layer, units in SPANS:
        if _home(home) is None:
            continue
        fn = getattr(_home(home), attr)
        wrapped = spanned(rec, fn, name, layer, units)
        if (home, attr) == ("balls", "r_ball_cardinality"):
            wrapped = rball_spheres(rec, wrapped)
        undo += _rebind(fn, wrapped)
    for home, attr, wrap in (
        ("balls", "iter_I_ball_coords", ball_members),
        ("codes", "_ball_census", census_memberships),
    ):
        fn = getattr(_home(home), attr)
        undo += _rebind(fn, wrap(rec, fn))
    for home, attr, key in (
        ("balls", "in_I_ball", "balls.in_ball_tests"),
        ("balls", "I_sphere_cardinality", "balls.sphere_evals"),
    ):
        fn = getattr(_home(home), attr)
        undo += _rebind(fn, counted(rec, fn, key))
    space_cls = _home("space").Space
    fn = space_cls.weight_counts
    space_cls.weight_counts = counted(rec, fn, "space.vectors_weighed")
    undo.append((space_cls, "weight_counts", fn))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for obj, attr, old in reversed(undo):
        setattr(obj, attr, old)
