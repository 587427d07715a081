"""Command-line surface: load a problem description, run one computation
or verification, and emit a human-readable report followed by greppable
key=value lines.

Exit codes: 0 computed or verified true, 1 check evaluated false (report
carries a witness), 2 input error, 3 enumeration budget exceeded; `main`
exits 141, as a filter killed by SIGPIPE does, when its reader closes early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

from . import codes, oracle
from .balls import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    I_ball_cardinality,
    I_sphere_cardinality,
    PartitionImpossibleError,
    partition_centers,
    r_ball_cardinality,
)
from .mset import ShapeError
from .pomset import (
    CycleError,
    Ideal,
    NotAnIdealError,
    Pomset,
    enumerate_ideals,
    enumerate_root_downsets,
)
from .space import Space, Vector, _check_radius, distance, pomset_weight, support

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


@dataclass
class Problem:
    space: Space
    code: codes.Code | None = None
    ideal: Ideal | None = None
    radius: int | None = None


def _integer(value, field: str) -> int:
    """A JSON integer; an integral float such as 5.0 counts as one.

    Booleans, fractional numbers and strings are input errors naming the
    field, never coerced.
    """
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {json.dumps(value)}")


def _object(value, field: str) -> dict:
    """A JSON object, such as the problem document or one of its sections."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be an object, got {json.dumps(value)}")
    return value


def _required(section: dict, field: str):
    """A field the problem document must supply, named by its dotted path."""
    key = field.rpartition(".")[2]
    if key not in section:
        raise ValueError(f"missing required field {field}")
    return section[key]


def _integers(values, field: str) -> list[int]:
    """A JSON list of integers, each checked by `_integer`."""
    if not isinstance(values, list):
        raise ValueError(f"{field} must be a list, got {json.dumps(values)}")
    if not set(map(type, values)).difference((int,)):
        return list(values)
    return [_integer(x, f"{field}[{j}]") for j, x in enumerate(values)]


def _integer_rows(values, field: str) -> list[list[int]]:
    """A JSON list of integer lists, such as relation pairs or codewords."""
    if not isinstance(values, list):
        raise ValueError(f"{field} must be a list, got {json.dumps(values)}")
    return [_integers(row, f"{field}[{j}]") for j, row in enumerate(values)]


def problem_from_dict(doc: dict) -> Problem:
    """Validate and assemble a problem from its JSON document."""
    doc = _object(doc, "problem")
    m = _integer(_required(doc, "m"), "m")
    if m < 2:
        # The order's height is m // 2, so name the modulus before deriving it.
        raise ValueError(f"modulus must be at least 2, got {m}")
    pd = _object(_required(doc, "pomset"), "pomset")
    relations = _integer_rows(pd.get("relations", []), "pomset.relations")
    for j, pair in enumerate(relations):
        if len(pair) != 2:
            raise ValueError(f"pomset.relations[{j}] must be a pair, got {pair}")
    s = _integer(_required(pd, "pomset.s"), "pomset.s")
    labeling = tuple(_integers(_required(doc, "labeling"), "labeling"))
    if s >= 1 and len(labeling) != s:
        # Named before the order, whose closure grows with s, is built.
        raise ShapeError(f"labeling has {len(labeling)} blocks but order has {s} elements")
    pomset = Pomset.from_relations(s, m // 2, relations)
    space = Space(m, pomset, labeling)
    code = None
    if "code" in doc:
        cd = _object(doc["code"], "code")
        if "generator" in cd and "codewords" in cd:
            raise ValueError("code must supply 'codewords' or 'generator', not both")
        if "generator" in cd:
            code = codes.span_generator(
                space, _integer_rows(cd["generator"], "code.generator")
            )
        elif "codewords" in cd:
            code = codes.Code.from_codewords(
                space, _integer_rows(cd["codewords"], "code.codewords")
            )
        else:
            raise ValueError("code must supply 'codewords' or 'generator'")
    ideal = None
    if "ideal" in doc:
        counts = _required(_object(doc["ideal"], "ideal"), "ideal.counts")
        ideal = Ideal(pomset, tuple(_integers(counts, "ideal.counts")))
    radius = None
    if "radius" in doc:
        radius = _integer(doc["radius"], "radius")
        _check_radius(space, radius)
    return Problem(space, code, ideal, radius)


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))


class Report:
    """Accumulates a '#'-prefixed human section and key=value lines."""

    def __init__(self, machine_only: bool, out=None):
        self.machine_only = machine_only
        self.out = out if out is not None else sys.stdout
        self._human: list[str] = []
        self._kv: list[str] = []

    def say(self, text: str) -> None:
        self._human.append(text)

    def put(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (tuple, list)):
            value = ",".join(map(str, value))
        self._kv.append(f"{key}={value}")

    def put_rows(self, key: str, rows) -> None:
        """Puts each row of integers under key.0, key.1, ... in turn."""
        self._kv += [f"{key}.{j}={','.join(map(str, row))}" for j, row in enumerate(rows)]

    def emit(self) -> None:
        """Writes the human lines, unless machine-only, then the key lines at once."""
        if not self.machine_only:
            self.out.write("".join(f"# {line}\n" for line in self._human))
        if self._kv:
            self.out.write("\n".join(self._kv) + "\n")


def _parse_ints(args, name: str) -> tuple[int, ...]:
    """The comma-separated integers of flag --name; an error names the flag."""
    text = getattr(args, name)
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"--{name} must be comma-separated integers, got {text!r}"
        ) from None


def _ideal_str(i: Ideal) -> str:
    return f"{i} counts={','.join(str(c) for c in i.counts)}"


def _need_code(problem: Problem) -> codes.Code:
    if problem.code is None:
        raise ValueError("this command needs a code in the problem file")
    return problem.code


def _resolve_ideal(problem: Problem, args) -> Ideal | None:
    if args.ideal is not None:
        return Ideal(problem.space.pomset, _parse_ints(args, "ideal"))
    return problem.ideal


def _need_ideal(problem: Problem, args) -> Ideal:
    ideal = _resolve_ideal(problem, args)
    if ideal is None:
        raise ValueError("need --ideal (or an ideal in the file)")
    return ideal


def _resolve_radius(problem: Problem, args) -> int | None:
    return args.radius if args.radius is not None else problem.radius


def _resolve_ideal_or_radius(problem: Problem, args) -> tuple[Ideal | None, int | None]:
    """Exactly one of an ideal and a radius; an explicit flag beats the file."""
    ideal = _resolve_ideal(problem, args)
    radius = _resolve_radius(problem, args)
    if args.ideal is not None and args.radius is None:
        return ideal, None
    if args.radius is not None and args.ideal is None:
        return None, radius
    if ideal is not None and radius is not None:
        raise ValueError("both ideal and radius available; pass --ideal or --radius")
    if ideal is None and radius is None:
        raise ValueError("need --ideal or --radius (or those fields in the file)")
    return ideal, radius


def _vector_arg(problem: Problem, args, name: str) -> Vector:
    return problem.space.vector(_parse_ints(args, name))


def cmd_weight(problem, args, rep) -> int:
    u = _vector_arg(problem, args, "vector")
    w = pomset_weight(u)
    rep.say(f"weight of {u} is {w}; support {support(u)}")
    rep.put("weight", w)
    return EXIT_OK


def cmd_distance(problem, args, rep) -> int:
    u = _vector_arg(problem, args, "vector")
    v = _vector_arg(problem, args, "other")
    d = distance(u, v)
    rep.say(f"distance between {u} and {v} is {d}")
    rep.put("distance", d)
    return EXIT_OK


def cmd_ideals(problem, args, rep) -> int:
    found = enumerate_ideals(problem.space.pomset, args.cardinality)
    rep.say(f"{len(found)} ideal(s) of cardinality {args.cardinality}")
    for i in found:
        rep.say(_ideal_str(i))
    rep.put("count", len(found))
    rep.put_rows("ideal", (i.counts for i in found))
    return EXIT_OK


def cmd_downsets(problem, args, rep) -> int:
    found = enumerate_root_downsets(problem.space.pomset, args.size)
    rep.say(f"{len(found)} downset(s) of size {args.size}")
    rep.put("count", len(found))
    rep.put_rows("downset", map(sorted, found))
    return EXIT_OK


def cmd_ball_size(problem, args, rep) -> int:
    ideal, radius = _resolve_ideal_or_radius(problem, args)
    if ideal is not None:
        size = I_ball_cardinality(problem.space, ideal)
        rep.say(f"ball of ideal {_ideal_str(ideal)} has {size} vectors")
    else:
        size = r_ball_cardinality(problem.space, radius)
        rep.say(f"ball of radius {radius} has {size} vectors")
    rep.put("size", size)
    return EXIT_OK


def cmd_sphere_size(problem, args, rep) -> int:
    ideal = _need_ideal(problem, args)
    size = I_sphere_cardinality(problem.space, ideal)
    rep.say(f"sphere of ideal {_ideal_str(ideal)} has {size} vectors")
    rep.put("size", size)
    return EXIT_OK


def cmd_partition(problem, args, rep) -> int:
    ideal = _need_ideal(problem, args)
    try:
        centers = partition_centers(problem.space, ideal, args.budget)
    except PartitionImpossibleError as exc:
        rep.say(f"no tiling exists: {exc}")
        rep.put("partition", False)
        rep.put("witness_element", exc.element)
        return EXIT_FALSE
    rep.say(f"{len(centers)} centers tile the space for {_ideal_str(ideal)}")
    rep.put("partition", True)
    rep.put("count", len(centers))
    rep.put_rows("center", centers)
    return EXIT_OK


def _verdict(rep, key, result, holds: str, fails: str) -> int:
    """Report a census result under `key`; a failure also names its witness."""
    rep.put(key, result.ok)
    if result.ok:
        rep.say(holds)
        return EXIT_OK
    rep.say(f"{fails}: {result.reason} at {result.witness}")
    rep.put("witness", result.witness)
    return EXIT_FALSE


def cmd_check_perfect(problem, args, rep) -> int:
    code = _need_code(problem)
    ideal, radius = _resolve_ideal_or_radius(problem, args)
    if ideal is not None:
        result = codes.check_I_perfect(code, ideal, args.budget)
        rep.say(f"ideal {_ideal_str(ideal)}")
        rep.put("mode", "ideal")
    else:
        result = codes.check_r_perfect(code, radius, args.budget)
        rep.say(f"radius {radius}")
        rep.put("mode", "radius")
    return _verdict(rep, "perfect", result, "balls at the codewords tile the space",
                    "not perfect")


def cmd_check_error_correcting(problem, args, rep) -> int:
    code = _need_code(problem)
    radius = _resolve_radius(problem, args)
    if radius is None:
        raise ValueError("need --radius (or a radius in the file)")
    result = codes.check_r_error_correcting(code, radius, args.budget)
    return _verdict(rep, "error_correcting", result,
                    f"radius-{radius} balls at the codewords are pairwise disjoint",
                    "balls overlap")


def _put_singleton_facts(problem, rep):
    """Puts d, r, rhs and lhs of the code's Singleton bound and returns them."""
    d, r, lhs, rhs = codes.singleton_facts(_need_code(problem))
    for key, value in (("d", d), ("r", r), ("rhs", rhs), ("lhs", lhs)):
        rep.put(key, value)
    return d, r, lhs, rhs


def cmd_check_mds(problem, args, rep) -> int:
    d, r, lhs, rhs = _put_singleton_facts(problem, rep)
    mds = lhs == rhs
    rep.say(f"MDS: {'true' if mds else 'false'}, d={d}, rhs={rhs}")
    rep.put("mds", mds)
    return EXIT_OK if mds else EXIT_FALSE


def cmd_singleton(problem, args, rep) -> int:
    d, r, lhs, rhs = _put_singleton_facts(problem, rep)
    rep.say(f"n - ceil(log_m K) = {lhs} >= {rhs} = max block sum at root size {r}")
    rep.put("attained", lhs == rhs)
    return EXIT_OK


def cmd_dual(problem, args, rep) -> int:
    code = _need_code(problem)
    dual = codes.dual_code(code, args.budget)
    rep.say(f"dual code has {dual.size} codewords")
    rep.put("size", dual.size)
    rep.put_rows("codeword", dual.codewords)
    return EXIT_OK


def cmd_weight_dist(problem, args, rep) -> int:
    code = _need_code(problem)
    sp = code.space
    if args.closed_form:
        t = sp.labeling[0]
        if any(k != t for k in sp.labeling):
            raise ValueError("closed form needs equal block dimensions")
        if not sp.pomset.is_chain:
            raise ValueError("closed form needs a chain order")
        k = codes.ceil_log(code.size, sp.m)
        if sp.m ** k != code.size:
            raise ValueError("closed form needs a code of size m^k")
        dist = codes.mds_chain_weight_distribution(
            sp.n, k, t, sp.m, sp.s, expected_d=codes.min_distance(code)
        )
        rep.put("source", "closed-form")
    else:
        dist = codes.weight_distribution(code)
        rep.put("source", "census")
    rep.say(
        "weights: "
        + ", ".join(f"{r}:{a}" for r, a in enumerate(dist.counts) if a)
    )
    for r, a in enumerate(dist.counts):
        rep.put(f"A.{r}", a)
    return EXIT_OK


def cmd_intersect(problem, args, rep) -> int:
    code = _need_code(problem)
    ideal = _need_ideal(problem, args)
    x = _vector_arg(problem, args, "center")
    count = codes.ball_code_intersection(code, ideal, x)
    rep.say(f"{count} codeword(s) inside the ball of {_ideal_str(ideal)} at {x}")
    rep.put("count", count)
    return EXIT_OK


def cmd_block_threshold(problem, args, rep) -> int:
    code = _need_code(problem)
    threshold, witnesses = codes.block_dependency_witnesses(code)
    direct = codes.min_ideal_root_size(code)
    rep.say(
        f"first dependent block set has size {threshold}; "
        f"codeword-side minimum is {direct}"
    )
    rep.put("threshold", threshold)
    rep.put("min_root", direct)
    rep.put_rows("witness", map(sorted, witnesses))
    return EXIT_OK


def cmd_oracle(problem, args, rep) -> int:
    sp = problem.space
    if args.mode == "census":
        report = oracle.weight_census(sp, args.budget)
        rep.say(f"census over {report.total} vectors")
        rep.put("total", report.total)
        for r in sorted(report.sphere_counts):
            rep.put(f"sphere.{r}", report.sphere_counts[r])
        for key in sorted(report.ideal_sphere_counts):
            name = ",".join(str(c) for c in key)
            rep.put(f"ideal_sphere.{name}", report.ideal_sphere_counts[key])
        return EXIT_OK
    if args.mode == "metric":
        _, triples = oracle.metric_triples(sp)
        if triples > args.budget:
            raise BudgetExceededError(
                f"metric check of {triples} triples exceeds budget {args.budget}"
            )
        report = oracle.verify_metric(sp, seed=args.seed)
        rep.say(
            ("exhaustive" if report.exhaustive else "sampled")
            + f" metric check over {report.triples_checked} triples"
        )
        rep.put("passed", report.passed)
        rep.put("exhaustive", report.exhaustive)
        rep.put("triples", report.triples_checked)
        if report.counterexample:
            axiom, u, v, w = report.counterexample
            rep.say(f"{axiom} fails at u={u} v={v} w={w}")
            rep.put("axiom", axiom)
            rep.put("u", u)
            rep.put("v", v)
            if w is not None:
                rep.put("w", w)
        return EXIT_OK if report.passed else EXIT_FALSE
    report = oracle.verify_formula_suite(sp, budget=args.budget)
    for check in report.checks:
        rep.say(f"{check.name}: {check.status} ({check.detail})")
        rep.put(f"check.{check.name}", check.status)
    rep.put("ok", report.ok)
    return EXIT_OK if report.ok else EXIT_FALSE


COMMANDS = {
    "weight": cmd_weight,
    "distance": cmd_distance,
    "ideals": cmd_ideals,
    "downsets": cmd_downsets,
    "ball-size": cmd_ball_size,
    "sphere-size": cmd_sphere_size,
    "partition": cmd_partition,
    "check-perfect": cmd_check_perfect,
    "check-error-correcting": cmd_check_error_correcting,
    "check-mds": cmd_check_mds,
    "singleton": cmd_singleton,
    "dual": cmd_dual,
    "weight-dist": cmd_weight_dist,
    "intersect": cmd_intersect,
    "block-threshold": cmd_block_threshold,
    "oracle": cmd_oracle,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every later `run`.

    Parsing leaves the tree unchanged, so a process serving many requests
    builds it once; callers must not modify the returned parser.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="enumeration budget (vectors / memberships)")
    flags.add_argument("--machine", action="store_true",
                       help="suppress the human section, print key=value only")
    # Commands without --ideal or --radius read these as absent.
    flags.set_defaults(ideal=None, radius=None)

    parser = argparse.ArgumentParser(
        prog="pomsetblock",
        description="Block codes under the pomset metric: weights, balls, "
                    "perfectness, Singleton/MDS checks and brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *, mode_choices=None):
        p = sub.add_parser(name, parents=[flags])
        if mode_choices:
            p.add_argument("mode", choices=mode_choices)
        p.add_argument("problem", help="path to a problem JSON file")
        return p

    p = add("weight")
    p.add_argument("--vector", required=True, help="comma-separated coordinates")
    p = add("distance")
    p.add_argument("--vector", required=True)
    p.add_argument("--other", required=True)
    p = add("ideals")
    p.add_argument("--cardinality", type=int, required=True)
    p = add("downsets")
    p.add_argument("--size", type=int, required=True)
    p = add("ball-size")
    p.add_argument("--ideal", help="comma-separated ideal counts")
    p.add_argument("--radius", type=int)
    p = add("sphere-size")
    p.add_argument("--ideal")
    p = add("partition")
    p.add_argument("--ideal")
    p = add("check-perfect")
    p.add_argument("--ideal")
    p.add_argument("--radius", type=int)
    p = add("check-error-correcting")
    p.add_argument("--radius", type=int)
    add("check-mds")
    add("singleton")
    add("dual")
    p = add("weight-dist")
    p.add_argument("--closed-form", action="store_true")
    p = add("intersect")
    p.add_argument("--ideal")
    p.add_argument("--center", required=True)
    add("block-threshold")
    p = add("oracle", mode_choices=("census", "metric", "suite"))
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled triples of 'oracle metric'")
    return parser


def run(argv=None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rep = Report(args.machine, out)
    try:
        if args.budget < 0:
            raise ValueError(f"--budget must be non-negative, got {args.budget}")
        problem = load_problem(args.problem)
        status = COMMANDS[args.command](problem, args, rep)
    except BudgetExceededError as exc:
        rep.say(f"budget exceeded: {exc}")
        rep.put("error", "budget")
        rep.emit()
        return EXIT_BUDGET
    except (
        ShapeError,
        NotAnIdealError,
        CycleError,
        codes.UndefinedDistanceError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        rep.say(f"input error: {exc}")
        rep.put("error", "input")
        rep.emit()
        return EXIT_INPUT
    rep.emit()
    return status


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early, as `| head` does.  Exit as a filter killed
        # by SIGPIPE would, with stdout on devnull so the final flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 128 + 13
    sys.exit(status)


if __name__ == "__main__":
    main()
