"""Command-line surface: load a problem description, run one computation
or verification, and emit a human-readable report followed by greppable
key=value lines.

Exit codes: 0 computed or verified true, 1 check evaluated false (report
carries a witness), 2 input error, 3 enumeration budget exceeded; `main`
exits 141, as a filter killed by SIGPIPE does, when its reader closes early.

A process that serves many requests through `run` shares what they build.
The parser is built once (`build_parser`), and each distinct problem
document once: `run` reads the file on every request and keys the problem
by the document's text, so an edited file is loaded afresh and two paths
holding the same text share one problem.  The problem's order, space and
code, with the tables they fill lazily (the ideal table, the ball rows, the
Howell and dual forms, the listed and weighed codewords), then serve every
later request on that document.  At most `PROBLEM_MEMO_SIZE` problems are
kept, the least recently used dropped first, and only small ones: an order
of at most `PROBLEM_MEMO_BLOCKS` elements and a code of at most
`PROBLEM_MEMO_ENTRIES` coordinates over all its words, so the memo holds a
few MB a problem whatever the documents; a larger problem, and a load that
fails, are not kept.  A dual is built afresh by each request that reads
it.  The shared objects are not locked: one thread serves the requests in
turn.  `load_problem` shares nothing.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
from .pomset import Ideal, Pomset, enumerate_ideals, enumerate_root_downsets
from .space import Space, Vector, _check_radius, distance, pomset_weight, support

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# Distinct problem documents `run` keeps built.  A caller works on a few
# files at a time; 16 holds the 11 shipped fixtures, or the 9 problem files
# of a benchmark run, with room to spare.
PROBLEM_MEMO_SIZE = 16
# A problem is kept only while what its requests may build stays small.  An
# order of at most 10 elements has at most 2^10 downsets, whose tables held
# about 1 MB with every level listed; a code of at most 2^16 coordinates
# over all its words holds its words and their weights in about 2 MB.  The
# ideal table (at most `pomset.IDEAL_TABLE_LIMIT` ideals, about 2.5 MB when
# full) and the ball rows (`space.BALL_ROW_LIMIT`) are bounded apart.  16
# problems at these bounds raised a process's peak RSS by about 66 MB.  Any
# other problem is loaded afresh by each request, as `load_problem` would.
PROBLEM_MEMO_BLOCKS = 10
PROBLEM_MEMO_ENTRIES = 1 << 16


@dataclass(frozen=True)
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
    """A new problem from the JSON file at `path`, shared with no one."""
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))


# Problems kept by `_problem_of_text`, by document text, least recently
# used first.
_problems: OrderedDict[str, Problem] = OrderedDict()


def _problem_of_text(text: str) -> Problem:
    """The problem of one document's text, shared by `run`'s requests.

    A kept problem is returned as it is; any other is built, and kept if it
    is small enough (see the module docstring).  A document that fails
    to load raises, and nothing is kept for it.
    """
    problem = _problems.get(text)
    if problem is not None:
        _problems.move_to_end(text)
        return problem
    problem = problem_from_dict(json.loads(text))
    code = problem.code
    if problem.space.pomset.ground_size <= PROBLEM_MEMO_BLOCKS and (
            code is None or code.size * problem.space.n <= PROBLEM_MEMO_ENTRIES):
        _problems[text] = problem
        if len(_problems) > PROBLEM_MEMO_SIZE:
            _problems.popitem(last=False)
    return problem


@functools.cache
def _row_format(key: str, width: int) -> str:
    """The %-format of row j of `width` integers under `key`, built once.

    Keys are the report's few row names, so the memo stays small.
    """
    return key.replace("%", "%%") + ".%d=" + ",".join(["%d"] * width)


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
        """Puts each row of integers under key.0, key.1, ... in turn.

        One C-level pass formats every row, whatever its width: each tuple
        (j,) + row goes through the %-format of its row's width.
        """
        rows = list(map(tuple, rows))
        widths = list(map(len, rows))
        formats = {w: _row_format(key, w) for w in set(widths)}
        self._kv += map(operator.mod, map(formats.__getitem__, widths),
                        map(operator.add, zip(itertools.count()), rows))

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
        cells = sp.m ** 3
        if cells > args.budget:
            raise BudgetExceededError(
                f"metric check's table of m^3 = {cells} residue-triple words "
                f"exceeds budget {args.budget}"
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


def _flag(*names, **spec):
    """An argument as `add_argument` takes it, declared once for all its commands."""
    return names, spec


IDEAL = _flag("--ideal", help="comma-separated ideal counts")
RADIUS = _flag("--radius", type=int)
VECTOR = _flag("--vector", required=True, help="comma-separated coordinates")
SEED = _flag("--seed", type=int, default=0,
             help="seed for the sampled triples of 'oracle metric'")


class Command(NamedTuple):
    """A row of `COMMANDS`: the handler, the flags it reads beyond --budget
    and --machine, and the choices of a mode given before the problem path."""

    run: Callable[[Problem, argparse.Namespace, Report], int]
    flags: tuple = ()
    modes: tuple[str, ...] = ()


# The one registry of commands: `build_parser` builds a subparser from each
# row and `run` dispatches through it, so a new command is one row.
COMMANDS = {
    "weight": Command(cmd_weight, (VECTOR,)),
    "distance": Command(cmd_distance, (VECTOR, _flag("--other", required=True))),
    "ideals": Command(cmd_ideals, (_flag("--cardinality", type=int, required=True),)),
    "downsets": Command(cmd_downsets, (_flag("--size", type=int, required=True),)),
    "ball-size": Command(cmd_ball_size, (IDEAL, RADIUS)),
    "sphere-size": Command(cmd_sphere_size, (IDEAL,)),
    "partition": Command(cmd_partition, (IDEAL,)),
    "check-perfect": Command(cmd_check_perfect, (IDEAL, RADIUS)),
    "check-error-correcting": Command(cmd_check_error_correcting, (RADIUS,)),
    "check-mds": Command(cmd_check_mds),
    "singleton": Command(cmd_singleton),
    "dual": Command(cmd_dual),
    "weight-dist": Command(cmd_weight_dist, (_flag("--closed-form", action="store_true"),)),
    "intersect": Command(cmd_intersect, (IDEAL, _flag("--center", required=True))),
    "block-threshold": Command(cmd_block_threshold),
    "oracle": Command(cmd_oracle, (SEED,), modes=("census", "metric", "suite")),
}


class _NoSeed(argparse.Action):
    """`--seed` on a command that draws nothing: exit 2 naming it and its value."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"unrecognized arguments: {option_string} {values} "
                     "(only 'oracle' takes --seed)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, one subparser per row of `COMMANDS`, built on first
    use and shared by every later `run`.

    Parsing leaves the tree unchanged, so a process serving many requests
    builds it once; callers must not modify the returned parser.  Its
    `command_parsers` maps each command's name to its subparser.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="enumeration budget (vectors / memberships)")
    common.add_argument("--machine", action="store_true",
                        help="suppress the human section, print key=value only")
    parser = argparse.ArgumentParser(
        prog="pomsetblock",
        description="Block codes under the pomset metric: weights, balls, "
                    "perfectness, Singleton/MDS checks and brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        if command.modes:
            p.add_argument("mode", choices=command.modes)
        if SEED not in command.flags:
            # Holds on to the value, so it is never taken as the problem path.
            p.add_argument("--seed", action=_NoSeed, default=argparse.SUPPRESS,
                           help=argparse.SUPPRESS)
        p.add_argument("problem", help="path to a problem JSON file")
        for names, spec in command.flags:
            p.add_argument(*names, **spec)
    parser.command_parsers = sub.choices
    return parser


def parse_argv(argv) -> argparse.Namespace:
    """The request's arguments, parsed once by one parser of `build_parser`'s tree.

    An argv that starts with a command goes straight to that command's
    subparser, which is what the top-level parser would hand it to, and
    leftover arguments are reported as the top-level parser reports them.
    Any other argv (no command, an unknown one, `-h`, a flag before the
    command) goes to the top-level parser.
    """
    parser = build_parser()
    sub = parser.command_parsers.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def run(argv=None, out=None) -> int:
    """Serve one request: parse argv once, load the problem, run its command.

    The problem file is read on every request and its text looked up in
    `_problem_of_text`, so requests on one document may share its problem
    (see the module docstring).  A problem builds only what its requests
    read: a code given by generator rows keeps its Howell form, and its
    words are listed only once a command reads them.
    """
    args = parse_argv(sys.argv[1:] if argv is None else list(argv))
    rep = Report(args.machine, out)
    try:
        if args.budget < 0:
            raise ValueError(f"--budget must be non-negative, got {args.budget}")
        with open(args.problem, "r", encoding="utf-8") as fh:
            text = fh.read()
        problem = _problem_of_text(text)
        status = COMMANDS[args.command].run(problem, args, rep)
    except BudgetExceededError as exc:
        rep.say(f"budget exceeded: {exc}")
        rep.put("error", "budget")
        rep.emit()
        return EXIT_BUDGET
    # Shape, order, ideal, distance and JSON errors are all ValueErrors.
    except (ValueError, OSError) as exc:
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
