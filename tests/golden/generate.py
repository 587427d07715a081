"""Write the golden CLI corpus, `cli.txt` beside this script.

    PYTHONPATH=src python3 tests/golden/generate.py

Every command runs on every shipped fixture, in human and `--machine` mode,
at the default budget and at budgets 0 and 100.  The arguments are up to
twelve ideals per fixture (spread over `all_ideals`, first and last
included), every radius and ideal cardinality from -1 to one past the
largest weight, every downset size from -1 to one past the block count,
and a few vectors and centers.  `oracle metric` runs only at budgets 0 and
100, below its triple count, so the corpus never pays for its sampled run.

Each line reads `<sha256 of the output> <exit status> <argv>`, with the
fixture's path written `@<fixture name>`.  `tests/test_golden_cli.py`
replays the file; a change that regenerates it must list in CHANGES.md
every invocation whose digest changed, and why.
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path

from pomsetblock.cli import load_problem, run
from pomsetblock.fixtures import NAMES, fixture_path
from pomsetblock.pomset import all_ideals

CORPUS = Path(__file__).resolve().parent / "cli.txt"
BUDGETS = ([], ["--budget", "0"], ["--budget", "100"])
MODES = ([], ["--machine"])


def _ints(xs) -> str:
    return ",".join(map(str, xs))


def command_args(problem):
    """(command, argument list) pairs for one fixture, in a fixed order."""
    sp = problem.space
    ideals = all_ideals(sp.pomset)
    if len(ideals) > 12:
        ideals = [ideals[j * (len(ideals) - 1) // 11] for j in range(12)]
    by_ideal = [["--ideal", _ints(i.counts)] for i in ideals]
    by_radius = [["--radius", str(r)] for r in range(-1, sp.max_weight + 2)]
    zero = _ints([0] * sp.n)
    ramp = _ints((t + 1) % sp.m for t in range(sp.n))
    top = _ints([sp.m - 1] * sp.n)
    short = _ints([1] * (sp.n - 1))
    yield from (("weight", ["--vector", v]) for v in (zero, ramp, top, short))
    yield from (
        ("distance", ["--vector", u, "--other", v])
        for u, v in ((ramp, zero), (ramp, top), (zero, zero))
    )
    for c in range(-1, sp.max_weight + 2):
        yield "ideals", ["--cardinality", str(c)]
    for d in range(-1, sp.s + 2):
        yield "downsets", ["--size", str(d)]
    for command, flags in (
        ("ball-size", by_ideal + by_radius),
        ("sphere-size", by_ideal),
        ("partition", by_ideal),
        ("check-perfect", by_ideal + by_radius),
        ("check-error-correcting", by_radius),
    ):
        for args in [[]] + flags:
            yield command, args
    for command in ("check-mds", "singleton", "dual", "block-threshold"):
        yield command, []
    yield "weight-dist", []
    yield "weight-dist", ["--closed-form"]
    for center in (zero, ramp):
        for args in [[]] + by_ideal:
            yield "intersect", args + ["--center", center]
    yield "oracle", ["census"]
    yield "oracle", ["suite"]
    yield "oracle", ["metric"]


def invocations():
    """Every argv of the corpus, fixtures written `@<name>`."""
    for name in NAMES:
        problem = load_problem(fixture_path(name))
        for command, args in command_args(problem):
            for budget in BUDGETS:
                if args == ["metric"] and not budget:
                    continue
                for mode in MODES:
                    yield [command, *args, *budget, *mode, f"@{name}"]


def replay(argv) -> tuple[int, str]:
    """Exit status and output of one corpus invocation, run in process."""
    out = io.StringIO()
    status = run([fixture_path(a[1:]) if a.startswith("@") else a for a in argv], out)
    return status, out.getvalue()


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


def main() -> None:
    lines = []
    for argv in invocations():
        status, output = replay(argv)
        lines.append(f"{digest(output)} {status} {' '.join(argv)}\n")
    CORPUS.write_text("".join(lines))
    print(f"{len(lines)} invocations written to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
