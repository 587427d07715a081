"""Replay of the golden CLI corpus, `tests/golden/cli.txt`.

Each line holds the sha256 of one invocation's output, its exit status and
its argv; `tests/golden/generate.py` writes the file and says what it
covers.  Any change to what the CLI prints fails here, with the actual
output of the first few invocations that differ.
"""

import random
import sys
from pathlib import Path

from pomsetblock import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import generate  # noqa: E402


def assert_replays(lines) -> None:
    """Every corpus line replays in this process to its digest and status."""
    mismatches = []
    for line in lines:
        expected, status, *argv = line.split(" ")
        got_status, output = generate.replay(argv)
        if (generate.digest(output), got_status) != (expected, int(status)):
            mismatches.append(
                f"$ {' '.join(argv)}\nexit {got_status} (expected {status})\n{output}"
            )
    assert not mismatches, (
        f"{len(mismatches)} of {len(lines)} invocations differ; the first:\n\n"
        + "\n".join(mismatches[:5])
    )


def test_cli_output_matches_the_golden_corpus():
    lines = generate.CORPUS.read_text().splitlines()
    assert lines, "empty corpus"
    assert_replays(lines)


def test_the_golden_corpus_replays_in_a_shuffled_order_in_one_process(monkeypatch):
    # `cli.run` shares one problem between the requests on a document, so
    # any order of the requests must print what the corpus order does.
    lines = generate.CORPUS.read_text().splitlines()
    random.Random(41).shuffle(lines)
    loads = []
    real = cli.problem_from_dict
    monkeypatch.setattr(cli, "problem_from_dict", lambda doc: loads.append(1) or real(doc))
    assert_replays(lines)
    assert len(loads) < len(lines) // 2
