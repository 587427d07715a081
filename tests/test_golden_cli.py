"""Replay of the golden CLI corpus, `tests/golden/cli.txt`.

Each line holds the sha256 of one invocation's output, its exit status and
its argv; `tests/golden/generate.py` writes the file and says what it
covers.  Any change to what the CLI prints fails here, with the actual
output of the first few invocations that differ.
"""

import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import generate  # noqa: E402


def test_cli_output_matches_the_golden_corpus():
    lines = generate.CORPUS.read_text().splitlines()
    assert lines, "empty corpus"
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
