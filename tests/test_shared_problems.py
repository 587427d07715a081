"""Requests served in one process share each problem document `cli.run` loads.

`run` keys a built problem by its file's text (`cli._problem_of_text`), so
these tests check that sharing changes no answer: a file rewritten or
mended between requests, two paths with one text, the memo's bounds, and a
code whose words are weighed once across requests.  The golden corpus
replayed in a shuffled order is in `test_golden_cli.py`.  The autouse
fixture in conftest starts each test with the memo empty.
"""

import dataclasses
import io
from pathlib import Path

import pytest

from pomsetblock import cli
from pomsetblock.cli import load_problem, run
from pomsetblock.fixtures import fixture_path
from pomsetblock.space import Space

def invoke(*argv):
    buf = io.StringIO()
    status = run(list(argv), out=buf)
    return status, buf.getvalue()


def cold(*argv):
    """The answer of a request served with no problem kept, as a lone run's."""
    kept = cli._problems.copy()
    cli._problems.clear()
    try:
        return invoke(*argv)
    finally:
        cli._problems.clear()
        cli._problems.update(kept)


def test_a_rewritten_file_gets_the_new_documents_answer(tmp_path):
    path = tmp_path / "problem.json"
    for name in ("mds_z5_len6", "mds_z5_len3", "mds_z5_len6", "perfect_r1_z5"):
        path.write_text(Path(fixture_path(name)).read_text())
        for request in (["singleton"], ["weight-dist"], ["dual"]):
            got = invoke(*request, "--machine", str(path))
            assert got == cold(*request, "--machine", fixture_path(name)), (name, request)


def test_two_paths_with_one_text_share_one_problem(tmp_path, monkeypatch):
    loads = []
    real = cli.problem_from_dict
    monkeypatch.setattr(cli, "problem_from_dict", lambda doc: loads.append(1) or real(doc))
    text = Path(fixture_path("mds_z5_len6")).read_text()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(text)
    second.write_text(text)
    assert invoke("check-mds", str(first)) == invoke("check-mds", str(second))
    assert (len(loads), len(cli._problems)) == (1, 1)


def test_a_file_that_failed_to_load_loads_once_mended(tmp_path):
    path = tmp_path / "problem.json"
    text = Path(fixture_path("mds_z5_len3")).read_text()
    for broken in (text[:-5], text.replace('"m": 5', '"m": 1')):
        path.write_text(broken)
        status, out = invoke("singleton", "--machine", str(path))
        assert (status, out) == (cli.EXIT_INPUT, "error=input\n")
        assert not cli._problems
    path.write_text(text)
    assert invoke("singleton", "--machine", str(path)) == cold(
        "singleton", "--machine", fixture_path("mds_z5_len3"))
    assert len(cli._problems) == 1


def test_the_memo_keeps_no_more_problems_than_its_bound(tmp_path):
    bound = cli.PROBLEM_MEMO_SIZE

    def request(j):
        path = tmp_path / f"z{j}.json"
        path.write_text(f'{{"m": {j}, "pomset": {{"s": 1, "relations": []}}, "labeling": [1]}}')
        assert invoke("weight", "--machine", "--vector", "1", str(path)) == (
            cli.EXIT_OK, "weight=1\n")
        return path.read_text()

    texts = []
    for j in range(2, bound + 7):
        texts.append(request(j))
        assert len(cli._problems) == min(len(texts), bound)
    # The least recently used are dropped first, and a request refreshes its own.
    kept = texts[-bound:]
    assert list(cli._problems) == kept
    oldest = request(len(texts) - bound + 2)
    assert oldest == kept[0]
    assert list(cli._problems) == [*kept[1:], oldest]
    newest = request(bound + 7)
    assert list(cli._problems) == [*kept[2:], oldest, newest]


# mds_z5_len6 has an order of 4 elements and a code of 25 words of length 6.
@pytest.mark.parametrize("blocks, entries, kept", [(4, 150, 1), (3, 150, 0), (4, 149, 0)])
def test_only_a_problem_within_both_bounds_is_kept(monkeypatch, blocks, entries, kept):
    monkeypatch.setattr(cli, "PROBLEM_MEMO_BLOCKS", blocks)
    monkeypatch.setattr(cli, "PROBLEM_MEMO_ENTRIES", entries)
    path = fixture_path("mds_z5_len6")
    for request in ("weight-dist", "singleton", "dual"):
        assert invoke(request, "--machine", path) == cold(request, "--machine", path)
        assert len(cli._problems) == kept


def test_load_problem_returns_a_new_frozen_problem_each_call():
    path = fixture_path("mds_z5_len6")
    first, second = load_problem(path), load_problem(path)
    assert first is not second
    assert first.code is not second.code
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.code = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.radius = 1


def test_a_shared_code_weighs_its_words_once_across_requests(monkeypatch):
    weighed = []
    real = Space.words_weight_counts
    monkeypatch.setattr(Space, "words_weight_counts",
                        lambda self, words: weighed.append(len(words)) or real(self, words))
    path = fixture_path("mds_z5_len6")
    for request in ("weight-dist", "singleton", "block-threshold", "check-mds"):
        assert invoke(request, "--machine", path)[0] == cli.EXIT_OK
    assert weighed == [load_problem(path).code.size]
