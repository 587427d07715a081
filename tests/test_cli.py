import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pomsetblock import cli, codes, oracle
from pomsetblock.cli import load_problem, run
from pomsetblock.fixtures import NAMES, fixture_path


def invoke(*argv):
    buf = io.StringIO()
    status = run(list(argv), out=buf)
    return status, buf.getvalue()


def kv(output):
    pairs = {}
    for line in output.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def test_check_mds_fixture():
    status, out = invoke("check-mds", fixture_path("mds_z5_len6"))
    assert status == 0
    pairs = kv(out)
    assert pairs["mds"] == "true"
    assert pairs["d"] == "7"
    assert pairs["rhs"] == "4"
    assert "# MDS: true, d=7, rhs=4" in out


def test_check_mds_false_exit_code():
    status, out = invoke("check-mds", fixture_path("iperfect_not_mds_z6"))
    assert status == 1
    assert kv(out)["mds"] == "false"


def test_check_perfect_radius_witness():
    status, out = invoke(
        "check-perfect", fixture_path("partial_perfect_z6"), "--radius", "4"
    )
    assert status == 1
    pairs = kv(out)
    assert pairs["perfect"] == "false"
    assert "witness" in pairs
    status, _ = invoke(
        "check-perfect", fixture_path("partial_perfect_z6_chain"), "--radius", "4"
    )
    assert status == 0


def test_check_perfect_reports_the_first_uncovered_vector():
    # The translates are disjoint but leave vectors out; the witness is the
    # lexicographically first vector no ball reaches.
    status, out = invoke("check-perfect", "--machine", "--ideal", "0,0,2,2",
                         fixture_path("mds_z5_len6"))
    assert (status, out) == (1, "mode=ideal\nperfect=false\nwitness=0,0,1,0,0,0\n")


def test_check_perfect_ideal_from_file():
    status, out = invoke("check-perfect", fixture_path("partial_perfect_z6"),
                         "--ideal", "1,3")
    assert status == 0
    assert kv(out)["perfect"] == "true"


def test_ideals_listing():
    status, out = invoke("ideals", fixture_path("ideal_census_vshape"),
                         "--cardinality", "3")
    assert status == 0
    pairs = kv(out)
    assert pairs["count"] == "2"
    assert pairs["ideal.0"] == "2,0,1"
    assert pairs["ideal.1"] == "2,1,0"
    assert "# {2/1, 1/2} counts=2,1" in out


def test_downsets_listing():
    status, out = invoke("downsets", fixture_path("mds_z5_len6"), "--size", "3")
    assert status == 0
    pairs = kv(out)
    assert pairs["count"] == "2"
    assert pairs["downset.0"] == "1,2,3"
    assert pairs["downset.1"] == "1,3,4"


def test_weight_and_distance():
    status, out = invoke("weight", fixture_path("mds_chain_z6"), "--vector", "1,3")
    assert status == 0
    assert kv(out)["weight"] == "6"
    status, out = invoke(
        "distance", fixture_path("mds_chain_z6"), "--vector", "0,0", "--other", "1,3"
    )
    assert status == 0
    assert kv(out)["distance"] == "6"


def test_ball_and_sphere_size():
    status, out = invoke("ball-size", fixture_path("partial_perfect_z6"),
                         "--ideal", "1,3")
    assert kv(out)["size"] == "54" and status == 0
    status, out = invoke("ball-size", fixture_path("perfect_r1_z5"), "--radius", "1")
    assert kv(out)["size"] == "5" and status == 0
    status, out = invoke("sphere-size", fixture_path("perfect_r1_z5"),
                         "--ideal", "1,0")
    assert kv(out)["size"] == "2" and status == 0


def test_ball_size_requires_disambiguation():
    # File carries both an ideal and a radius: an explicit flag must choose.
    status, out = invoke("ball-size", fixture_path("partial_perfect_z6"))
    assert status == 2
    assert kv(out)["error"] == "input"


def test_partition():
    status, out = invoke("partition", fixture_path("iperfect_z9_repetition"))
    assert status == 0
    pairs = kv(out)
    assert pairs["count"] == "3"
    assert pairs["center.1"] == "0,3"
    status, out = invoke("partition", fixture_path("partial_perfect_z6"),
                         "--ideal", "2,0")
    assert status == 1
    pairs = kv(out)
    assert pairs["partition"] == "false"
    assert pairs["witness_element"] == "1"


def test_check_error_correcting():
    status, out = invoke(
        "check-error-correcting", fixture_path("perfect_r1_z5"), "--radius", "1"
    )
    assert status == 0 and kv(out)["error_correcting"] == "true"
    status, out = invoke(
        "check-error-correcting", fixture_path("partial_perfect_z6"), "--radius", "4"
    )
    assert status == 1 and kv(out)["error_correcting"] == "false"


def test_error_correcting_witness_is_the_first_collision_in_order():
    # The census reports the first vector two balls share, walking the
    # codewords and the ball's members in lexicographic order.  Here the
    # zero offset already collides, so only the second case tells the
    # lexicographic listing from, say, one grouped by block weights.
    status, out = invoke("check-error-correcting", fixture_path("partial_perfect_z6"),
                         "--radius", "4", "--machine")
    assert (status, out) == (1, "error_correcting=false\nwitness=0,3,0\n")
    status, out = invoke("check-error-correcting", fixture_path("perfect_r1_z5"),
                         "--radius", "2", "--machine")
    assert (status, out) == (1, "error_correcting=false\nwitness=1,4\n")


def test_singleton_dual_and_threshold():
    status, out = invoke("singleton", fixture_path("mds_equal_blocks_z5"))
    assert status == 0
    pairs = kv(out)
    assert pairs["d"] == "5" and pairs["rhs"] == "4" and pairs["attained"] == "true"

    status, out = invoke("dual", fixture_path("iperfect_not_mds_z6"))
    assert status == 0
    assert kv(out)["size"] == "54"

    status, out = invoke("block-threshold", fixture_path("mds_z5_len6"))
    assert status == 0
    pairs = kv(out)
    assert pairs["threshold"] == pairs["min_root"]
    # A composite modulus is answered too.
    status, out = invoke("block-threshold", fixture_path("partial_perfect_z6"),
                         "--machine")
    assert (status, out) == (0, "threshold=1\nmin_root=1\nwitness.0=1\n")


def test_weight_dist(tmp_path):
    status, out = invoke("weight-dist", fixture_path("iperfect_z9_mds"))
    assert status == 0
    pairs = kv(out)
    assert pairs["A.0"] == "1" and pairs["A.5"] == "1" and pairs["A.7"] == "1"

    doc = {
        "m": 5,
        "pomset": {"s": 2, "relations": [[1, 2]]},
        "labeling": [1, 1],
        "code": {"generator": [[0, 1]]},
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    status, census_out = invoke("weight-dist", str(path), "--machine")
    status2, closed_out = invoke("weight-dist", str(path), "--closed-form", "--machine")
    assert status == 0 and status2 == 0
    census = {k: v for k, v in kv(census_out).items() if k.startswith("A.")}
    closed = {k: v for k, v in kv(closed_out).items() if k.startswith("A.")}
    assert census == closed == {"A.0": "1", "A.1": "0", "A.2": "0", "A.3": "2", "A.4": "2"}


def test_weight_dist_closed_form_rejects_bad_shape():
    status, out = invoke("weight-dist", fixture_path("mds_chain_z6"), "--closed-form")
    assert status == 2  # K = 2 is not a power of 6


def test_weight_dist_closed_form_rejects_a_non_linear_code(tmp_path):
    # A translate of the MDS span of (1, 1) that misses zero: the right size
    # and shape, but its census has no weight-0 word, so no closed form fits.
    doc = {
        "m": 5,
        "pomset": {"s": 2, "relations": [[1, 2]]},
        "labeling": [1, 1],
        "code": {"codewords": [[1, 0], [2, 1], [3, 2], [4, 3], [0, 4]]},
    }
    path = tmp_path / "translate.json"
    path.write_text(json.dumps(doc))
    assert invoke("weight-dist", str(path), "--closed-form") == (
        2, "# input error: closed form needs a linear code\nerror=input\n")
    status, out = invoke("weight-dist", str(path), "--machine")
    assert status == 0 and kv(out)["A.0"] == "0"


def test_intersect():
    status, out = invoke(
        "intersect", fixture_path("mds_chain_z6"), "--ideal", "3,1", "--center", "0,0"
    )
    assert status == 0
    assert kv(out)["count"] == "1"


def test_oracle_commands():
    status, out = invoke("oracle", "census", fixture_path("perfect_r1_z5"))
    assert status == 0
    pairs = kv(out)
    assert pairs["total"] == "25" and pairs["sphere.1"] == "4"

    status, out = invoke("oracle", "metric", fixture_path("perfect_r1_z5"))
    assert status == 0 and kv(out)["passed"] == "true"

    status, out = invoke("oracle", "suite", fixture_path("iperfect_z9_repetition"))
    assert status == 0
    pairs = kv(out)
    assert pairs["ok"] == "true"
    assert pairs["check.sphere-formula"] == "pass"


def test_oracle_metric_honours_the_budget():
    # 25 vectors: the exhaustive check runs 25^3 = 15625 triples.
    status, out = invoke("oracle", "metric", "--budget", "0", fixture_path("perfect_r1_z5"))
    assert status == 3
    assert kv(out)["error"] == "budget"
    assert "metric check of 15625 triples exceeds budget 0" in out
    status, out = invoke("oracle", "metric", "--budget", "15625", "--machine",
                         fixture_path("perfect_r1_z5"))
    assert status == 0 and kv(out)["triples"] == "15625"


def test_oracle_metric_budgets_its_table_of_residue_triples(tmp_path):
    # One coordinate over Z_101: 10^5 sampled triples, from m^3 = 1030301 cell words.
    line = {"pomset": {"s": 1, "relations": []}, "labeling": [1]}
    path = tmp_path / "z101.json"
    path.write_text(json.dumps({"m": 101, **line}))
    status, out = invoke("oracle", "metric", "--budget", "1030300", str(path))
    assert status == 3 and kv(out)["error"] == "budget"
    assert ("metric check's table of m^3 = 1030301 residue-triple words exceeds "
            "budget 1030300") in out
    status, out = invoke("oracle", "metric", "--budget", "1030301", "--machine", str(path))
    assert status == 0 and kv(out)["triples"] == "100000"
    # Over Z_100000007 the table of 10^24 words ran out of memory.
    huge = tmp_path / "z100000007.json"
    huge.write_text(json.dumps({"m": 100000007, **line, "code": {"codewords": [[0], [1]]}}))
    status, out = invoke("oracle", "metric", "--machine", str(huge))
    assert status == 3 and kv(out)["error"] == "budget"


# The flags of a valid request of every command on `mds_z5_len6`.
REQUESTS = {
    "weight": ["--vector", "0,0,0,0,0,0"],
    "distance": ["--vector", "0,0,0,0,0,0", "--other", "1,0,0,0,0,0"],
    "ideals": ["--cardinality", "1"],
    "downsets": ["--size", "1"],
    "ball-size": ["--radius", "1"],
    "sphere-size": ["--ideal", "2,2,2,0"],
    "partition": ["--ideal", "2,2,2,0"],
    "check-perfect": ["--ideal", "2,2,2,0"],
    "check-error-correcting": ["--radius", "3"],
    "check-mds": [],
    "singleton": [],
    "dual": [],
    "weight-dist": [],
    "intersect": ["--ideal", "2,2,2,0", "--center", "1,1,1,1,1,1"],
    "block-threshold": [],
    "oracle": [],
}


# What each command accepted, in order, before the registry built the parser:
# option strings and positionals after -h/--help, --budget and --machine.
# Every command but oracle has the hidden --seed that exits 2.
ACCEPTED = {
    "weight": ["--seed", "problem", "--vector"],
    "distance": ["--seed", "problem", "--vector", "--other"],
    "ideals": ["--seed", "problem", "--cardinality"],
    "downsets": ["--seed", "problem", "--size"],
    "ball-size": ["--seed", "problem", "--ideal", "--radius"],
    "sphere-size": ["--seed", "problem", "--ideal"],
    "partition": ["--seed", "problem", "--ideal"],
    "check-perfect": ["--seed", "problem", "--ideal", "--radius"],
    "check-error-correcting": ["--seed", "problem", "--radius"],
    "check-mds": ["--seed", "problem"],
    "singleton": ["--seed", "problem"],
    "dual": ["--seed", "problem"],
    "weight-dist": ["--seed", "problem", "--closed-form"],
    "intersect": ["--seed", "problem", "--ideal", "--center"],
    "block-threshold": ["--seed", "problem"],
    "oracle": ["mode", "problem", "--seed"],
}
REQUIRED = {"mode", "problem", "--vector", "--other", "--cardinality", "--size", "--center"}


def test_each_command_accepts_exactly_its_flags():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(ACCEPTED) == list(cli.COMMANDS)
    for name, tail in ACCEPTED.items():
        actions = sub.choices[name]._actions
        accepted = [s for a in actions for s in a.option_strings or [a.dest]]
        assert accepted == ["-h", "--help", "--budget", "--machine", *tail], name
        required = {(a.option_strings or [a.dest])[0] for a in actions if a.required}
        assert required == REQUIRED.intersection(tail), name


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_only_oracle_takes_a_seed(command, capsys):
    assert REQUESTS.keys() == cli.COMMANDS.keys()
    mode = ["census"] if command == "oracle" else []
    argv = [command, *mode, fixture_path("mds_z5_len6"), *REQUESTS[command], "--machine"]
    status, out = invoke(*argv)
    assert status in (0, 1)
    if command == "oracle":
        assert invoke(*argv, "--seed", "7") == (status, out)
        return
    with pytest.raises(SystemExit) as exc:
        invoke(*argv, "--seed", "7")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(set(cli.COMMANDS) - {"oracle"}))
def test_a_seed_before_the_problem_path_is_named_with_its_value(command, capsys):
    # The value is held by the flag, so it is never read as the problem path.
    argv = [command, "--seed", "1", *REQUESTS[command], "--machine",
            fixture_path("mds_z5_len6")]
    with pytest.raises(SystemExit) as exc:
        invoke(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 1 (only 'oracle' takes --seed)" in err
    assert "mds_z5_len6" not in err


@pytest.mark.parametrize("name, budget", [("mds_z5_len6", []),
                                          ("perfect_r1_z5", ["--budget", "15625"])])
def test_oracle_metric_reports_the_seeded_check(name, budget):
    path = fixture_path(name)
    report = oracle.verify_metric(load_problem(path).space, seed=7)
    status, out = invoke("oracle", "metric", path, "--seed", "7", *budget)
    kind = "exhaustive" if report.exhaustive else "sampled"
    assert (status, out) == (0, (
        f"# {kind} metric check over {report.triples_checked} triples\n"
        f"passed=true\nexhaustive={str(report.exhaustive).lower()}\n"
        f"triples={report.triples_checked}\n"
    ))


@pytest.mark.parametrize("axiom", ["identity", "symmetry", "triangle"])
def test_oracle_metric_reports_a_counterexample(monkeypatch, axiom):
    u, v = (0, 0), (0, 1)
    w = (1, 1) if axiom == "triangle" else None
    seeds = []

    def failing(space, seed):
        seeds.append(seed)
        return oracle.MetricReport(False, True, 625, (axiom, u, v, w))

    monkeypatch.setattr(oracle, "verify_metric", failing)
    status, out = invoke("oracle", "metric", fixture_path("perfect_r1_z5"),
                         "--seed", "5", "--machine")
    expected = f"passed=false\nexhaustive=true\ntriples=625\naxiom={axiom}\nu=0,0\nv=0,1\n"
    if w is not None:
        expected += "w=1,1\n"
    assert (status, out, seeds) == (1, expected, [5])


def test_input_errors():
    status, out = invoke("weight", "/nonexistent.json", "--vector", "0")
    assert status == 2
    status, out = invoke("ideals", fixture_path("perfect_r1_z5"),
                         "--cardinality", "99")
    assert status == 2
    status, out = invoke("check-perfect", fixture_path("perfect_r1_z5"),
                         "--ideal", "9,9")
    assert status == 2
    status, out = invoke("check-mds", fixture_path("ideal_census_vshape"))
    assert status == 2  # no code in the file
    # The file carries a code but neither an ideal nor a radius.
    path = fixture_path("mds_z5_len6")
    cases = [
        # The radius is checked before the space is measured against the budget.
        (["check-perfect", path, "--radius", "99", "--budget", "100"],
         "radius 99 outside 0..8"),
        (["sphere-size", path], "need --ideal (or an ideal in the file)"),
        (["partition", path], "need --ideal (or an ideal in the file)"),
        (["intersect", path, "--center", "0,0,0,0,0,0"],
         "need --ideal (or an ideal in the file)"),
        (["ball-size", path], "need --ideal or --radius (or those fields in the file)"),
        (["check-perfect", path],
         "need --ideal or --radius (or those fields in the file)"),
        (["check-error-correcting", path], "need --radius (or a radius in the file)"),
        (["weight-dist", fixture_path("iperfect_not_mds_z6"), "--closed-form"],
         "closed form needs equal block dimensions"),
        (["weight-dist", fixture_path("iperfect_z9_mds"), "--closed-form"],
         "closed form needs a chain order"),
        # A malformed integer list names its flag and echoes the text.
        (["ball-size", path, "--ideal", "a"],
         "--ideal must be comma-separated integers, got 'a'"),
        (["sphere-size", path, "--ideal", ""], "expected 4 counts, got 0"),
        (["weight", path, "--vector", "1,x"],
         "--vector must be comma-separated integers, got '1,x'"),
        (["distance", path, "--vector", "0,0,0,0,0,0", "--other", "1,,2"],
         "--other must be comma-separated integers, got '1,,2'"),
        (["intersect", path, "--ideal", "2,2,2,0", "--center", "1.5"],
         "--center must be comma-separated integers, got '1.5'"),
    ]
    for argv, message in cases:
        assert invoke(*argv) == (2, f"# input error: {message}\nerror=input\n"), argv


def test_budget_exit_code():
    status, out = invoke(
        "check-perfect", fixture_path("partial_perfect_z6"), "--radius", "4",
        "--budget", "10"
    )
    assert status == 3
    assert kv(out)["error"] == "budget"


def test_machine_mode_and_determinism():
    status1, out1 = invoke("oracle", "census", fixture_path("perfect_r1_z5"),
                           "--machine")
    status2, out2 = invoke("oracle", "census", fixture_path("perfect_r1_z5"),
                           "--machine")
    assert status1 == status2 == 0
    assert out1 == out2
    assert all(not line.startswith("#") for line in out1.splitlines())


def test_every_fixture_loads():
    for name in NAMES:
        problem = load_problem(fixture_path(name))
        assert problem.space.size >= 4


def test_signed_vectors_accepted():
    status, out = invoke("weight", fixture_path("perfect_r1_z5"), "--vector=-1,0")
    assert status == 0
    assert kv(out)["weight"] == "1"


def test_failed_partition_prints_its_report_once():
    status, out = invoke("partition", fixture_path("mds_z5_len3"), "--ideal", "0,1",
                         "--machine")
    assert status == 1
    assert out == "partition=false\nwitness_element=2\n"


def test_negative_budget_is_an_input_error():
    status, out = invoke("partition", fixture_path("mds_z5_len3"), "--ideal", "0,1",
                         "--budget", "-1", "--machine")
    assert status == 2
    assert out == "error=input\n"


def test_integer_lists_come_back_as_exact_ints():
    # Integral floats count as integers, so a list holding one is rebuilt.
    for values in ([], [0, 4, 2], [0, 5.0, 3], [-1.0]):
        found = cli._integers(values, "labeling")
        assert found == values and {type(x) for x in found} <= {int}


def test_malformed_numbers_rejected_naming_the_field(tmp_path):
    base = {"m": 5, "pomset": {"s": 2, "relations": [[2, 1]]}, "labeling": [2, 1]}
    cases = [
        ({"m": 5.9}, "m must be an integer, got 5.9"),
        ({"m": True}, "m must be an integer, got true"),
        # Named before the order's height m // 2 is derived from it.
        ({"m": 1}, "modulus must be at least 2, got 1"),
        ({"m": 0}, "modulus must be at least 2, got 0"),
        ({"m": -3}, "modulus must be at least 2, got -3"),
        ({"pomset": {"s": 2.5}}, "pomset.s must be an integer, got 2.5"),
        ({"pomset": {"s": 2, "relations": [[True, 2]]}},
         "pomset.relations[0][0] must be an integer, got true"),
        ({"labeling": [2, 1.5]}, "labeling[1] must be an integer, got 1.5"),
        ({"ideal": {"counts": [1, False]}}, "ideal.counts[1] must be an integer, got false"),
        ({"radius": 1.5}, "radius must be an integer, got 1.5"),
        ({"code": {"codewords": [[0, 0, "1"]]}},
         'code.codewords[0][2] must be an integer, got "1"'),
        ({"labeling": 3}, "labeling must be a list, got 3"),
        ({"code": {"codewords": 5}}, "code.codewords must be a list, got 5"),
        ({"code": {"codewords": [5]}}, "code.codewords[0] must be a list, got 5"),
        ({"pomset": {"s": 2, "relations": [[1, 2, 3]]}},
         "pomset.relations[0] must be a pair, got [1, 2, 3]"),
        ({"code": {}}, "code must supply 'codewords' or 'generator'"),
        ({"code": {"generator": [[1, 1, 1]], "codewords": [[0, 0, 0], [1, 2, 0]]}},
         "code must supply 'codewords' or 'generator', not both"),
        ({"labeling": [2, 1, 1]}, "labeling has 3 blocks but order has 2 elements"),
        ({"radius": 99}, "radius 99 outside 0..4"),
    ]
    path = tmp_path / "bad.json"
    for override, message in cases:
        path.write_text(json.dumps({**base, **override}))
        status, out = invoke("weight", str(path), "--vector", "0,0,0")
        assert status == 2
        assert out == f"# input error: {message}\nerror=input\n"
    # Integral floats are integers.
    path.write_text(json.dumps({**base, "m": 5.0, "radius": 2.0}))
    status, out = invoke("weight", str(path), "--vector", "0,0,1", "--machine")
    assert (status, out) == (0, "weight=1\n")


def test_non_object_sections_rejected_naming_the_section(tmp_path):
    base = {"m": 5, "pomset": {"s": 1}, "labeling": [1]}
    cases = [
        ([base], "problem must be an object, got [{"),
        ({**base, "pomset": [1]}, "pomset must be an object, got [1]"),
        ({**base, "code": [[0]]}, "code must be an object, got [[0]]"),
        ({**base, "ideal": [1]}, "ideal must be an object, got [1]"),
    ]
    path = tmp_path / "bad.json"
    for doc, message in cases:
        path.write_text(json.dumps(doc))
        status, out = invoke("weight", str(path), "--vector", "1")
        assert status == 2
        assert out.startswith(f"# input error: {message}")
        assert out.endswith("\nerror=input\n")
    path.write_text(json.dumps({"m": 5, "pomset": [1], "labeling": [1]}))
    status, out = invoke("weight", str(path), "--vector", "1", "--machine")
    assert (status, out) == (2, "error=input\n")


def test_labeling_length_is_checked_before_the_order_is_built(tmp_path, monkeypatch):
    # A million-element order would take seconds and hundreds of MiB to close.
    def no_closure(s, pairs):
        raise AssertionError("the order was built")

    monkeypatch.setattr("pomsetblock.pomset._transitive_closure", no_closure)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"m": 5, "pomset": {"s": 1000000, "relations": []}, "labeling": [1]}
    ))
    assert invoke("weight", str(path), "--vector", "0") == (
        2, "# input error: labeling has 1 blocks but order has 1000000 elements\n"
        "error=input\n"
    )


def test_missing_required_fields_are_named(tmp_path):
    base = {"m": 5, "pomset": {"s": 2, "relations": [[2, 1]]}, "labeling": [2, 1],
            "ideal": {"counts": [2, 2]}}
    cases = [
        ({k: v for k, v in base.items() if k != "m"}, "m"),
        ({k: v for k, v in base.items() if k != "pomset"}, "pomset"),
        ({**base, "pomset": {"relations": [[2, 1]]}}, "pomset.s"),
        ({k: v for k, v in base.items() if k != "labeling"}, "labeling"),
        ({**base, "ideal": {}}, "ideal.counts"),
    ]
    path = tmp_path / "bad.json"
    for doc, field in cases:
        path.write_text(json.dumps(doc))
        status, out = invoke("weight", str(path), "--vector", "0,0,1")
        assert (status, out) == (
            2, f"# input error: missing required field {field}\nerror=input\n"
        )


def test_programming_errors_are_not_input_errors(monkeypatch):
    def broken(problem, args, rep):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli.COMMANDS, "weight", cli.COMMANDS["weight"]._replace(run=broken))
    with pytest.raises(TypeError, match="unsupported operand"):
        invoke("weight", fixture_path("perfect_r1_z5"), "--vector", "0,0")


def test_dual_budget_counts_the_dual():
    # The space has 6^3 = 216 vectors and the dual 54 codewords.
    path = fixture_path("iperfect_not_mds_z6")
    status, out = invoke("dual", path, "--budget", "53", "--machine")
    assert (status, out) == (3, "error=budget\n")
    status, out = invoke("dual", path, "--budget", "53")
    assert out.startswith("# budget exceeded: dual of 54 codewords exceeds budget 53\n")
    status, out = invoke("dual", path, "--budget", "54", "--machine")
    assert status == 0
    assert out.splitlines()[0] == "size=54"


def test_redundant_generator_rows_load_when_the_span_fits(tmp_path):
    # 5^11 coefficient tuples exceed the default budget of 10^7; the span
    # they generate has 25 codewords.
    first, second = [1, 0, 2], [0, 1, 3]
    rows = [first, second] + [
        [(k * x + y) % 5 for x, y in zip(first, second)] for k in range(9)
    ]
    doc = {"m": 5, "pomset": {"s": 2, "relations": [[1, 2]]}, "labeling": [2, 1],
           "code": {"generator": rows}}
    path = tmp_path / "redundant.json"
    path.write_text(json.dumps(doc))
    status, out = invoke("dual", str(path), "--machine")
    assert status == 0
    assert out.splitlines()[0] == "size=5"
    assert load_problem(str(path)).code.size == 25


def _wide_antichain(tmp_path):
    # 24 incomparable blocks of dimension 1 over Z_5: 5^24 vectors, and a
    # radius-12 ball of about 3e8 members.
    doc = {"m": 5, "pomset": {"s": 24}, "labeling": [1] * 24,
           "code": {"codewords": [[0] * 24, [1] * 24]}}
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_radius_ball_budget_stops_the_listing(tmp_path):
    path = _wide_antichain(tmp_path)
    status, out = invoke("check-error-correcting", path, "--radius", "12",
                         "--budget", "10", "--machine")
    assert (status, out) == (3, "error=budget\n")
    status, out = invoke("check-error-correcting", path, "--radius", "12",
                         "--budget", "10")
    assert out.startswith("# budget exceeded: census of 2 codewords x a radius-12 "
                          "ball of more than 5 vectors exceeds budget 10\n")


def test_radius_perfect_budgets_the_census_not_the_space(tmp_path):
    # 5^24 vectors, but 2 translates of a 49-member radius-1 ball: the
    # census answers, and its first gap is the least vector of weight 2.
    path = _wide_antichain(tmp_path)
    status, out = invoke("check-perfect", path, "--radius", "1", "--machine")
    assert status == 1
    assert kv(out)["perfect"] == "false"
    assert kv(out)["witness"] == "0," * 23 + "2"
    status, out = invoke("check-perfect", path, "--radius", "12", "--budget", "10")
    assert status == 3
    assert out.startswith("# budget exceeded: census of 2 codewords x a radius-12 "
                          "ball of more than 5 vectors exceeds budget 10\n")


def test_one_parser_serves_every_request(monkeypatch, capsys):
    # `run` builds the argument tree once per process; a request after a
    # usage error or --help must read exactly as with a freshly built tree.
    path = fixture_path("perfect_r1_z5")
    requests = [
        ["check-perfect", path, "--machine"],
        ["check-perfect", path, "--radius", "one"],
        ["--help"],
        ["check-perfect", path, "--machine"],
    ]

    def outcomes():
        seen = []
        for argv in requests:
            buf = io.StringIO()
            try:
                status = run(argv, out=buf)
            except SystemExit as exc:
                status = exc.code
            captured = capsys.readouterr()
            seen.append((status, buf.getvalue(), captured.out, captured.err))
        return seen

    shared = outcomes()
    assert cli.build_parser() is cli.build_parser()
    assert [status for status, *_ in shared] == [0, 2, 0, 0]
    assert shared[0] == shared[3] and shared[0][1] == "mode=radius\nperfect=true\n"
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outcomes() == shared


def test_main_exits_quietly_when_its_reader_closes(tmp_path):
    # As in `pomsetblock downsets --machine --size 1 wide.json | head -1`,
    # with the reader gone before the first line is written.
    wide = tmp_path / "antichain24.json"
    wide.write_text(json.dumps({"m": 5, "pomset": {"s": 24, "relations": []},
                                "labeling": [1] * 24}))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", "from pomsetblock.cli import main; main()",
         "downsets", "--machine", "--size", "1", str(wide)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    status = proc.wait(timeout=60)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert status not in (cli.EXIT_OK, cli.EXIT_FALSE)


@pytest.mark.parametrize("request_, status, primal_listings", [
    (["partition", "--ideal", "2,2,2,0"], 0, 0),
    (["dual"], 0, 0),
    (["check-perfect", "--ideal", "2,2,2,0"], 0, 0),
    (["check-error-correcting", "--radius", "1"], 0, 0),
    # `min_root` weighs every codeword, the threshold's independent check.
    (["block-threshold"], 0, 1),
    (["weight-dist"], 0, 1),
    (["singleton"], 0, 1),
])
def test_a_spanned_code_is_listed_only_by_the_requests_that_read_its_words(
        monkeypatch, request_, status, primal_listings):
    # The first four fail at the parent, which listed every span at load.
    # The problem memo starts cold (see conftest), so the first request
    # loads the problem; the same request again reuses it and lists no
    # more of the primal, while `dual` builds a new dual each time.
    path = fixture_path("mds_z5_len6")
    primal = load_problem(path).code._form
    forms = []
    real = codes._lex_span
    monkeypatch.setattr(codes, "_lex_span",
                        lambda form, n, m: forms.append(form) or real(form, n, m))
    assert invoke(request_[0], path, *request_[1:], "--machine")[0] == status
    assert sum(form == primal for form in forms) == primal_listings
    assert len(forms) == primal_listings + (request_ == ["dual"])
    assert invoke(request_[0], path, *request_[1:], "--machine")[0] == status
    assert sum(form == primal for form in forms) == primal_listings
    assert len(forms) == primal_listings + 2 * (request_ == ["dual"])


def parse_outcome(parse, argv, capsys):
    """The Namespace `parse` returns, or its exit code and what it printed."""
    try:
        return parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def flag_argvs():
    """Every command with each of its flags, and its required ones."""
    path = fixture_path("mds_z5_len6")
    values = {"--ideal": "2,2,2,0", "--radius": "1", "--cardinality": "1",
              "--size": "1", "--seed": "3", "--budget": "99"}
    for name, command in cli.COMMANDS.items():
        head = [name, *command.modes[:1]]
        flags = [(names[0], spec) for names, spec in command.flags]
        flags += [("--budget", {}), ("--machine", {"action": "store_true"})]
        given = {flag: [flag] if spec.get("action") == "store_true"
                 else [flag, values.get(flag, "0,0,0,0,0,0")] for flag, spec in flags}
        required = [arg for flag, spec in flags if spec.get("required") for arg in given[flag]]
        yield head + [path] + required
        for flag in given:
            yield head + [path] + required + given[flag]
            yield head + given[flag] + [path] + required


def test_one_parse_per_request_matches_the_two_level_parse(capsys):
    # Fails at the parent, which has no `parse_argv`.
    path = fixture_path("mds_z5_len6")
    corpus = [
        *flag_argvs(),
        *([name, "-h"] for name in cli.COMMANDS),
        [],
        ["-h"],
        ["--help"],
        ["no-such-command", path],
        ["dual", path, "--bogus"],
        ["dual", path, "extra"],
        ["dual"],
        ["weight", path],
        ["weight", "--seed", "1", "--vector", "0,0,0,0,0,0", path],
        ["dual", path, "--seed", "1"],
        ["oracle", "bogus", path],
        ["oracle", path],
        ["--machine", "dual", path],
        ["--budget", "5", "dual", path],
        ["dual", "--", path],
        ["dual", path, "--machine", "--machine"],
        ["dual", path, "--budget"],
        ["dual", path, "--budget", "x"],
        ["weight", path, "--vector=0,0,0,0,0,0", "--vec", "1"],
    ]
    routes = set()
    for argv in corpus:
        one = parse_outcome(cli.parse_argv, list(argv), capsys)
        two = parse_outcome(cli.build_parser().parse_args, list(argv), capsys)
        assert one == two, argv
        routes.add(type(one))
    assert routes == {argparse.Namespace, tuple}


def test_leftover_arguments_are_reported_by_the_top_level_parser(capsys):
    path = fixture_path("mds_z5_len6")
    with pytest.raises(SystemExit) as exc:
        run(["dual", path, "--bogus", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pomsetblock [-h]")
    assert err.endswith("pomsetblock: error: unrecognized arguments: --bogus x\n")
