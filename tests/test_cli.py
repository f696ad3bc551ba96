import io
import json
import time

import pytest

from preorderspace import RangeError, checks
from preorderspace.cli import SUITES, main

SQRT2_FIELD = json.dumps({"min_poly": [-2, 0, 1], "isolating": ["1", "2"]})


def run_cli(capsys, monkeypatch, args, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(args)
    return code, capsys.readouterr().out


def test_canon_scaling(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["canon"],
                        '{"n": 2, "rows": [["2", "0"]]}')
    assert code == 0
    blob = json.loads(out)
    assert blob["rows"] == [["1", "0"]]
    assert blob["rank"] == 1 and blob["degree"] == 1


def test_canon_empty_rows(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["canon"], '{"n": 3, "rows": []}')
    blob = json.loads(out)
    assert code == 0 and blob["degree"] == 3 and blob["type"] == []


def test_canon_round_trip_stable(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["canon", "--field", SQRT2_FIELD],
                        '{"n": 2, "rows": [[["1","0"],["0","1"]],[["0","0"],["0","1"]]]}')
    assert code == 0
    code2, out2 = run_cli(capsys, monkeypatch, ["canon", "--field", SQRT2_FIELD], out)
    assert code2 == 0 and out2 == out
    assert json.loads(out)["rank"] == 1


def test_compare(capsys, monkeypatch):
    payload = json.dumps({"p": {"n": 2, "rows": [["1", "0"], ["0", "1"]]},
                          "u": [0, -3], "v": [0, 0]})
    code, out = run_cli(capsys, monkeypatch, ["compare"], payload)
    assert code == 0 and json.loads(out) == {"result": "<"}
    payload = json.dumps({"p": {"n": 2, "rows": []}, "u": [5, 1], "v": [0, 0]})
    code, out = run_cli(capsys, monkeypatch, ["compare"], payload)
    assert json.loads(out) == {"result": "~"}


def test_meet_and_refines(capsys, monkeypatch):
    p = {"n": 2, "rows": [["1", "0"], ["0", "1"]]}
    q = {"n": 2, "rows": [["1", "0"], ["0", "-1"]]}
    code, out = run_cli(capsys, monkeypatch, ["meet"], json.dumps({"p": p, "q": q}))
    assert code == 0 and json.loads(out)["rows"] == [["1", "0"]]
    code, out = run_cli(capsys, monkeypatch, ["refines"],
                        json.dumps({"p": {"n": 2, "rows": [["1", "0"]]}, "q": p}))
    assert code == 0 and json.loads(out) == {"refines": True}


def test_distance(capsys, monkeypatch):
    p = {"n": 2, "rows": [["1", "0"]]}
    code, out = run_cli(capsys, monkeypatch, ["distance", "--m-max", "5"],
                        json.dumps({"p": p, "q": p}))
    assert code == 0 and json.loads(out) == {"distance": "0"}
    q = {"n": 2, "rows": [["-1", "0"]]}
    code, out = run_cli(capsys, monkeypatch, ["distance", "--m-max", "5"],
                        json.dumps({"p": p, "q": q}))
    assert json.loads(out) == {"distance": "1/1"}


def test_witness_isolated_exit_code(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["witness", "--m", "3"],
                        '{"n": 2, "rows": [["1", "0"]]}')
    assert code == 3
    assert json.loads(out)["error"] == "isolated"


def test_witness_found(capsys, monkeypatch):
    payload = json.dumps({"n": 2, "rows": [[["1", "0"], ["0", "1"]]]})
    code, out = run_cli(capsys, monkeypatch,
                        ["witness", "--field", SQRT2_FIELD, "--m", "3", "--count", "2",
                         "--same-type"], payload)
    assert code == 0
    blob = json.loads(out)
    assert len(blob["neighbors"]) == 2
    assert all(w["rank"] == 1 and w["degree"] == 0 for w in blob["neighbors"])


def test_fragment_dot(capsys, monkeypatch):
    payload = json.dumps({"n": 1, "candidates": [["1"], ["-1"]]})
    code, out = run_cli(capsys, monkeypatch, ["fragment"], payload)
    assert code == 0
    assert out.count("->") == 2 and out.startswith("digraph fragment {")


def test_act(capsys, monkeypatch):
    payload = json.dumps({"phi": {"matrix": [["0", "1"], ["1", "0"]]},
                          "p": {"n": 2, "rows": [["1", "0"]]}})
    code, out = run_cli(capsys, monkeypatch, ["act"], payload)
    assert code == 0 and json.loads(out)["rows"] == [["0", "1"]]


def test_valuate(capsys, monkeypatch):
    payload = json.dumps({
        "p": {"n": 2, "rows": [["1", "0"], ["0", "1"]]},
        "f": {"n": 2, "field": "Q", "terms": [{"e": [1, 0], "c": "1"},
                                              {"e": [0, 1], "c": "1"}]},
    })
    code, out = run_cli(capsys, monkeypatch, ["valuate"], payload)
    assert code == 0
    assert json.loads(out) == {"value": {"infinite": False, "tuple": ["0", "1"]}}


def test_check_suite(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch,
                        ["check", "axioms", "--seed", "3", "--cases", "10"])
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] and blob["suite"] == "axioms"


def test_check_unknown_suite(capsys, monkeypatch):
    code, _ = run_cli(capsys, monkeypatch, ["check", "nonsense"])
    assert code == 1


def test_seed_is_an_option_of_check_only(capsys, monkeypatch):
    for args in (["canon", "--seed", "1"], ["distance", "--seed", "1"],
                 ["--seed", "1", "check", "axioms"]):
        code, out = run_cli(capsys, monkeypatch, args, '{"n": 1}')
        assert code == 1 and out == "", args


def test_malformed_json_exit_1(capsys, monkeypatch):
    code, _ = run_cli(capsys, monkeypatch, ["canon"], "{not json")
    assert code == 1


def test_domain_error_exit_2(capsys, monkeypatch):
    bad_field = json.dumps({"min_poly": [-4, 0, 1], "isolating": ["1", "3"]})
    code, out = run_cli(capsys, monkeypatch, ["canon", "--field", bad_field],
                        '{"n": 2, "rows": []}')
    assert code == 2
    code, _ = run_cli(capsys, monkeypatch, ["canon"], '{"n": 2, "rows": [["1","0","0"]]}')
    assert code == 2


def test_degree_five_field_exit_2(capsys, monkeypatch):
    # no JSON input can vouch for irreducibility, so the detail names the
    # degree limit and no library-only flag
    quintic = json.dumps({"min_poly": [-2, 0, 0, 0, 0, 1], "isolating": ["1", "2"]})
    code, out = run_cli(capsys, monkeypatch, ["canon", "--field", quintic],
                        '{"n": 2, "rows": []}')
    blob = json.loads(out)
    assert code == 2 and blob["error"] == "UnsupportedDegree"
    assert "degree 4" in blob["detail"] and "assert_irreducible" not in blob["detail"]


def test_out_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "out.json"
    code, out = run_cli(capsys, monkeypatch, ["canon", "--out", str(target)],
                        '{"n": 1, "rows": [["4"]]}')
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rows"] == [["1"]]


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no_such_dir", "a_directory"])
def test_unwritable_out_exit_1(tmp_path, capsys, monkeypatch, target):
    # the out file cannot take the error, so it goes to stdout, with no traceback
    code, out = run_cli(capsys, monkeypatch, ["canon", "--out", str(tmp_path / target)],
                        '{"n": 2, "rows": [["1", "0"]]}')
    blob = json.loads(out)
    assert code == 1 and blob["error"] == "usage" and blob["detail"].startswith("--out: ")


def test_fragment_negative_max_rank_exit_2(capsys, monkeypatch):
    payload = json.dumps({"n": 1, "candidates": [["1"]]})
    code, out = run_cli(capsys, monkeypatch, ["fragment", "--max-rank", "-1"], payload)
    assert code == 2 and json.loads(out)["error"] == "RangeError"


def test_fragment_candidate_of_another_length_exit_2_at_max_rank_0(capsys, monkeypatch):
    # candidates are checked before any row step, so even a search that takes none refuses them
    payload = json.dumps({"n": 2, "candidates": [["1", "0"], ["1"]]})
    code, out = run_cli(capsys, monkeypatch, ["fragment", "--max-rank", "0"], payload)
    assert code == 2 and json.loads(out) == {"error": "DimensionMismatch",
                                             "detail": "row length 1 != ambient 2"}


def test_negative_dimension_exit_2(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["canon"], '{"n": -1}')
    assert code == 2 and json.loads(out)["error"] == "DimensionMismatch"


def test_bad_row_literal_exit_1(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["canon"], '{"n": 1, "rows": [["x"]]}')
    assert code == 1 and json.loads(out)["error"] == "parse"
    code, out = run_cli(capsys, monkeypatch, ["canon"], '{"n": 2, "rows": ["12"]}')
    assert code == 1 and json.loads(out)["error"] == "parse"
    for literal in ["1/0", "1e100000"]:
        code, out = run_cli(capsys, monkeypatch, ["canon"], json.dumps({"n": 1, "rows": [[literal]]}))
        assert code == 1 and json.loads(out)["error"] == "parse", literal


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_check_needs_a_case_exit_2(capsys, monkeypatch, cases):
    code, out = run_cli(capsys, monkeypatch, ["check", "axioms", "--cases", cases])
    assert code == 2 and json.loads(out)["error"] == "RangeError"


def test_check_cases_beyond_budget_exit_2(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch,
                        ["check", "all", "--cases", str(checks.MAX_SUITE_CASES + 1)])
    blob = json.loads(out)
    assert code == 2 and blob["error"] == "RangeError" and "MAX_SUITE_CASES" in blob["detail"]


def test_run_suite_refuses_before_any_case(monkeypatch):
    def boom(rng, field, i, failures):
        raise AssertionError("a case ran")

    for name in ("suite_axioms", "suite_lattice", "suite_metric", "suite_action",
                 "suite_valuation"):
        monkeypatch.setattr(checks, name, boom)
    for suite in SUITES:
        for cases in (0, checks.MAX_SUITE_CASES + 1):
            with pytest.raises(RangeError):
                checks.run_suite(suite, 0, cases)


def test_every_cli_suite_runs_and_no_other():
    for suite in SUITES:
        report = checks.run_suite(suite, 0, 1)
        assert report["suite"] == suite and report["passed"]
    for name in ("nonsense", "ALL", ""):
        with pytest.raises(KeyError):
            checks.run_suite(name, 0, 1)


@pytest.mark.parametrize("args, payload", [
    (["distance", "--m-max", "0"], {"p": {"n": 1, "rows": [["1"]]}, "q": {"n": 1}}),
    (["witness", "--m", "0"], {"n": 2, "rows": [["1", "0"]]}),
    (["witness", "--m", "1", "--count", "0"], {"n": 2, "rows": [["1", "0"]]}),
], ids=["m_max_0", "m_0", "count_0"])
def test_level_out_of_range_exit_2(capsys, monkeypatch, args, payload):
    code, out = run_cli(capsys, monkeypatch, args, json.dumps(payload))
    assert code == 2 and json.loads(out)["error"] == "RangeError"


P1 = {"n": 1, "rows": [["1"]]}
LAURENT = {"n": 1, "field": "Q", "terms": [{"e": [1], "c": "1"}]}


@pytest.mark.parametrize("args, payload", [
    (["compare"], {"p": P1, "u": [0.1], "v": ["0"]}),
    (["compare"], {"p": P1, "u": ["1"], "v": ["x"]}),
    (["canon"], {"n": 1.7, "rows": []}),
    (["canon"], {"n": "x", "rows": []}),
    (["fragment"], {"n": 1.7, "candidates": [["1"]]}),
    (["valuate"], {"p": P1, "f": dict(LAURENT, n=True)}),
    (["canon", "--field", json.dumps({"min_poly": [-2, 0, 1.0], "isolating": ["1", "2"]})],
     {"n": 1, "rows": []}),
    (["canon", "--field", json.dumps({"min_poly": [-2, 0, 1], "isolating": [1.5, "2"]})],
     {"n": 1, "rows": []}),
    (["canon", "--field", json.dumps({"min_poly": [-2, 0, 1], "isolating": ["1"]})],
     {"n": 1, "rows": []}),
    (["valuate"], {"p": P1, "f": dict(LAURENT, terms=[{"e": [0.5], "c": "1"}])}),
    (["valuate"], {"p": P1, "f": dict(LAURENT, terms=[{"e": [1], "c": 0.1}])}),
    (["valuate"], {"p": P1, "f": dict(LAURENT, field="F_5",
                                      terms=[{"e": [1], "c": "1/2"}])}),
    (["act"], {"phi": {"matrix": [[0.5]]}, "p": P1}),
    (["act"], {"phi": {"matrix": [["x"]]}, "p": P1}),
    (["compare"], {"p": P1, "u": ["1/0"], "v": ["0"]}),
    (["compare"], {"p": P1, "u": ["1e100000"], "v": ["0"]}),
])
def test_bad_literal_outside_a_row_exit_1(capsys, monkeypatch, args, payload):
    code, out = run_cli(capsys, monkeypatch, args, json.dumps(payload))
    assert code == 1 and json.loads(out)["error"] == "parse"


def test_compare_lengths_differ_exit_2(capsys, monkeypatch):
    payload = json.dumps({"p": {"n": 2, "rows": [["1", "0"]]}, "u": ["1", "0", "7"],
                          "v": ["0", "0"]})
    code, out = run_cli(capsys, monkeypatch, ["compare"], payload)
    assert code == 2 and json.loads(out)["error"] == "DimensionMismatch"


@pytest.mark.parametrize("args", [["refines"], ["meet"], ["distance", "--m-max", "2"]])
def test_ambient_dimensions_differ_exit_2(capsys, monkeypatch, args):
    payload = json.dumps({"p": {"n": 2, "rows": [["1", "0"]]},
                          "q": {"n": 3, "rows": [["1", "0", "0"]]}})
    code, out = run_cli(capsys, monkeypatch, args, payload)
    assert code == 2 and json.loads(out)["error"] == "DimensionMismatch"


@pytest.mark.parametrize("name", ["F_x", 5, "F_" + "7" * 5000],
                         ids=["F_x", "5", "F_5000_digits"])
def test_unknown_laurent_field_exit_2(capsys, monkeypatch, name):
    payload = json.dumps({"p": P1, "f": dict(LAURENT, field=name)})
    code, out = run_cli(capsys, monkeypatch, ["valuate"], payload)
    assert code == 2 and json.loads(out)["error"] == "InvalidField"


@pytest.mark.parametrize("args, payload", [
    (["distance", "--m-max", "1000000"],
     {"p": {"n": 2, "rows": [["1", "1/1000000"]]}, "q": {"n": 2, "rows": [["1", "0"], ["0", "1"]]}}),
    (["witness", "--field", SQRT2_FIELD, "--m", "1000"], {"n": 2, "rows": [[["1", "0"], ["0", "1"]]]}),
])
def test_box_beyond_budget_exit_2(capsys, monkeypatch, args, payload):
    code, out = run_cli(capsys, monkeypatch, args, json.dumps(payload))
    assert code == 2 and json.loads(out)["error"] == "RangeError"


def test_box_of_huge_dimension_exit_2_fast(capsys, monkeypatch):
    # the budget check never builds (2k+1)^n: 17^100000 is too long to print,
    # and 17^3000000 takes seconds to compute
    for n in [100000, 3000000]:
        payload = json.dumps({"p": {"n": n}, "q": {"n": n}})
        start = time.perf_counter()
        code, out = run_cli(capsys, monkeypatch, ["distance"], payload)
        assert time.perf_counter() - start < 1.0, n
        assert code == 2 and json.loads(out)["error"] == "RangeError", n


# 5000 digits: more than int() converts from a string
LONG = "7" * 5000


@pytest.mark.parametrize("args, stdin", [
    (["canon"], '{"n": 2, "rows": [[1, %s]]}' % LONG),
    (["canon", "--field", '{"min_poly": [-2, 0, 1], "isolating": [1, %s]}' % LONG],
     '{"n": 1, "rows": []}'),
    (["canon"], "[" * 100000),
], ids=["stdin", "field", "nesting"])
def test_long_number_literal_or_deep_nesting_exit_1(capsys, monkeypatch, args, stdin):
    code, out = run_cli(capsys, monkeypatch, args, stdin)
    assert code == 1 and json.loads(out)["error"] == "parse"


def test_fragment_beyond_budget_exit_2_fast(capsys, monkeypatch):
    # 20 candidates at n = 5 could take 20 + 20^2 + 20^2 19 + ... extend calls
    payload = json.dumps({"n": 5, "candidates": [[str(i), "1", "0", "0", "0"] for i in range(20)]})
    start = time.perf_counter()
    code, out = run_cli(capsys, monkeypatch, ["fragment"], payload)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and json.loads(out)["error"] == "RangeError"


@pytest.mark.parametrize("args, payload", [
    (["canon"], 7), (["canon"], []), (["witness"], "x"),
    (["compare"], {"p": {"n": 1, "rows": []}, "u": ["1"]}),
    (["compare"], {"p": 5, "u": ["1"], "v": ["0"]}),
    (["meet"], {"p": {"n": 1}}), (["refines"], {"p": [1], "q": {"n": 1}}),
    (["distance"], [{"n": 1}, {"n": 1}]), (["distance"], {"p": {"n": 1}, "q": None}),
    (["fragment"], {"candidates": []}), (["fragment"], {"n": 2, "candidates": 7}),
    (["act"], {"p": {"n": 1}}), (["act"], {"phi": {"matrix": [["1"]]}, "p": 3}),
    (["valuate"], {"f": {}}), (["valuate"], {"p": True, "f": {}}),
])
def test_payload_of_the_wrong_shape_exit_1(capsys, monkeypatch, args, payload):
    # every payload is read by parse_object, so a missing member or a member of
    # the wrong JSON type is a ParseError, never a KeyError or TypeError
    code, out = run_cli(capsys, monkeypatch, args, json.dumps(payload))
    assert code == 1 and json.loads(out)["error"] == "parse", out
