"""Byte-for-byte CLI output on fixed valid inputs.

Each case's stdout is stored in tests/cli_golden/<name>.out.  A refactor that
keeps results must keep these bytes; a change that means to alter the output
rewrites the files with `PYTHONPATH=src python tests/test_cli_golden.py` and
shows the new bytes in its diff.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from preorderspace.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden")
SQRT2 = json.dumps({"min_poly": [-2, 0, 1], "isolating": ["1", "2"]})

# Q: rational rows; R2: Q(sqrt2) rows, one [c0, c1] pair per entry
Q_P = {"n": 3, "rows": [["2", "0", "1"], ["1", "1", "1"], ["0", "3", "-1/2"]]}
Q_Q = {"n": 3, "rows": [["2", "0", "1"], ["1", "-1", "0"]]}
Q_OPEN = {"n": 3, "rows": [["1", "0", "0"], ["0", "1", "0"]]}
R2_P = {"n": 3, "rows": [[["1", "0"], ["0", "1"], ["1/2", "0"]],
                         [["0", "0"], ["1", "0"], ["1", "-1"]]]}
R2_Q = {"n": 3, "rows": [[["1", "0"], ["0", "1"], ["1/2", "0"]],
                         [["0", "0"], ["-1", "0"], ["0", "2"]]]}
R2_OPEN = {"n": 3, "rows": [[["1", "0"], ["0", "1"], ["0", "0"]]]}
LAURENT = {"n": 3, "field": "Q", "terms": [{"e": [1, 0, 0], "c": "1"}, {"e": [0, 1, -1], "c": "2"},
                                           {"e": [-1, 2, 0], "c": "-1/3"}]}
PHI = {"matrix": [["1", "2", "0"], ["0", "1", "0"], ["1", "0", "-1"]]}

CASES = {
    "canon_q": (["canon"], Q_P),
    "canon_r2": (["canon", "--field", SQRT2], R2_P),
    "compare_q": (["compare"], {"p": Q_P, "u": [1, -2, 3], "v": ["1/2", 0, 3]}),
    "compare_r2": (["compare", "--field", SQRT2], {"p": R2_P, "u": [3, -2, 1], "v": [0, 0, 5]}),
    "meet_q": (["meet"], {"p": Q_P, "q": Q_Q}),
    "meet_r2": (["meet", "--field", SQRT2], {"p": R2_P, "q": R2_Q}),
    "refines_q": (["refines"], {"p": {"n": 3, "rows": [["2", "0", "1"]]}, "q": Q_P}),
    "refines_r2": (["refines", "--field", SQRT2], {"p": R2_Q, "q": R2_P}),
    "distance_q": (["distance", "--m-max", "3"],
                   {"p": {"n": 2, "rows": [["1", "1/3"]]}, "q": {"n": 2, "rows": [["1", "2/5"]]}}),
    "distance_r2": (["distance", "--field", SQRT2, "--m-max", "4"],
                    {"p": {"n": 2, "rows": [[["1", "0"], ["0", "1"]]]},
                     "q": {"n": 2, "rows": [["1", "7/5"]]}}),
    "witness_q": (["witness", "--m", "2"], Q_OPEN),
    "witness_r2": (["witness", "--field", SQRT2, "--m", "2", "--count", "2", "--same-type"],
                   R2_OPEN),
    "fragment_q": (["fragment", "--max-rank", "2"],
                   {"n": 2, "candidates": [["1", "0"], ["1", "1"], ["0", "-1"]]}),
    "fragment_r2": (["fragment", "--field", SQRT2, "--max-rank", "2"],
                    {"n": 2, "candidates": [[["1", "0"], ["0", "1"]], [["0", "0"], ["1", "0"]],
                                            [["-1", "0"], ["0", "0"]],
                                            [["1/2", "-3"], ["2", "0"]]]}),
    "act_q": (["act"], {"phi": PHI, "p": Q_P}),
    "act_r2": (["act", "--field", SQRT2], {"phi": PHI, "p": R2_P}),
    "valuate_q": (["valuate"], {"p": Q_P, "f": LAURENT}),
    "valuate_r2": (["valuate", "--field", SQRT2], {"p": R2_P, "f": LAURENT}),
    "check_action": (["check", "action", "--seed", "5", "--cases", "4"], None),
}


def run(args, payload):
    """(exit code, stdout) of one in-process CLI call."""
    stdin = "" if payload is None else json.dumps(payload)
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = main(args)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_unchanged(name):
    code, out = run(*CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, case in sorted(CASES.items()):
        code, out = run(*case)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}: {out}")
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
