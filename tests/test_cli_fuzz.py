"""Random JSON for every subcommand, fed to cli.main in-process, and for
each JSON reader, called directly.

Whatever arrives on stdin, the CLI ends with exit code 0 (answer), 1 (parse),
2 (domain) or 3 (not found), writes one JSON document to stdout (a DOT graph
for a successful fragment), and lets no exception escape.  The payloads are
shaped like the real ones (preorders, vectors, fields, matrices, Laurent
polynomials) with junk mixed in at every level, and raw text besides.  A
reader given any JSON value returns a value or raises one of the package's
error types; a non-object, a missing key or a non-list member is a ParseError.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preorderspace import (Automorphism, LaurentPolynomial, NumberField, ParseError, Preorder,
                           errors)
from preorderspace.cli import SUITES
from preorderspace.cli import main

# one ambient dimension per example, so that most payloads fit together
DIM = st.shared(st.integers(1, 3), key="n")
JUNK = st.one_of(st.none(), st.booleans(), st.floats(-4, 4), st.text(max_size=3),
                 st.sampled_from(["x", "1/0", "1e9", ""]))
RATIONAL = st.integers(-3, 3) | st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "1.5"])
SQRT2 = {"min_poly": [-2, 0, 1], "isolating": ["1", "2"]}


def payloads(junk):
    """(subcommand -> (its extra arguments, its stdin JSON), reader -> its JSON);
    `junk` is mixed in at every level."""
    def maybe(strategy):
        return strategy if junk is None else strategy | junk

    literal = maybe(RATIONAL)
    entry = literal | st.lists(literal, max_size=3)
    vector = maybe(DIM.flatmap(lambda n: st.lists(entry, min_size=n, max_size=n))
                   | st.lists(entry, max_size=4))
    n = maybe(DIM | st.integers(-1, 4))
    field = maybe(st.just(SQRT2) | st.fixed_dictionaries({
        "min_poly": maybe(st.lists(st.integers(-3, 3), max_size=6)),
        "isolating": maybe(st.lists(literal, min_size=2, max_size=2)
                           | st.lists(literal, max_size=3))}))
    preorder = maybe(st.fixed_dictionaries({"n": n}, optional={
        "rows": maybe(st.lists(vector, max_size=3)), "field": field}))
    pair = st.fixed_dictionaries({"p": preorder, "q": preorder})
    laurent = maybe(st.fixed_dictionaries({
        "n": n, "field": maybe(st.sampled_from(["Q", "F_2", "F_5", "F_4", "R"])),
        "terms": maybe(st.lists(st.fixed_dictionaries({"e": vector, "c": literal}), max_size=3))}))
    matrix = maybe(DIM.flatmap(lambda k: st.lists(st.lists(literal, min_size=k, max_size=k),
                                                  min_size=k, max_size=k))
                   | st.lists(vector, max_size=3))
    phi = maybe(st.fixed_dictionaries({"matrix": matrix}))
    commands = {
        "canon": (st.just([]), preorder),
        "compare": (st.just([]), st.fixed_dictionaries({"p": preorder, "u": vector, "v": vector})),
        "meet": (st.just([]), pair),
        "refines": (st.just([]), pair),
        "distance": (st.sampled_from([[], ["--m-max", "-1"], ["--m-max", "0"], ["--m-max", "1"]]),
                     pair),
        "witness": (st.tuples(st.sampled_from(["-1", "0", "1"]), st.sampled_from(["0", "1", "2"]),
                              st.booleans())
                    .map(lambda t: ["--m", t[0], "--count", t[1]] + ["--same-type"] * t[2]),
                    preorder),
        "fragment": (st.sampled_from([[], ["--max-rank", "-1"], ["--max-rank", "1"]]),
                     st.fixed_dictionaries({"n": n}, optional={
                         "candidates": maybe(st.lists(vector, max_size=3))})),
        "act": (st.just([]), st.fixed_dictionaries({"phi": phi, "p": preorder})),
        "valuate": (st.just([]), st.fixed_dictionaries({"p": preorder, "f": laurent})),
        "check": (st.tuples(st.sampled_from(SUITES), st.sampled_from(["-1", "0", "1", "2"]),
                            st.integers(0, 9))
                  .map(lambda t: [t[0], "--cases", t[1], "--seed", str(t[2])]),
                  st.just({})),
    }
    return commands, {"preorder": preorder, "field": field, "laurent": laurent,
                      "automorphism": phi}


(CLEAN, CLEAN_SHAPES), (JUNKY, JUNKY_SHAPES) = payloads(None), payloads(JUNK)


def run(argv, stdin: str) -> tuple[int, str]:
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(CLEAN))
def test_cli_ends_in_an_answer_or_a_typed_error(command):
    args = CLEAN[command][0]
    stdin = st.one_of(CLEAN[command][1].map(json.dumps), JUNKY[command][1].map(json.dumps),
                      st.text(max_size=12))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(args=args, stdin=stdin, field=st.none() | st.just(SQRT2))
    def check(args, stdin, field):
        argv = [command] + args + (["--field", json.dumps(field)] if field else [])
        code, out = run(argv, stdin)
        assert code in (0, 1, 2, 3), (argv, stdin, code, out)
        if command == "fragment" and code == 0:
            assert out.startswith("digraph fragment {") and out.endswith("}\n"), out
        else:
            json.loads(out)

    check()


# --- the JSON readers, called directly ------------------------------------------

READERS = {"preorder": Preorder.from_json, "field": NumberField.from_json,
           "laurent": LaurentPolynomial.from_json, "automorphism": Automorphism.from_json}
PACKAGE_ERRORS = tuple(e for e in vars(errors).values()
                       if isinstance(e, type) and issubclass(e, Exception))
# any JSON value, its objects keyed by the readers' member names
ANY_JSON = st.recursive(
    JUNK | RATIONAL,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(
        ["n", "rows", "field", "min_poly", "isolating", "terms", "e", "c", "matrix"]),
        inner, max_size=4),
    max_leaves=10)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_json_readers_end_in_a_value_or_a_package_error(reader):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(obj=st.one_of(CLEAN_SHAPES[reader], JUNKY_SHAPES[reader], ANY_JSON))
    def check(obj):
        try:
            READERS[reader](obj)
        except PACKAGE_ERRORS:
            pass

    check()


@pytest.mark.parametrize("reader, obj", [
    ("preorder", {}), ("preorder", []), ("preorder", {"n": 2, "rows": 7}),
    ("preorder", {"n": 1, "field": 3}), ("field", 3), ("field", {"min_poly": [-2, 0, 1]}),
    ("field", {"min_poly": 7, "isolating": ["1", "2"]}),
    ("laurent", {"n": 1, "field": "Q", "terms": 7}), ("laurent", {"field": "Q"}),
    ("laurent", {"n": 1, "field": "Q", "terms": [{"e": [1]}]}),
    ("laurent", {"n": 1, "field": "Q", "terms": ["x"]}),
    ("automorphism", []), ("automorphism", {"matrix": 7}), ("automorphism", {"matrix": [7]})])
def test_json_readers_raise_parse_errors(reader, obj):
    with pytest.raises(ParseError):
        READERS[reader](obj)
