"""Command-line front door: JSON on stdin, JSON or DOT on stdout.

Exit codes: 0 success, 1 usage or parse error, 2 domain error,
3 not-found (isolated point, exhausted witness search, type mismatch),
4 property-suite failure.

Start-up pays only for what a subcommand uses: this module imports the
field, linear-algebra and preorder layers every subcommand needs, and
`_dispatch` imports lattice, topology, action, valuation or checks inside the
branch that calls them.  Building the parser imports none of them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import Isolated, ParseError, TrivialPreorder, TypeMismatch, WitnessNotFound
from .preorder import Preorder, Sign
from .realfield import NumberField, parse_integer, parse_list, parse_object

DOMAIN_ERRORS = (ValueError, ZeroDivisionError)  # every domain error in errors.py derives from one
NOTFOUND_NAMES = {Isolated: "isolated", WitnessNotFound: "witness-not-found",
                  TypeMismatch: "type-mismatch", TrivialPreorder: "trivial-preorder"}
# the property suites of checks.run_suite, validated here so that building the
# parser does not import checks
SUITES = ("axioms", "lattice", "metric", "action", "valuation", "all")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default=None,
                        help='number field JSON {"min_poly": [...], "isolating": ["lo","hi"]}; default Q')
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="preorderspace",
        description="exact operations on bi-invariant preorders of Z^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {"parents": [common]}

    sub.add_parser("canon", help="canonicalize a preorder (stdin: preorder JSON)", **shared)
    sub.add_parser("compare", help='compare two vectors (stdin: {"p":..., "u":[...], "v":[...]})',
                   **shared)
    sub.add_parser("meet", help='greatest lower bound (stdin: {"p":..., "q":...})', **shared)
    sub.add_parser("refines", help='refinement test (stdin: {"p":..., "q":...})', **shared)

    dist = sub.add_parser("distance", help='patch distance (stdin: {"p":..., "q":...})', **shared)
    dist.add_argument("--m-max", type=int, default=4)

    wit = sub.add_parser("witness", help="nearby non-equal preorders (stdin: preorder JSON)",
                         **shared)
    wit.add_argument("--m", type=int, default=3)
    wit.add_argument("--count", type=int, default=1)
    wit.add_argument("--same-type", action="store_true")

    frag = sub.add_parser("fragment", help='refinement-tree fragment as DOT '
                                           '(stdin: {"n":..., "candidates":[[...],...]})', **shared)
    frag.add_argument("--max-rank", type=int, default=None)

    sub.add_parser("act", help='apply an automorphism (stdin: {"phi":..., "p":...})', **shared)
    sub.add_parser("valuate", help='monomial valuation (stdin: {"p":..., "f":...})', **shared)

    chk = sub.add_parser("check", help="run a property suite", **shared)
    chk.add_argument("suite", choices=SUITES)
    chk.add_argument("--cases", type=int, default=50)
    return parser


def _loads(text: str):
    """json.loads, with what it raises on malformed JSON, on a number literal
    longer than int() converts and on nesting deeper than the recursion limit
    as a ParseError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


def _session_field(args) -> NumberField:
    if args.field is None:
        return NumberField.rational()
    return NumberField.from_json(_loads(args.field))


def _read_stdin():
    data = sys.stdin.read()
    return _loads(data) if data.strip() else {}


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)


def _parse_preorder(obj, field: NumberField) -> Preorder:
    obj = parse_object(obj, "n")
    return Preorder.from_json(obj, field=None if "field" in obj else field)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    code, text = _answer(args)
    if not text.endswith("\n"):
        text += "\n"
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        # the out file cannot take this error either, so it goes to stdout
        sys.stdout.write(_dump({"error": "usage", "detail": f"--out: {exc}"}) + "\n")
        return 1
    return code


def _answer(args) -> tuple[int, str]:
    """Exit code and output text of a parsed command line, typed errors included."""
    try:
        return _dispatch(args, _session_field(args))
    except tuple(NOTFOUND_NAMES) as exc:
        return 3, _dump({"error": _error_name(exc), "detail": str(exc)})
    except ParseError as exc:
        return 1, _dump({"error": "parse", "detail": str(exc)})
    except DOMAIN_ERRORS as exc:
        return 2, _dump({"error": _error_name(exc), "detail": str(exc)})


def _error_name(exc: Exception) -> str:
    """exc's not-found name, else its class name (no error class derives from another)."""
    return NOTFOUND_NAMES.get(type(exc), type(exc).__name__)


def _dispatch(args, field: NumberField) -> tuple[int, str]:
    cmd = args.command
    if cmd == "canon":
        p = _parse_preorder(_read_stdin(), field)
        return 0, _dump(p.to_json())
    if cmd == "compare":
        payload = parse_object(_read_stdin(), "p", "u", "v")
        p = _parse_preorder(payload["p"], field)
        sign = p.compare(parse_list(payload["u"]), parse_list(payload["v"]))
        symbol = {Sign.NEG: "<", Sign.ZERO: "~", Sign.POS: ">"}[sign]
        return 0, _dump({"result": symbol})
    if cmd in ("meet", "refines"):
        from . import lattice
        payload = parse_object(_read_stdin(), "p", "q")
        p = _parse_preorder(payload["p"], field)
        q = _parse_preorder(payload["q"], field)
        if cmd == "meet":
            return 0, _dump(lattice.meet(p, q).to_json())
        return 0, _dump({"refines": lattice.refines(p, q)})
    if cmd == "distance":
        from . import topology
        payload = parse_object(_read_stdin(), "p", "q")
        p = _parse_preorder(payload["p"], field)
        q = _parse_preorder(payload["q"], field)
        return 0, _dump({"distance": str(topology.distance(p, q, args.m_max))})
    if cmd == "witness":
        from . import topology
        p = _parse_preorder(_read_stdin(), field)
        if args.count == 1:
            witness = topology.perturb_in_ball(p, args.m, want_same_type=args.same_type)
            return 0, _dump(witness.to_json())
        out = topology.same_type_neighbors(p, args.m, args.count)
        return 0, _dump({"neighbors": [w.to_json() for w in out]})
    if cmd == "fragment":
        from . import topology
        from .linalg import FieldVector
        payload = parse_object(_read_stdin(), "n")
        n = parse_integer(payload["n"])
        candidates = parse_list(payload.get("candidates", []),
                                lambda row: FieldVector.from_json(field, row))
        max_rank = args.max_rank if args.max_rank is not None else n
        graph = topology.enumerate_fragment(candidates, n, max_rank, field=field)
        return 0, topology.to_dot(graph)
    if cmd == "act":
        from .action import Automorphism, apply
        payload = parse_object(_read_stdin(), "phi", "p")
        phi = Automorphism.from_json(payload["phi"])
        p = _parse_preorder(payload["p"], field)
        return 0, _dump(apply(phi, p).to_json())
    if cmd == "valuate":
        from .valuation import LaurentPolynomial, valuate
        payload = parse_object(_read_stdin(), "p", "f")
        p = _parse_preorder(payload["p"], field)
        f = LaurentPolynomial.from_json(payload["f"])
        return 0, _dump({"value": valuate(p, f).to_json()})
    # argparse's required subparsers leave "check" as the only other command
    from .checks import run_suite
    report = run_suite(args.suite, args.seed, args.cases)
    return (0 if report["passed"] else 4), _dump(report)


if __name__ == "__main__":
    sys.exit(main())
