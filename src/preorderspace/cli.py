"""Command-line front door: JSON on stdin, JSON or DOT on stdout.

Exit codes: 0 success, 1 usage or parse error, 2 domain error,
3 not-found (isolated point, exhausted witness search, type mismatch),
4 property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, lattice, topology
from .action import Automorphism, apply
from .errors import Isolated, ParseError, TrivialPreorder, TypeMismatch, WitnessNotFound
from .linalg import FieldVector
from .preorder import Preorder, Sign
from .realfield import NumberField, parse_integer, parse_list
from .valuation import LaurentPolynomial, valuate

DOMAIN_ERRORS = (ValueError, ZeroDivisionError)  # every domain error in errors.py derives from one
NOTFOUND_ERRORS = (Isolated, WitnessNotFound, TypeMismatch, TrivialPreorder)


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
    chk.add_argument("suite", choices=checks.SUITES)
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


def _read_stdin() -> dict:
    data = sys.stdin.read()
    return _loads(data) if data.strip() else {}


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)


def _parse_preorder(obj: dict, field: NumberField) -> Preorder:
    return Preorder.from_json(obj, field=None if "field" in obj else field)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        field = _session_field(args)
        return _dispatch(args, field)
    except NOTFOUND_ERRORS as exc:
        _emit(args, _dump({"error": _error_name(exc), "detail": str(exc)}))
        return 3
    except (ParseError, KeyError, TypeError) as exc:
        _emit(args, _dump({"error": "parse", "detail": str(exc)}))
        return 1
    except DOMAIN_ERRORS as exc:
        _emit(args, _dump({"error": _error_name(exc), "detail": str(exc)}))
        return 2


def _error_name(exc: Exception) -> str:
    names = {
        Isolated: "isolated",
        WitnessNotFound: "witness-not-found",
        TypeMismatch: "type-mismatch",
        TrivialPreorder: "trivial-preorder",
    }
    for cls, name in names.items():
        if isinstance(exc, cls):
            return name
    return type(exc).__name__


def _dispatch(args, field: NumberField) -> int:
    cmd = args.command
    if cmd == "canon":
        p = _parse_preorder(_read_stdin(), field)
        _emit(args, _dump(p.to_json()))
        return 0
    if cmd == "compare":
        payload = _read_stdin()
        p = _parse_preorder(payload["p"], field)
        sign = p.compare(parse_list(payload["u"]), parse_list(payload["v"]))
        symbol = {Sign.NEG: "<", Sign.ZERO: "~", Sign.POS: ">"}[sign]
        _emit(args, _dump({"result": symbol}))
        return 0
    if cmd == "meet":
        payload = _read_stdin()
        p = _parse_preorder(payload["p"], field)
        q = _parse_preorder(payload["q"], field)
        _emit(args, _dump(lattice.meet(p, q).to_json()))
        return 0
    if cmd == "refines":
        payload = _read_stdin()
        p = _parse_preorder(payload["p"], field)
        q = _parse_preorder(payload["q"], field)
        _emit(args, _dump({"refines": lattice.refines(p, q)}))
        return 0
    if cmd == "distance":
        payload = _read_stdin()
        p = _parse_preorder(payload["p"], field)
        q = _parse_preorder(payload["q"], field)
        _emit(args, _dump({"distance": str(topology.distance(p, q, args.m_max))}))
        return 0
    if cmd == "witness":
        p = _parse_preorder(_read_stdin(), field)
        if args.count == 1:
            witness = topology.perturb_in_ball(p, args.m, want_same_type=args.same_type)
            _emit(args, _dump(witness.to_json()))
        else:
            out = topology.same_type_neighbors(p, args.m, args.count)
            _emit(args, _dump({"neighbors": [w.to_json() for w in out]}))
        return 0
    if cmd == "fragment":
        payload = _read_stdin()
        n = parse_integer(payload["n"])
        candidates = [FieldVector.from_json(field, row) for row in payload.get("candidates", [])]
        max_rank = args.max_rank if args.max_rank is not None else n
        graph = topology.enumerate_fragment(candidates, n, max_rank, field=field)
        _emit(args, topology.to_dot(graph))
        return 0
    if cmd == "act":
        payload = _read_stdin()
        phi = Automorphism.from_json(payload["phi"])
        p = _parse_preorder(payload["p"], field)
        _emit(args, _dump(apply(phi, p).to_json()))
        return 0
    if cmd == "valuate":
        payload = _read_stdin()
        p = _parse_preorder(payload["p"], field)
        f = LaurentPolynomial.from_json(payload["f"])
        _emit(args, _dump({"value": valuate(p, f).to_json()}))
        return 0
    # argparse's required subparsers leave "check" as the only other command
    report = checks.run_suite(args.suite, args.seed, args.cases)
    _emit(args, _dump(report))
    return 0 if report["passed"] else 4


if __name__ == "__main__":
    sys.exit(main())
