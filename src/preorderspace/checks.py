"""Seeded property suites behind `check`: machine-checkable algebraic laws.

A suite is one case function, suite_<name>(rng, field, i, failures), that
draws case i's instances from sampling.py and appends a message to failures
for each law violated.  run_suite drives it over the cases from an explicit
seed, alternating Q and Q(sqrt2), and returns a report dict; a non-empty
failure list means a law was violated on a concrete reproducible instance.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import lattice, topology
from .action import Automorphism, apply, is_stabilizer, orbit_witness
from .errors import RangeError, WitnessNotFound
from .preorder import from_rows
from .sampling import (
    field_q,
    field_sqrt2,
    rand_gl,
    rand_int_vector,
    rand_laurent,
    rand_preorder,
    rand_raw_rows,
    rand_unimodular,
)
from .valuation import CoefficientField, check_composition, initial_form, valuate

Q = Fraction

# run_suite refuses with RangeError, before any case runs, more than
# MAX_SUITE_CASES cases per suite: `check all` at the bound takes about 50 s
# on a 2-CPU machine.
MAX_SUITE_CASES = 10_000
# the suites of run_suite("all"), in order
SUITE_NAMES = ("axioms", "lattice", "metric", "action", "valuation")


def _raw_sign(raw_rows, u) -> int:
    """Independent oracle: lex evaluation directly on raw defining rows."""
    for row in raw_rows:
        s = row.dot(u).sign()
        if s:
            return s
    return 0


def suite_axioms(rng: random.Random, field, i: int, failures: list[str]) -> None:
    n = rng.choice((2, 3))
    raw = rand_raw_rows(rng, field, n)
    p = from_rows(raw, n, field=field)
    # structural laws on the canonical form
    flag = p.flag
    if p.type_vec != tuple(a.dim - b.dim for a, b in zip(flag, flag[1:])):
        failures.append(f"case {i}: type and degree differ from the kernel flag: {p!r}")
    if p.rank + p.degree > n:
        failures.append(f"case {i}: rank+degree > n: {p!r}")
    if not from_rows(p.rows, n, field=field).equals(p):
        failures.append(f"case {i}: canonicalization not idempotent: {p!r}")
    u, v, w = (rand_int_vector(rng, n) for _ in range(3))
    if p.sign_of([a - b for a, b in zip(u, v)]) >= 0 and \
       p.sign_of([a - b for a, b in zip(v, w)]) >= 0 and \
       p.sign_of([a - b for a, b in zip(u, w)]) < 0:
        failures.append(f"case {i}: transitivity violated at {u},{v},{w}")
    zero_is_residue = (p.sign_of(u) == 0) == p.residue_group().contains(u)
    if not zero_is_residue:
        failures.append(f"case {i}: ZERO class differs from residue membership at {u}")
    if p.sign_of([-x for x in u]) != -p.sign_of(u):
        failures.append(f"case {i}: sign not odd at {u}")
    if p.in_O(u) == p.in_U([-x for x in u]):
        failures.append(f"case {i}: O_u complement law violated at {u}")
    if n == 2:
        for box_u in itertools.product(range(-4, 5), repeat=2):
            if p.sign_of(box_u) != _raw_sign(raw, box_u):
                failures.append(f"case {i}: canonical sign differs from raw rows at {box_u}")
                break


def suite_lattice(rng: random.Random, field, i: int, failures: list[str]) -> None:
    n = rng.choice((2, 3))
    p = rand_preorder(rng, field, n)
    q = rand_preorder(rng, field, n)
    if not lattice.refines(lattice.meet(p, q), p) or not lattice.refines(lattice.meet(p, q), q):
        failures.append(f"case {i}: meet is not a lower bound")
    for k in range(p.rank + 1):
        for j in range(k + 1):
            if not lattice.refines(lattice.truncate(p, j), lattice.truncate(p, k)):
                failures.append(f"case {i}: truncations not totally ordered at {j},{k}")
    m = lattice.meet(p, q)
    for k in range(min(p.rank, q.rank) + 1):
        t = lattice.truncate(p, k)
        if lattice.refines(t, q) and not lattice.refines(t, m):
            failures.append(f"case {i}: meet is not greatest at level {k}")
    k = rng.randint(0, p.rank)
    head, rest, basis = lattice.decompose(p, k)
    if not lattice.compose(head, rest, basis).equals(p):
        failures.append(f"case {i}: compose(decompose) round trip failed at k={k}")
    if lattice.refines(p, q) and not all(
        p.residue_group().contains(b) for b in q.residue_group().ints
    ):
        failures.append(f"case {i}: residue groups not monotone under refinement")


def suite_metric(rng: random.Random, field, i: int, failures: list[str]) -> None:
    n = 2
    a = rand_preorder(rng, field, n)
    b = rand_preorder(rng, field, n)
    c = rand_preorder(rng, field, n)
    m_max = 4
    dab = topology.distance(a, b, m_max)
    dba = topology.distance(b, a, m_max)
    if dab != dba:
        failures.append(f"case {i}: distance not symmetric")
    if (dab.kind == "zero") != a.equals(b):
        failures.append(f"case {i}: zero distance does not match equality")
    dac = topology.distance(a, c, m_max)
    dbc = topology.distance(b, c, m_max)
    if dac.upper_bound > max(dab.upper_bound, dbc.upper_bound):
        failures.append(f"case {i}: ultrametric inequality violated")
    u = rand_int_vector(rng, n, 2)
    if any(u):
        ht = max(abs(x) for x in u)
        agree = topology.first_disagreement_level(a, b, ht) is None
        if agree and b.in_O(u) and not a.in_O(u):
            failures.append(f"case {i}: ball not inside subbasic open at {u}")
    if topology.is_isolated(a) != (a.degree >= n - 1):
        failures.append(f"case {i}: isolation characterization broken")


def suite_action(rng: random.Random, field, i: int, failures: list[str]) -> None:
    n = rng.choice((2, 3))
    p = rand_preorder(rng, field, n)
    phi = rand_unimodular(rng, n)
    psi = rand_gl(rng, n)
    q = apply(phi, p)
    if (q.rank, q.degree, q.type_vec) != (p.rank, p.degree, p.type_vec):
        failures.append(f"case {i}: rank/degree/type not preserved")
    if not apply(Automorphism.identity(n), p).equals(p):
        failures.append(f"case {i}: identity does not act trivially")
    if not apply(psi, apply(phi, p)).equals(apply(phi.compose(psi), p)):
        failures.append(f"case {i}: action composition law violated")
    lam = Q(rng.randint(1, 5), rng.randint(1, 3))
    if not is_stabilizer(Automorphism.scalar(n, lam), p):
        failures.append(f"case {i}: positive scalar does not stabilize")
    fine = from_rows(list(p.rows) + rand_raw_rows(rng, field, n, 1), n, field=field)
    if not lattice.refines(apply(phi, p), apply(phi, fine)):
        failures.append(f"case {i}: action not monotone for refinement")
    u = rand_int_vector(rng, n)
    if p.sign_of(phi.image(u)) != q.sign_of(u):
        failures.append(f"case {i}: pullback sign law violated at {u}")
    if field.degree == 1:
        other = rand_preorder(rng, field, n)
        if other.type_vec == p.type_vec:
            try:
                w = orbit_witness(p, other)
            except WitnessNotFound:
                failures.append(f"case {i}: rational same-type witness not found")
            else:
                if not apply(w, p).equals(other):
                    failures.append(f"case {i}: orbit witness failed verification")


def suite_valuation(rng: random.Random, field, i: int, failures: list[str]) -> None:
    cf = CoefficientField.prime(5) if i // 2 % 2 else CoefficientField.rationals()
    n = 3
    p = rand_preorder(rng, field, n)
    f = rand_laurent(rng, cf, n)
    g = rand_laurent(rng, cf, n)
    if valuate(p, f * g) != valuate(p, f) + valuate(p, g):
        failures.append(f"case {i}: multiplicativity violated")
    vf, vg = valuate(p, f), valuate(p, g)
    vsum = valuate(p, f + g)
    vmin = vf if vf < vg else vg
    if not (vmin <= vsum or vsum.infinite):
        failures.append(f"case {i}: ultrametric triangle violated")
    if vf != vg and vsum != vmin:
        failures.append(f"case {i}: triangle equality at distinct values violated")
    if initial_form(p, f * g) != initial_form(p, f) * initial_form(p, g):
        failures.append(f"case {i}: initial forms not multiplicative")
    trivial = from_rows([], n, field=field)
    if not valuate(trivial, f).is_zero_tuple():
        failures.append(f"case {i}: trivial preorder valuation not the zero tuple")
    k = rng.randint(0, p.rank)
    if not check_composition(p, k, f).passed:
        failures.append(f"case {i}: composition identity failed at k={k}")


def run_suite(name: str, seed: int, cases: int) -> dict:
    if cases < 1:
        raise RangeError("cases must be >= 1")
    if cases > MAX_SUITE_CASES:
        raise RangeError(f"cases must be <= MAX_SUITE_CASES = {MAX_SUITE_CASES}")
    if name == "all":
        parts = [run_suite(suite, seed, cases) for suite in SUITE_NAMES]
        return {"suite": "all", "seed": seed, "cases": cases,
                "passed": all(r["passed"] for r in parts), "reports": parts}
    case = globals()[f"suite_{name}"]  # KeyError for an unknown suite
    rng, fields, failures = random.Random(seed), (field_q(), field_sqrt2()), []
    for i in range(cases):
        case(rng, fields[i % 2], i, failures)
    return {"suite": name, "seed": seed, "cases": cases, "passed": not failures,
            "failures": failures[:10]}
