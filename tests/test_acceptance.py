"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with -s or in failure output) and
enforces the stated time budget.  Expected values were computed with
independent oracles: direct integer-arithmetic sign comparisons for algebraic
numbers, brute-force box scans for relation restrictions, and hand expansion
for the small field identities.
"""

import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction as Q

import pytest

from preorderspace import (
    Automorphism,
    FieldVector,
    Isolated,
    NumberField,
    Sign,
    apply,
    distance,
    enumerate_fragment,
    fingerprint,
    from_rows,
    is_stabilizer,
    orbit_witness,
    perturb_in_ball,
    refines,
    same_type_neighbors,
    to_dot,
    truncate,
    valuate,
)
from preorderspace.checks import run_suite
from preorderspace.topology import first_disagreement_level
from preorderspace.valuation import (
    CoefficientField,
    LaurentPolynomial,
    check_composition,
    initial_form,
)
from preorder_sampler import rand_preorder

QF = NumberField.rational()
SQRT2 = NumberField((-2, 0, 1), (1, 2))


def fv(field, *entries):
    return FieldVector.from_rationals(field, entries)


def report(name, limit, start):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"{name}: {elapsed:.2f}s exceeded {limit}s budget"
    print(f"{name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_line_fragment():
    start = time.perf_counter()
    cands = [fv(QF, 1), fv(QF, -1)]
    g = enumerate_fragment(cands, 1, 1, field=QF)
    assert len(g.nodes) == 3
    assert len(g.edges) == 2
    assert all(i == g.root for i, _ in g.edges)
    assert g.nodes[g.root].is_trivial()
    dot = to_dot(g)
    assert dot.count("->") == 2 and dot.count("label=") == 3
    report("criterion-01 rank-one line fragment", 1.0, start)


def test_criterion_02_rank_one_sequence_converges_to_rank_two():
    # p_k = <=_(1, 1/(sqrt2 k)): rank one, but sign functions agree with the
    # x-dominant lex order on the whole box G_k, so the sequence converges to
    # a rank-two limit.  The first disagreeing box level is exactly
    # isqrt(2 k^2) + 1, which also pins where the agreement stops.
    start = time.perf_counter()
    lex = from_rows([fv(SQRT2, 1, 0), fv(SQRT2, 0, 1)], 2, field=SQRT2)
    assert lex.rank == 2
    lex_fp = fingerprint(lex, 12)
    for k in range(1, 13):
        row = FieldVector(SQRT2, (SQRT2.one(), SQRT2.alpha() * Q(1, 2 * k)))
        pk = from_rows([row], 2, field=SQRT2)
        assert pk.rank == 1 and pk.degree == 0
        assert fingerprint(pk, k) == lex_fp.restrict(k)
        level = first_disagreement_level(pk, lex, 2 * k)
        assert level == math.isqrt(2 * k * k) + 1
    report("criterion-02 rank-one sequence converging to rank two", 5.0, start)


def test_criterion_03_degree_drop_at_the_limit():
    # continued-fraction convergents of sqrt2: degree stays 1 along the
    # sequence, drops to 0 at the limit; agreement levels grow without bound
    # (first mismatch sits exactly at the convergent numerator)
    start = time.perf_counter()
    convergents = [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29),
                   (99, 70), (239, 169), (577, 408)]
    limit = from_rows([FieldVector(SQRT2, (SQRT2.one(), SQRT2.alpha()))], 2, field=SQRT2)
    assert limit.degree == 0
    expected_distance = ["1/1", "1/2", "1/4"] + ["≤1/7"] * 5
    expected_levels = [1, 3, 7, 17]
    for k, (num, den) in enumerate(convergents, start=1):
        pk = from_rows([fv(SQRT2, 1, Q(num, den))], 2, field=SQRT2)
        assert pk.degree == 1 and pk.rank == 1
        d = distance(pk, limit, 6)
        assert str(d) == expected_distance[k - 1]
        if k <= 4:
            assert first_disagreement_level(pk, limit, 20) == expected_levels[k - 1]
    report("criterion-03 degree drop at the limit", 5.0, start)


def test_criterion_04_structural_invariants():
    start = time.perf_counter()
    rng = random.Random(2024)
    for n in (2, 3, 4):
        for i in range(500):
            field = SQRT2 if i % 2 else QF
            p = rand_preorder(rng, field, n, 3)
            assert sum(p.type_vec) + p.degree == n
            assert p.rank + p.degree <= n
            assert from_rows(p.rows, n, field=field).equals(p)
    report("criterion-04 structural invariants on 1500 preorders", 30.0, start)


def box_m_subset(coarse, fine, bound):
    for u in itertools.product(range(-bound, bound + 1), repeat=coarse.n):
        if coarse.sign_of(u) == Sign.POS and fine.sign_of(u) != Sign.POS:
            return False
        if fine.sign_of(u) == Sign.ZERO and coarse.sign_of(u) != Sign.ZERO:
            return False
    return True


def relations_equal_on_box(p, q, k):
    pts = list(itertools.product(range(-k, k + 1), repeat=2))
    for u, v in itertools.combinations(pts, 2):
        if (p.compare(u, v) != Sign.POS) != (q.compare(u, v) != Sign.POS):
            return False
        if (p.compare(v, u) != Sign.POS) != (q.compare(v, u) != Sign.POS):
            return False
    return True


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(4096)
    for i in range(200):
        field = SQRT2 if i % 2 else QF
        p = rand_preorder(rng, field, 2, 3)
        q = rand_preorder(rng, field, 2, 3)
        if refines(p, q):
            assert box_m_subset(p, q, 3)
        else:
            assert any(not box_m_subset(p, q, b) for b in (3, 6, 12, 24, 48)), \
                f"no box refutation for {p!r} vs {q!r}"
        d = distance(p, q, 4)
        if p.equals(q):
            assert d.kind == "zero"
        else:
            agree = [relations_equal_on_box(p, q, k) for k in (1, 2, 3, 4)]
            if d.kind == "exact":
                assert not agree[d.m - 1]
                if d.m >= 2:
                    assert agree[d.m - 2]
            else:
                assert all(agree)
    report("criterion-05 oracle equivalence for refines and distance", 60.0, start)


def test_criterion_06_ultrametric():
    start = time.perf_counter()
    rng = random.Random(8192)
    for i in range(300):
        field = SQRT2 if i % 2 else QF
        n = 2 if i % 3 else 3
        a, b, c = (rand_preorder(rng, field, n, 3) for _ in range(3))
        dab = distance(a, b, 6).upper_bound
        dbc = distance(b, c, 6).upper_bound
        dac = distance(a, c, 6).upper_bound
        assert dac <= max(dab, dbc)
    report("criterion-06 ultrametric inequality on 300 triples", 60.0, start)


def test_criterion_07_isolation_dichotomy():
    start = time.perf_counter()
    for isolated in (from_rows([fv(QF, 1, 0)], 2, field=QF), from_rows([], 2, field=QF)):
        with pytest.raises(Isolated):
            perturb_in_ball(isolated, 5)
    centers = [
        from_rows([FieldVector(SQRT2, (SQRT2.one(), SQRT2.alpha()))], 2, field=SQRT2),
        from_rows([fv(QF, 1, 0, 0), fv(QF, 0, 1, 0)], 3, field=QF),
    ]
    for center in centers:
        ns = same_type_neighbors(center, 5, 3)
        assert len(ns) == 3
        ref = fingerprint(center, 10)
        for i, w in enumerate(ns):
            assert fingerprint(w, 10) == ref
            assert (w.rank, w.degree) == (center.rank, center.degree)
            assert not w.equals(center)
            for other in ns[i + 1:]:
                assert not w.equals(other)
    report("criterion-07 isolation dichotomy and same-type neighbors", 30.0, start)


def test_criterion_08_valuation_laws():
    start = time.perf_counter()
    rng = random.Random(655)
    coeffs = (CoefficientField.rationals(), CoefficientField.prime(5))
    def rand_poly(cf):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(-3, 3) for _ in range(3))
            c = Q(rng.randint(-3, 3)) if cf.kind == "Q" else rng.randrange(5)
            terms[e] = cf.add(terms.get(e, cf.coerce(0)), cf.coerce(c))
        f = LaurentPolynomial(cf, 3, terms)
        return f if not f.is_zero() else LaurentPolynomial.monomial(cf, 3, (0, 0, 0), 1)
    for i in range(300):
        field = SQRT2 if i % 2 else QF
        cf = coeffs[(i // 2) % 2]
        p = rand_preorder(rng, field, 3, 3)
        f, g = rand_poly(cf), rand_poly(cf)
        assert valuate(p, f * g) == valuate(p, f) + valuate(p, g)
        vf, vg = valuate(p, f), valuate(p, g)
        vs = valuate(p, f + g)
        vmin = vf if vf < vg else vg
        assert vs.infinite or vmin <= vs
        if vf != vg:
            assert vs == vmin
        assert check_composition(p, rng.randint(0, p.rank), f).passed
    report("criterion-08 valuation laws on 300 pairs", 60.0, start)


def test_criterion_09_action_invariance():
    start = time.perf_counter()
    rng = random.Random(777)
    from preorderspace.sampling import rand_unimodular

    for i in range(200):
        field = SQRT2 if i % 2 else QF
        n = rng.choice((2, 3))
        p = rand_preorder(rng, field, n, 3)
        phi = rand_unimodular(rng, n)
        q = apply(phi, p)
        assert (q.rank, q.degree, q.type_vec) == (p.rank, p.degree, p.type_vec)
        lam = Q(rng.randint(1, 6), rng.randint(1, 4))
        assert is_stabilizer(Automorphism.scalar(n, lam), p)
    p1 = from_rows([fv(QF, 1, 0)], 2, field=QF)
    pairs = [
        (p1, p1),
        (p1, from_rows([fv(QF, 0, 1)], 2, field=QF)),
        (from_rows([FieldVector(SQRT2, (SQRT2.one(), SQRT2.alpha()))], 2, field=SQRT2),
         from_rows([FieldVector(SQRT2, (SQRT2.one(),
                                        SQRT2.from_rational(2) + SQRT2.alpha()))], 2,
                   field=SQRT2)),
    ]
    for p, q in pairs:
        w = orbit_witness(p, q)
        assert apply(w, p).equals(q)
    report("criterion-09 action invariance and orbit witnesses", 30.0, start)


CLI_CASES = [
    (["canon"], '{"n": 2, "rows": [["2","0"],["1","3"]]}'),
    (["compare"], '{"p": {"n": 2, "rows": [["1","0"],["0","1"]]}, "u": [0,-3], "v": [1,0]}'),
    (["meet"], '{"p": {"n": 2, "rows": [["1","0"],["0","1"]]},'
               ' "q": {"n": 2, "rows": [["1","0"],["0","-1"]]}}'),
    (["refines"], '{"p": {"n": 2, "rows": [["1","0"]]},'
                  ' "q": {"n": 2, "rows": [["1","0"],["0","1"]]}}'),
    (["distance", "--m-max", "5"], '{"p": {"n": 2, "rows": [["1","2"]]},'
                                   ' "q": {"n": 2, "rows": [["1","3"]]}}'),
    (["witness", "--field", json.dumps(SQRT2.to_json()), "--m", "3", "--count", "3",
      "--same-type"], '{"n": 2, "rows": [[["1","0"],["0","1"]]]}'),
    (["fragment", "--max-rank", "2"],
     '{"n": 2, "candidates": [["1","0"],["-1","0"],["0","1"],["0","-1"]]}'),
    (["act"], '{"phi": {"matrix": [["0","1"],["1","0"]]}, "p": {"n": 2, "rows": [["1","0"]]}}'),
    (["valuate"], '{"p": {"n": 2, "rows": [["1","0"],["0","1"]]},'
                  ' "f": {"n": 2, "field": "F_5", "terms": [{"e": [1,0], "c": 2},'
                  ' {"e": [0,1], "c": 3}]}}'),
    (["check", "metric", "--seed", "11", "--cases", "20"], ""),
]


def test_criterion_10_cli_determinism():
    start = time.perf_counter()
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
    for args, stdin in CLI_CASES:
        outputs = []
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "preorderspace", *args],
                input=stdin.encode(), capture_output=True, env=env, check=False,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"nondeterministic output for {args}"
    report("criterion-10 byte-deterministic CLI", 10.0, start)


def test_property_suites_green():
    # the cmd_check suites themselves, at a heavier case count
    start = time.perf_counter()
    rep = run_suite("all", seed=5, cases=60)
    assert rep["passed"], rep
    report("property suites (axioms/lattice/metric/action/valuation)", 60.0, start)
