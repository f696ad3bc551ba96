import itertools
import random
from fractions import Fraction as Q

import pytest

from preorderspace import (
    CoefficientField,
    DimensionMismatch,
    DivisionByZero,
    FieldVector,
    InvalidField,
    LaurentPolynomial,
    NumberField,
    RangeError,
    RationalSubspace,
    Value,
    ZeroPolynomial,
    check_composition,
    from_rows,
    initial_form,
    valuate,
    valuate_ratio,
)
from preorderspace.topology import first_disagreement_level
from preorderspace.valuation import _is_prime
from preorder_sampler import rand_preorder
from valuation_reference import (reference_initial_form, reference_valuate, tuple_cmp,
                                 value_tuple)
from shared import fv, lex2

QF = NumberField.rational()
CQ = CoefficientField.rationals()


def mono(exp, c=1, cf=CQ):
    return LaurentPolynomial.monomial(cf, len(exp), exp, c)


def rand_poly(rng, cf, n):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(-3, 3) for _ in range(n))
        c = Q(rng.randint(-3, 3)) if cf.kind == "Q" else rng.randrange(cf.p)
        terms[e] = terms.get(e, 0) + c
    f = LaurentPolynomial(cf, n, terms)
    return f if not f.is_zero() else mono((0,) * n, 1, cf)


def test_coefficient_fields():
    f5 = CoefficientField.prime(5)
    assert f5.coerce(7) == 2
    # sums and products are reduced once, by the constructor
    three, four = mono((0,), 3, f5), mono((0,), 4, f5)
    assert (three + four).terms == {(0,): 2} and (three * four).terms == {(0,): 2}
    assert (-three).terms == {(0,): 2} and (three + mono((0,), 2, f5)).is_zero()
    f = LaurentPolynomial(f5, 1, {(1,): 3, (0,): 4})
    g = LaurentPolynomial(f5, 1, {(1,): 2, (0,): 1})
    assert (f * g).terms == {(2,): 1, (1,): 1, (0,): 4}  # 6x^2 + 11x + 4
    assert (f - g).terms == {(1,): 1, (0,): 3}
    with pytest.raises(InvalidField):
        CoefficientField.prime(6)
    with pytest.raises(InvalidField):
        CoefficientField.prime(2**31 + 11)


def test_prime_field_coerces_rationals_by_inverting_the_denominator():
    f5 = CoefficientField.prime(5)
    assert f5.coerce(Q(1, 2)) == 3 and f5.coerce(Q(7, 3)) == 4 and f5.coerce(Q(-1, 2)) == 2
    f = LaurentPolynomial(f5, 1, {(1,): Q(1, 2), (0,): Q(7, 3)})
    assert f.terms == {(1,): 3, (0,): 4}


def test_prime_field_refuses_a_denominator_divisible_by_p():
    f5 = CoefficientField.prime(5)
    with pytest.raises(DivisionByZero):
        f5.coerce(Q(1, 10))
    with pytest.raises(DivisionByZero):
        LaurentPolynomial(f5, 1, {(1,): Q(3, 5)})


@pytest.mark.parametrize("cf", [CQ, CoefficientField.prime(5)], ids=["Q", "F_5"])
def test_laurent_coefficients_must_be_rational(cf):
    # a value Fraction() cannot read is a RangeError, not a bare Python error
    for c in ("x", None, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(RangeError):
            LaurentPolynomial(cf, 1, {(0,): c})
        with pytest.raises(RangeError):
            cf.coerce(c)
    f = LaurentPolynomial(cf, 1, {(0,): 3, (1,): Q(7, 3), (2,): "-1/2", (3,): " 4 "})
    want = {(0,): 3, (1,): Q(7, 3), (2,): Q(-1, 2), (3,): 4} if cf == CQ else \
        {(0,): 3, (1,): 4, (2,): 2, (3,): 4}
    assert f.terms == want


def test_laurent_exponents_must_be_integers():
    assert LaurentPolynomial(CQ, 2, {(Q(4, 2), -1): 1}) == mono((2, -1))
    for exp in ((1.5, 0), (1.0, 0), (True, 0), (Q(1, 2), 0), ("1", 0), (None, 0)):
        with pytest.raises(RangeError):
            LaurentPolynomial(CQ, 2, {exp: 1})


def test_value_exponents_must_be_integers():
    p = from_rows([FieldVector.from_rationals(QF, (1, 2))], 2, field=QF)
    assert Value.of_exponent(p, (Q(4, 2), -1)) == Value.of_exponent(p, (2, -1))
    assert Value.of_exponent(p, (Q(4, 2), -1)).exponent == (2, -1)
    for exp in ((1.5, 0), (1.0, 0), (True, 0), (Q(1, 2), 0), ("1", 0), (None, 0)):
        with pytest.raises(RangeError):
            Value.of_exponent(p, exp)


def test_composition_level_must_be_an_integer():
    p = from_rows([FieldVector.from_rationals(QF, (1, 2))], 2, field=QF)
    f = mono((1, 0)) + mono((0, 1))
    assert check_composition(p, 1, f).prefix_ok
    for k in (0.5, 1.0, True, "1", None, -1, 2):
        with pytest.raises(RangeError):
            check_composition(p, k, f)


def test_laurent_arithmetic():
    x, y = mono((1, 0)), mono((0, 1))
    assert (x + y) - (x + y) == LaurentPolynomial.zero(CQ, 2)
    assert (x + y) * (x - y) == mono((2, 0)) + mono((0, 2), -1)
    f5 = CoefficientField.prime(5)
    a = mono((1,), 3, f5)
    assert (a + mono((1,), 2, f5)).is_zero()


def test_valuate_zero_is_infinity():
    p = lex2()
    v = valuate(p, LaurentPolynomial.zero(CQ, 2))
    assert v.infinite
    assert valuate(p, mono((1, 0))) < v


def test_valuate_min_over_support():
    # under x-dominant lex, y is strictly smaller than x, so v(x + y) = class of y
    p = lex2()
    v = valuate(p, mono((1, 0)) + mono((0, 1)))
    assert v == Value.of_exponent(p, (0, 1))
    assert v.entries[0] == QF.zero() and v.entries[1] == QF.one()


def test_values_under_different_preorders_are_unequal_both_ways():
    p = from_rows([fv(QF, 1, 2)], 2, field=QF)
    q = from_rows([fv(QF, 1, 3)], 2, field=QF)
    a, b = Value.of_exponent(p, (2, -1)), Value.of_exponent(q, (0, 0))
    assert not a == b and not b == a and a != b and b != a
    assert Value.infinity(p) != Value.infinity(q)
    # an equal preorder built apart compares as the same one
    p2 = from_rows([fv(QF, 2, 4)], 2, field=QF)
    assert p2 is not p
    assert a == Value.of_exponent(p2, (0, 0)) == a and hash(a) == hash(Value.of_exponent(p2, (0, 0)))
    assert Value.infinity(p) == Value.infinity(p2)


def test_valuate_irrational(sqrt2):
    p = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    cf = CQ
    f = LaurentPolynomial(cf, 2, {(2, -1): 1, (1, 1): 1})
    v = valuate(p, f)
    # 2 - sqrt2 < 1 + sqrt2 since 1 < 2 sqrt2
    assert v == Value.of_exponent(p, (2, -1))


def test_initial_form():
    assert initial_form(lex2(), mono((3, -2), Q(5))) == mono((3, -2), Q(5))
    triv = from_rows([], 2, field=QF)
    f = mono((1, 0)) + mono((0, 1), 2)
    assert initial_form(triv, f) == f
    diag = from_rows([fv(QF, 1, 1)], 2, field=QF)
    g = mono((1, 0)) + mono((0, 1)) + mono((1, 1))
    assert initial_form(diag, g) == mono((1, 0)) + mono((0, 1))
    with pytest.raises(ZeroPolynomial):
        initial_form(diag, LaurentPolynomial.zero(CQ, 2))


def test_valuate_ratio():
    p = lex2()
    f = mono((1, 1)) + mono((2, 0))
    assert valuate_ratio(p, f, f).is_zero_tuple()
    assert valuate_ratio(p, mono((1, 1)), mono((0, 1))) == Value.of_exponent(p, (1, 0))
    assert valuate_ratio(p, LaurentPolynomial.zero(CQ, 2), f).infinite
    with pytest.raises(DivisionByZero):
        valuate_ratio(p, f, LaurentPolynomial.zero(CQ, 2))


def test_multiplicativity_random(sqrt2):
    rng = random.Random(127)
    coeffs = (CQ, CoefficientField.prime(5))
    for i in range(60):
        field = sqrt2 if i % 2 else QF
        cf = coeffs[(i // 2) % 2]
        p = rand_preorder(rng, field, 3, 2)
        f, g = rand_poly(rng, cf, 3), rand_poly(rng, cf, 3)
        assert valuate(p, f * g) == valuate(p, f) + valuate(p, g)
        assert initial_form(p, f * g) == initial_form(p, f) * initial_form(p, g)


def test_ultrametric_triangle_random(sqrt2):
    rng = random.Random(131)
    for i in range(60):
        field = sqrt2 if i % 2 else QF
        p = rand_preorder(rng, field, 3, 2)
        f, g = rand_poly(rng, CQ, 3), rand_poly(rng, CQ, 3)
        vf, vg = valuate(p, f), valuate(p, g)
        vs = valuate(p, f + g)
        vmin = vf if vf < vg else vg
        assert vs.infinite or vmin <= vs
        if vf != vg:
            assert vs == vmin


def test_trivial_preorder_trivial_valuation():
    triv = from_rows([], 3, field=QF)
    rng = random.Random(137)
    for _ in range(10):
        f = rand_poly(rng, CQ, 3)
        assert valuate(triv, f).is_zero_tuple()


@pytest.mark.parametrize("call", [
    valuate,
    initial_form,
    lambda p, f: check_composition(p, 0, f),
    lambda p, f: valuate_ratio(p, mono((1, 0)), f),
], ids=["valuate", "initial_form", "check_composition", "valuate_ratio"])
def test_polynomials_are_checked_before_the_zero_test(call):
    # one check: a non-polynomial is a RangeError and a polynomial on another
    # Z^n a DimensionMismatch, the zero polynomial included
    p = lex2()
    for bad in (5, None, "x", {(1, 0): 1}):
        with pytest.raises(RangeError):
            call(p, bad)
    for other in (LaurentPolynomial.zero(CQ, 3), mono((1, 0, 0))):
        with pytest.raises(DimensionMismatch):
            call(p, other)
    with pytest.raises(DimensionMismatch):
        valuate_ratio(p, LaurentPolynomial.zero(CQ, 2), mono((1, 0, 0)))


def test_laurent_terms_must_be_a_mapping():
    assert LaurentPolynomial(CQ, 2, {(1, 0): 1}) == mono((1, 0))
    for terms in (5, None, "x", [((1, 0), 1)]):
        with pytest.raises(RangeError):
            LaurentPolynomial(CQ, 2, terms)


def test_composition_boundary_levels():
    p = lex2()
    f = mono((1, 0)) + mono((1, 1)) + mono((0, 2))
    top = check_composition(p, p.rank, f)
    assert top.passed and top.value_residue.entries == ()
    bottom = check_composition(p, 0, f)
    assert bottom.passed and bottom.value_coarse.entries == ()


def test_composition_worked_example():
    # p = x-dominant lex on Q^2, k = 1, f = x + xy + y^2:
    # v(f) = (0, 2) at y^2; coarse value (0); initial form y^2; residue value (0)
    p = lex2()
    f = mono((1, 0)) + mono((1, 1)) + mono((0, 2))
    rep = check_composition(p, 1, f)
    assert rep.passed
    assert rep.value_direct == Value.of_exponent(p, (0, 2))
    assert rep.value_coarse.entries == (QF.zero(),)
    assert initial_form(from_rows([fv(QF, 1, 0)], 2, field=QF), f) == mono((0, 2))
    assert rep.value_residue.entries == (QF.zero(),)


def test_composition_random(sqrt2):
    rng = random.Random(139)
    coeffs = (CQ, CoefficientField.prime(5))
    for i in range(50):
        field = sqrt2 if i % 2 else QF
        cf = coeffs[(i // 2) % 2]
        p = rand_preorder(rng, field, 3, 2)
        f = rand_poly(rng, cf, 3)
        k = rng.randint(0, p.rank)
        assert check_composition(p, k, f).passed


def test_json_round_trip():
    f5 = CoefficientField.prime(5)
    f = LaurentPolynomial(f5, 2, {(1, -2): 3, (0, 0): 4})
    assert LaurentPolynomial.from_json(f.to_json()) == f
    g = LaurentPolynomial(CQ, 2, {(1, 0): Q(1, 2)})
    blob = g.to_json()
    assert blob == {"n": 2, "field": "Q", "terms": [{"e": [1, 0], "c": "1/2"}]}
    assert LaurentPolynomial.from_json(blob) == g
    p = lex2()
    assert valuate(p, g).to_json() == {"infinite": False, "tuple": ["1", "0"]}


def test_is_prime_matches_sympy():
    from sympy import isprime

    values = list(range(-3, 10**5)) + list(range(2**31 - 300, 2**31))
    # strong pseudoprimes to bases 2; 2, 3; 2, 3, 5, Carmichael numbers and the
    # square of the largest prime below isqrt(2^31)
    values += [2047, 1373653, 25326001, 561, 1105, 1729, 2821, 6601, 46337**2]
    for p in values:
        assert _is_prime(p) == isprime(p), p


# --- the sign-query comparison against the tuple reference ---------------------

def three_fields():
    return (QF, NumberField((-2, 0, 1), (1, 2)), NumberField((-2, 0, 0, 0, 1), (1, 2)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_values_valuate_and_initial_form_match_the_tuple_reference(n):
    rng = random.Random(200 + n)
    fields, coeffs = three_fields(), (CQ, CoefficientField.prime(5))
    for i in range(24):
        field, cf = fields[i % 3], coeffs[(i // 3) % 2]
        p = rand_preorder(rng, field, n, 2)
        # a small box of exponents makes ties within a class common
        f = LaurentPolynomial(cf, n, {tuple(rng.randint(-2, 2) for _ in range(n)): rng.randint(1, 4)
                                      for _ in range(rng.randint(1, 8))})
        assert valuate(p, f).entries == reference_valuate(p, f)
        assert initial_form(p, f) == reference_initial_form(p, f)
        for a, b in itertools.product(f.support(), repeat=2):
            va, vb = Value.of_exponent(p, a), Value.of_exponent(p, b)
            c = tuple_cmp(value_tuple(p, a), value_tuple(p, b))
            assert (va < vb, va == vb, va <= vb) == (c < 0, c == 0, c <= 0)
            assert (va + vb).entries == tuple(x + y for x, y in zip(value_tuple(p, a),
                                                                    value_tuple(p, b)))
            assert (va - vb).is_zero_tuple() == (c == 0)


# --- the dictionary between preorders and valuations ---------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_rational_rank_of_the_valuation_is_n_minus_degree(n):
    # the values of x^{e_1}, ..., x^{e_n} span the value group; their entries'
    # rational coefficient vectors span a space of its rational rank
    rng = random.Random(300 + n)
    for i in range(18):
        field = three_fields()[i % 3]
        p = rand_preorder(rng, field, n, 2)
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        vectors = [[c for e in Value.of_exponent(p, u).entries for c in e.coeffs] for u in units]
        rank = RationalSubspace(p.rank * field.degree, vectors).dim
        assert rank == n - p.degree


def valuation_orders(p, family):
    values = [valuate(p, f) for f in family]
    return [[vg <= vf for vg in values] for vf in values]


def test_valuations_agree_on_a_box_exactly_when_the_preorders_agree_on_the_doubled_box():
    # v_p(f) >= v_p(g) for all f, g over F_5 supported in G_k is decided on
    # pairs of monomials, whose exponent differences fill G_2k
    f5, sqrt2 = CoefficientField.prime(5), NumberField((-2, 0, 1), (1, 2))
    s2 = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))
    pairs = [
        (lex2(), lex2()),
        (lex2(), from_rows([fv(QF, 1, 0), fv(QF, 0, -1)], 2, field=QF)),
        (from_rows([fv(QF, 1, Q(1, 2))], 2, field=QF),
         from_rows([fv(QF, 1, Q(1, 2)), fv(QF, 0, 1)], 2, field=QF)),
        (from_rows([fv(QF, 1, Q(1, 2))], 2, field=QF), from_rows([fv(QF, 1, Q(1, 3))], 2, field=QF)),
        (from_rows([s2], 2, field=sqrt2), from_rows([fv(sqrt2, 1, Q(3, 2))], 2, field=sqrt2)),
        (from_rows([s2], 2, field=sqrt2), from_rows([fv(sqrt2, 1, Q(7, 5))], 2, field=sqrt2)),
    ]
    rng = random.Random(401)
    outcomes = set()
    for k in (1, 2, 3):
        box = list(itertools.product(range(-k, k + 1), repeat=2))
        family = [mono(e, 1, f5) for e in box]
        for _ in range(20):
            terms = {rng.choice(box): rng.randrange(1, 5) for _ in range(rng.randint(2, 5))}
            family.append(LaurentPolynomial(f5, 2, terms))
        for p, q in pairs:
            agree = first_disagreement_level(p, q, 2 * k) is None
            assert (valuation_orders(p, family) == valuation_orders(q, family)) == agree, (p, q, k)
            outcomes.add(agree)
    assert outcomes == {True, False}


def block_preorder(rng, field, n):
    """Rows r_1..r_s on disjoint coordinate blocks B_1..B_s (the rest left to the
    residue group): r_i is nonzero on B_i, random on the blocks before it and
    zero after, so a unit vector of B_{i+1} lies in W_i but not in W_{i+1}, and
    every step of the chain W_0 > ... > W_s shows on the box G_1."""
    coords = rng.sample(range(n), n)
    ends = [0] + sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
    rows = []
    for start, end in zip(ends, ends[1:]):
        entries = [field.zero()] * n
        for j in coords[:end]:
            head = rng.choice((-2, -1, 1, 2)) if j in coords[start:end] else rng.randint(-2, 2)
            entries[j] = field.element([Q(head, rng.randint(1, 2))]
                                       + [Q(rng.randint(-2, 2))] * (field.degree - 1))
        rows.append(FieldVector(field, tuple(entries)))
    return from_rows(rows, n, field=field)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_of_the_valuation_is_the_rank_of_the_preorder(n, sqrt2):
    # the convex subgroups of the value group Z^n / W_s are the W_i / W_s, so on
    # the box each W_i ∩ G_2, read off the tuple reference, is a run of the box
    # sorted by v_p, and the chain of them has exactly p.rank strict steps
    rng = random.Random(600 + n)
    box = list(itertools.product(range(-2, 3), repeat=n))
    ranks = set()
    for i in range(6):
        field = (QF, sqrt2)[i % 2]
        p = block_preorder(rng, field, n)
        values = {g: valuate(p, mono(g)) for g in box}
        ascending = sorted(box, key=values.__getitem__)
        tuples = {g: value_tuple(p, g) for g in box}
        chain = []
        for level in range(p.rank + 1):
            w = {g for g in box if all(x.is_zero() for x in tuples[g][:level])}
            run = [k for k, g in enumerate(ascending) if g in w]
            assert run == list(range(run[0], run[-1] + 1)), (p, level)
            chain.append(w)
        assert chain[0] == set(box)
        assert [a > b for a, b in zip(chain, chain[1:])] == [True] * p.rank
        ranks.add(p.rank)
    assert len(ranks) > 1
