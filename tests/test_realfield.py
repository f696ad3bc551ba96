import random
import time
from fractions import Fraction as Q
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preorderspace.realfield as rf
from field_reference import adjugate, fraction_sturm_chain, reference_inverse, reference_mul
from preorderspace import (
    Automorphism,
    CoefficientField,
    DimensionMismatch,
    DivisionByZero,
    FieldElement,
    FieldMismatch,
    FieldVector,
    InvalidField,
    LaurentPolynomial,
    NumberField,
    ParseError,
    RangeError,
    RationalSubspace,
    Sign,
    UnsupportedDegree,
    Value,
    check_composition,
    compose,
    decompose,
    distance,
    enumerate_fragment,
    fingerprint,
    from_rows,
    initial_form,
    meet,
    orbit_witness,
    quotient,
    refines,
    valuate,
)
from preorderspace.topology import first_disagreement_level


def rand_elem(rng, field):
    return field.element([Q(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(field.degree)])


def test_difference_of_squares(sqrt2):
    r2 = sqrt2.alpha()
    one = sqrt2.one()
    assert (one + r2) * (one - r2) == sqrt2.from_rational(-1)


def test_add_zero_identity(sqrt2):
    rng = random.Random(5)
    for _ in range(20):
        a = rand_elem(rng, sqrt2)
        assert a + sqrt2.zero() == a


def test_three_halves_product(sqrt2):
    # (3/2 + sqrt2)(3/2 - sqrt2) = 9/4 - 2 = 1/4
    r2 = sqrt2.alpha()
    h = sqrt2.from_rational(Q(3, 2))
    assert (h + r2) * (h - r2) == sqrt2.from_rational(Q(1, 4))


def test_sign_examples(sqrt2):
    r2 = sqrt2.alpha()
    assert sqrt2.zero().sign() == 0
    assert (r2 - 1).sign() == 1
    # sqrt2 < 3/2 because 2 < 9/4
    assert (r2 - Q(3, 2)).sign() == -1


def test_sign_laws_random(sqrt2):
    rng = random.Random(11)
    for _ in range(60):
        a, b = rand_elem(rng, sqrt2), rand_elem(rng, sqrt2)
        assert (a * b).sign() == a.sign() * b.sign()
        assert (a.sign() == 0) == a.is_zero()
        if a.sign() == b.sign() != 0:
            assert (a + b).sign() == a.sign()


def test_ring_laws_random(sqrt2):
    rng = random.Random(12)
    for _ in range(40):
        a, b, c = (rand_elem(rng, sqrt2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a * b) / b == a


def test_division_errors(sqrt2):
    with pytest.raises(DivisionByZero):
        sqrt2.one() / sqrt2.zero()
    sqrt3 = NumberField((-3, 0, 1), (1, 2))
    with pytest.raises(FieldMismatch):
        sqrt2.one() + sqrt3.one()


def test_inverse_random(sqrt2):
    rng = random.Random(13)
    for _ in range(30):
        a = rand_elem(rng, sqrt2)
        if not a.is_zero():
            assert a * a.inverse() == sqrt2.one()


def test_degree_one_field_is_q():
    f = NumberField.rational()
    assert f.degree == 1
    a = f.from_rational(Q(-7, 3))
    assert a.sign() == -1
    assert (a * a).coeffs == (Q(49, 9),)


def test_construction_rejects_bad_polys():
    with pytest.raises(InvalidField):
        NumberField((2, 0, 2), (1, 2))  # not monic
    with pytest.raises(InvalidField):
        NumberField((-4, 0, 1), (1, 3))  # x^2 - 4 = (x-2)(x+2)
    with pytest.raises(InvalidField):
        NumberField((4, 0, -4, 0, 1), (0, 3))  # (x^2 - 2)^2
    with pytest.raises(UnsupportedDegree):
        NumberField((-2, 0, 0, 0, 0, 1), (1, 2))  # degree 5 without the flag


def test_quartic_factorization_detected():
    # x^4 - 4 = (x^2 - 2)(x^2 + 2): no rational root, still reducible
    with pytest.raises(InvalidField):
        NumberField((-4, 0, 0, 0, 1), (1, 2))


def test_irreducible_quartic_accepted():
    # x^4 - 2 is irreducible; real root 2^(1/4) in (1, 2)
    f = NumberField((-2, 0, 0, 0, 1), (1, 2))
    a = f.alpha()
    assert (a * a * a * a).coeffs == (Q(2), Q(0), Q(0), Q(0))
    assert (a * a * a * a - 2).is_zero()


def test_asserted_degree_five():
    f = NumberField((-2, 0, 0, 0, 0, 1), (1, 2), assert_irreducible=True)
    a = f.alpha()
    assert (a * a * a * a * a - 2).is_zero()
    assert (a - 1).sign() == 1


def test_isolating_interval_checks():
    with pytest.raises(InvalidField):
        NumberField((-2, 0, 1), (-2, 2))  # two roots
    with pytest.raises(InvalidField):
        NumberField((-2, 0, 1), (2, 3))  # no root
    with pytest.raises(InvalidField):
        NumberField((-2, 0, 1), (2, 1))  # lo >= hi
    with pytest.raises(InvalidField):
        NumberField((-3, 1), (3, 4))  # root at the endpoint
    with pytest.raises(InvalidField):
        NumberField((-3, 1), (4, 5))  # degree 1, root 3 outside
    with pytest.raises(InvalidField):
        NumberField((5, 1), (-4, 0))  # degree 1, root -5 outside
    assert NumberField.rational().degree == 1


def test_sign_with_zero_bisection_cap(sqrt2, monkeypatch):
    # force the coprimality check on the first round and confirm signs stay exact
    monkeypatch.setattr(rf, "SIGN_BISECTION_CAP", 0)
    field = NumberField((-2, 0, 1), (1, 2))
    r2 = field.alpha()
    assert (r2 - Q(141421356, 100000000)).sign() == 1
    assert (r2 - Q(141421357, 100000000)).sign() == -1


def test_json_round_trip(sqrt2):
    blob = sqrt2.to_json()
    again = NumberField.from_json(blob)
    assert again == sqrt2
    e = sqrt2.element((Q(1, 2), Q(-3)))
    from preorderspace.realfield import FieldElement

    assert FieldElement.from_json(again, e.to_json()) == e
    fq = NumberField.rational()
    x = fq.from_rational(Q(5, 3))
    assert x.to_json() == "5/3"
    assert FieldElement.from_json(fq, "5/3") == x


def test_parse_rational_keeps_decimals_but_not_exponents():
    assert rf.parse_rational("-1.25") == Q(-5, 4)
    with pytest.raises(ParseError):
        rf.parse_rational("1.5E3")


def test_sign_on_reducible_min_poly_raises():
    # (x^2 - 2)(x^3 - 3) falsely asserted irreducible, alpha = sqrt2: alpha^2 - 2
    # vanishes, so no interval can settle its sign; the rank check must end it
    field = NumberField([6, 0, -3, -2, 0, 1], (Q(14, 10), Q(143, 100)),
                        assert_irreducible=True)
    # the check that ends the loop: a broken matrix fails here instead of hanging
    assert len(rf.rref(field.mul_matrix([-2, 0, 1, 0, 0]))[2]) < 5
    start = time.perf_counter()
    with pytest.raises(InvalidField):
        field.element([-2, 0, 1, 0, 0]).sign()
    assert time.perf_counter() - start < 1.0
    assert field.element([-1, 0, 0, 0, 1]).sign() == 1  # alpha^4 - 1 = 3


def test_inverse_on_reducible_min_poly_raises():
    # alpha^2 - 2 is a zero divisor of Q[x]/((x^2 - 2)(x^3 - 3)): no inverse exists,
    # and polynomial Euclid used to answer -1/2, whose product is 1 - 1/2*a^2
    field = NumberField([6, 0, -3, -2, 0, 1], (Q(14, 10), Q(143, 100)),
                        assert_irreducible=True)
    with pytest.raises(InvalidField):
        field.element([-2, 0, 1, 0, 0]).inverse()
    with pytest.raises(InvalidField):
        field.one() / field.element([-2, 0, 1, 0, 0])
    a = field.element([-1, 0, 0, 0, 1])  # alpha^4 - 1, coprime to the product
    assert a * a.inverse() == field.one()


def _integer_divisors(m: int) -> list[int]:
    m = abs(m)
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.extend((d, -d, m // d, -(m // d)))
        d += 1
    return sorted(set(out))


def irreducible_by_divisors(coeffs) -> bool:
    """Oracle: rational roots and quadratic factors by divisor enumeration of c0."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    c0 = coeffs[0]
    if c0 == 0:
        return False
    for r in _integer_divisors(c0):
        if sum(c * r ** i for i, c in enumerate(coeffs)) == 0:
            return False
    if deg <= 3:
        return True
    _, c1, c2, c3, _ = coeffs
    for b in _integer_divisors(c0):
        d = c0 // b
        disc = c3 * c3 - 4 * (c2 - b - d)
        if disc < 0 or isqrt(disc) ** 2 != disc:
            continue
        for a2 in (c3 + isqrt(disc), c3 - isqrt(disc)):
            if a2 % 2 == 0 and (a2 // 2) * d + b * (c3 - a2 // 2) == c1:
                return False
    return True


def _product(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def test_irreducibility_against_divisor_oracle():
    rng = random.Random(17)
    polys = []
    for _ in range(300):
        deg = rng.randint(2, 4)
        polys.append([rng.randint(-60, 60) for _ in range(deg)] + [1])
    for _ in range(150):
        linear = [rng.randint(-9, 9), 1]
        quad = [rng.randint(-9, 9), rng.randint(-9, 9), 1]
        polys += [_product(linear, quad), _product(linear, linear),
                  _product(quad, [rng.randint(-9, 9), rng.randint(-9, 9), 1]),
                  _product([rng.randint(1, 9), 0, 1], [rng.randint(1, 9), rng.randint(-2, 2), 1])]
    reducible = 0
    for coeffs in polys:
        expect = irreducible_by_divisors(coeffs)
        assert rf._is_irreducible_leq4(coeffs) == expect, coeffs
        reducible += not expect
    assert reducible >= 600


@pytest.mark.parametrize("min_poly, irreducible", [
    ([-10000000000000061, 0, 1], True),
    ([-100000000000000000039, 0, 1], True),
    ([-100000000000000000000, 0, 1], False),
    (_product([-10000000019, 0, 1], [7, 1, 1]), False),
    ([-100000000000000000039, 0, 0, 0, 1], True),
])
def test_irreducibility_of_large_constants_is_fast(min_poly, irreducible):
    start = time.perf_counter()
    assert rf._is_irreducible_leq4(min_poly) == irreducible
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# integer interval Horner against the rational one
# ---------------------------------------------------------------------------

def _interval_eval(coeffs, lo, hi):
    """Exact interval Horner evaluation of sum c_i x^i over x in [lo, hi] in Fractions."""
    a, b = Q(0), Q(0)
    for c in reversed(coeffs):
        products = (a * lo, a * hi, b * lo, b * hi)
        a, b = min(products) + c, max(products) + c
    return a, b


def oracle_sign(min_poly, isolating, coeffs):
    """(sign, bisections) of sum c_i alpha^i from a fresh Fraction interval."""
    if not any(coeffs):
        return 0, 0
    f = [Q(c) for c in min_poly]
    lo, hi = Q(isolating[0]), Q(isolating[1])
    rounds = 0
    while True:
        a, b = _interval_eval([Q(c) for c in coeffs], lo, hi)
        if a > 0:
            return 1, rounds
        if b < 0:
            return -1, rounds
        mid = (lo + hi) / 2
        if (_interval_eval(f, mid, mid)[0] > 0) == (_interval_eval(f, lo, lo)[0] > 0):
            lo = mid
        else:
            hi = mid
        rounds += 1


ROOT_FIELDS = {  # k: alpha = 2^(1/k)
    2: ((-2, 0, 1), (1, 2)),
    3: ((-2, 0, 0, 1), (Q(5, 4), Q(4, 3))),
    4: ((-2, 0, 0, 0, 1), (Q(1), Q(3, 2))),
}


def _iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) by integer Newton iteration from above."""
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def convergents(k: int, count: int) -> list[tuple[int, int]]:
    """The first continued-fraction convergents p/q of 2^(1/k)."""
    num, den = _iroot(2 * 10 ** (80 * k), k), 10 ** 80
    h0, h1, k0, k1 = 0, 1, 1, 0
    out = []
    while den and len(out) < count:
        a, num, den = num // den, den, num % den
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        out.append((h1, k1))
    return out


def near_zero_elements(k: int, degree: int):
    """p - q alpha for convergents p/q, as ints and as positively scaled Fractions,
    plus random small elements; sign_of_coeffs takes them cleared to integers."""
    rng = random.Random(40 + k)
    pad = [0] * (degree - 2)
    for p, q in convergents(k, 24):
        yield [p, -q] + pad
        yield [Q(-p, 7), Q(q, 7)] + pad
    for _ in range(30):
        yield [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree)]
        yield [rng.randint(-9, 9) for _ in range(degree)]


def count_refines(monkeypatch):
    calls = []
    original = NumberField._refine

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(NumberField, "_refine", counted)
    return calls


def _fraction_variations(chain, x):
    values = [sum(c * x ** i for i, c in enumerate(p)) for p in chain]
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_integer_sturm_chain_is_a_positive_multiple_of_the_fraction_chain():
    # seeded integer polynomials of degree 2..6, leads of either sign, sparse
    # ones and repeated roots included: each member is the Fraction chain's
    # member times a positive factor, primitive, so the variation counts agree.
    # A sign-blind multiplier lc(b)^k differs only where k = deg a - deg b + 1
    # is odd and lc(b) < 0, after a degree gap, which sparse polynomials make.
    rng = random.Random(113)
    odd_negative_steps = 0
    for _ in range(300):
        roots = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
        f = [rng.choice((-3, -2, -1, 1, 2, 3))]
        sparse = rng.random() < 0.5
        for _ in range(rng.randint(2, 6) - len(roots)):
            f = [0 if sparse and rng.random() < 0.6 else rng.randint(-9, 9)] + f
        for r in roots:  # times (x - r)
            f = [-r * a + b for a, b in zip(f + [0], [0] + f)]
        chain, expect = rf._sturm_chain(f), fraction_sturm_chain(f)
        assert len(chain) == len(expect) >= 2
        for member, ref in zip(chain, expect):
            assert len(member) == len(ref) and all(type(c) is int for c in member)
            assert gcd(*member) == 1 and member[-1] * ref[-1] > 0
            assert all(m * ref[-1] == r * member[-1] for m, r in zip(member, ref))
        odd_negative_steps += sum((len(a) - len(b)) % 2 == 0 and b[-1] < 0
                                  for a, b in zip(expect, expect[1:]))
        for _ in range(12):
            den = rng.choice((1, 2, 3, 8))
            a = rng.randint(-12 * den, 12 * den)
            assert rf._variations(chain, a, den) == _fraction_variations(expect, Q(a, den))
    assert odd_negative_steps >= 5


@pytest.mark.parametrize("k", sorted(ROOT_FIELDS))
def test_integer_sign_matches_rational_interval_oracle(k, monkeypatch):
    min_poly, isolating = ROOT_FIELDS[k]
    calls = count_refines(monkeypatch)
    bisected = 0
    for coeffs in near_zero_elements(k, len(min_poly) - 1):
        field = NumberField(min_poly, isolating)
        del calls[:]
        sign = field.sign_of_coeffs(rf.cleared([coeffs])[0][0])
        assert (sign, len(calls)) == oracle_sign(min_poly, isolating, coeffs), coeffs
        bisected += len(calls) > 0
    assert bisected >= 40


@pytest.mark.parametrize("k", sorted(ROOT_FIELDS))
def test_integer_sign_on_a_shared_interval(k, monkeypatch):
    # one field answers every query; its interval only narrows, so each
    # answer must still match the oracle and the refinements add up
    min_poly, isolating = ROOT_FIELDS[k]
    field = NumberField(min_poly, isolating)
    calls = count_refines(monkeypatch)
    deepest = 0
    for coeffs in near_zero_elements(k, len(min_poly) - 1):
        sign, rounds = oracle_sign(min_poly, isolating, coeffs)
        assert field.sign_of_coeffs(rf.cleared([coeffs])[0][0]) == sign
        deepest = max(deepest, rounds)
    assert len(calls) == deepest


SYMPY_ALPHA = {2: "sqrt(2)", 3: "cbrt(2)", 4: "root(2, 4)"}
SYMPY_FIELDS = {k: NumberField(*spec) for k, spec in ROOT_FIELDS.items()}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.sampled_from(sorted(ROOT_FIELDS)),
       coeffs=st.lists(st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4),
                       min_size=4, max_size=4))
def test_sign_matches_sympy(k, coeffs):
    import sympy

    alpha = sympy.sympify(SYMPY_ALPHA[k])
    coeffs = coeffs[:k]
    value = sum(sympy.Rational(c.numerator, c.denominator) * alpha ** i
                for i, c in enumerate(coeffs))
    expect = int(sympy.sign(value))
    den = lcm(*(c.denominator for c in coeffs))
    assert SYMPY_FIELDS[k].sign_of_coeffs([int(c * den) for c in coeffs]) == expect


@pytest.mark.parametrize("k", sorted(ROOT_FIELDS))
def test_near_zero_sign_matches_sympy(k):
    import sympy

    alpha = sympy.sympify(SYMPY_ALPHA[k])
    field = NumberField(*ROOT_FIELDS[k])
    for coeffs in near_zero_elements(k, k):
        value = sum(sympy.Rational(c) * alpha ** i for i, c in enumerate(coeffs))
        ints = rf.cleared([coeffs])[0][0]
        assert field.sign_of_coeffs(ints) == int(sympy.sign(value)), coeffs


# ---------------------------------------------------------------------------
# multiplication matrix against polynomial arithmetic and sympy
# ---------------------------------------------------------------------------

ARITHMETIC_FIELDS = [
    NumberField.rational(),
    *SYMPY_FIELDS.values(),
    NumberField((-2, 0, 0, 0, 0, 1), (1, 2), assert_irreducible=True),
    NumberField((-1, -2, 1, 1), (1, Q(3, 2))),  # 2cos(2 pi/7): every f_i nonzero
]
element_coeffs = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12),
                          min_size=5, max_size=5)


def _sympy_poly(coeffs):
    import sympy

    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      sympy.Symbol("x"), domain=sympy.QQ)


def _from_sympy(poly, d):
    coeffs = [Q(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return coeffs + [Q(0)] * (d - len(coeffs))


def _sympy_rem(field, poly):
    import sympy

    return _from_sympy(sympy.rem(poly, _sympy_poly([Q(c) for c in field.min_poly])), field.degree)


def _sympy_inverse(field, coeffs):
    import sympy

    f = _sympy_poly([Q(c) for c in field.min_poly])
    return _from_sympy(sympy.invert(_sympy_poly(coeffs), f), field.degree)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field=st.sampled_from(ARITHMETIC_FIELDS), a=element_coeffs, b=element_coeffs)
def test_product_matches_polynomial_reference_and_sympy(field, a, b):
    x, y = field.element(a[:field.degree]), field.element(b[:field.degree])
    product = list((x * y).coeffs)
    assert product == reference_mul(field, x.coeffs, y.coeffs)
    assert product == _sympy_rem(field, _sympy_poly(x.coeffs) * _sympy_poly(y.coeffs))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field=st.sampled_from(ARITHMETIC_FIELDS), a=element_coeffs, b=element_coeffs)
def test_inverse_and_quotient_match_polynomial_reference_and_sympy(field, a, b):
    x, y = field.element(a[:field.degree]), field.element(b[:field.degree])
    if y.is_zero():
        with pytest.raises(DivisionByZero):
            y.inverse()
        return
    inverse = list(y.inverse().coeffs)
    assert inverse == reference_inverse(field, y.coeffs) == _sympy_inverse(field, y.coeffs)
    quotient = list((x / y).coeffs)
    assert quotient == reference_mul(field, x.coeffs, inverse)
    assert quotient == _sympy_rem(field, _sympy_poly(x.coeffs) * _sympy_poly(inverse))
    assert (x / y) * y == x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field=st.sampled_from(ARITHMETIC_FIELDS), c=element_coeffs)
def test_mul_matrix_columns_are_the_products_with_powers_of_alpha(field, c):
    d = field.degree
    c = c[:d]
    m = field.mul_matrix(c)
    assert len(m) == d and all(len(row) == d for row in m)
    for k in range(d):
        power = [Q(int(i == k)) for i in range(d)]
        column = [row[k] for row in m]
        assert column == reference_mul(field, c, power)
        assert column == _sympy_rem(field, _sympy_poly(c) * _sympy_poly(power))


def test_mul_matrix_takes_no_field_products(monkeypatch):
    def refuse(self, other):
        raise AssertionError("mul_matrix multiplied field elements")

    monkeypatch.setattr(rf.FieldElement, "__mul__", refuse)
    for field in ARITHMETIC_FIELDS:
        field.mul_matrix([Q(k + 1, 3) for k in range(field.degree)])


# ---------------------------------------------------------------------------
# the inversion primitive: adj(M_x) and the norm N(x) = det M_x
# ---------------------------------------------------------------------------

NORM_FIELDS = {
    "Q": NumberField.rational(),
    "sqrt2": NumberField((-2, 0, 1), (1, 2)),
    "cbrt2": NumberField((-2, 0, 0, 1), (1, 2)),
    "root4_2": NumberField((-2, 0, 0, 0, 1), (1, 2)),
    "root5_2": NumberField((-2, 0, 0, 0, 0, 1), (1, 2), assert_irreducible=True),
}
# (x^2 - 2)(x^3 - 3) falsely asserted irreducible, alpha = sqrt2
REDUCIBLE = NumberField((6, 0, -3, -2, 0, 1), (Q(7, 5), Q(143, 100)), assert_irreducible=True)


def _random_nonzero_ints(rng, d, bound):
    while True:
        c = [rng.randint(-bound, bound) for _ in range(d)]
        if any(c):
            return c


@pytest.mark.parametrize("name", NORM_FIELDS)
def test_adjugate_times_the_matrix_is_the_norm_times_identity(name):
    import sympy

    field = NORM_FIELDS[name]
    d = field.degree
    rng = random.Random(101 + d)
    for bound in (1, 3, 40, 10**6):
        for _ in range(12):
            c = _random_nonzero_ints(rng, d, bound)
            m = field.mul_matrix(c)
            adj, norm = adjugate(field, c)
            assert norm == sympy.Matrix(m).det() != 0
            assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)] for row in m] \
                == [[norm * int(i == j) for j in range(d)] for i in range(d)]
            # adj is the multiplication matrix of its cofactor column, N / x
            assert adj == field.mul_matrix([row[0] for row in adj])


@pytest.mark.parametrize("name", NORM_FIELDS)
def test_inverse_agrees_with_the_solve_against_the_multiplication_matrix(name):
    field = NORM_FIELDS[name]
    d = field.degree
    rng = random.Random(211 + d)
    for _ in range(40):
        x = field.element([Q(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(d)])
        if x.is_zero():
            continue
        y, den = rf.solve(field.mul_matrix(x.coeffs), [[1]] + [[0]] * (d - 1))
        assert x.inverse().coeffs == tuple(Q(row[0], den) for row in y)


def test_a_zero_divisor_has_no_adjugate_or_inverse():
    zero_divisor = [-3, 0, 0, 1, 0]  # alpha^3 - 3, nonzero at sqrt2 but a factor of min_poly
    with pytest.raises(InvalidField):
        adjugate(REDUCIBLE, zero_divisor)
    with pytest.raises(InvalidField):
        REDUCIBLE.element(zero_divisor).inverse()


def test_division_by_zero_and_wrong_lengths_are_typed_at_the_primitive():
    for field in (NORM_FIELDS["Q"], NORM_FIELDS["sqrt2"]):
        d = field.degree
        with pytest.raises(DivisionByZero):
            adjugate(field, [0] * d)
        with pytest.raises(DivisionByZero):
            field.divide([[1, 2]] * d, [0] * d)
        with pytest.raises(DivisionByZero):
            field.zero().inverse()
        for layers in ([[1, 2]] * (d + 1), []):
            with pytest.raises(DimensionMismatch):
                field.divide(layers, [1] * d)
        for wrong in ([1] * (d - 1), [1, 2, 3][:d + 1]):
            message = f"expected {d} coefficients, got {len(wrong)}"
            with pytest.raises(FieldMismatch, match=message):
                FieldElement(field, wrong)
            with pytest.raises(FieldMismatch, match=message):
                field.mul_matrix(wrong)
            with pytest.raises(FieldMismatch, match=message):
                adjugate(field, wrong)
            with pytest.raises(FieldMismatch, match=message):
                field.divide([[1]] * d, wrong)
    with pytest.raises(DimensionMismatch):  # ragged layers
        NORM_FIELDS["sqrt2"].divide([[1, 2], [3]], [1, 1])


@pytest.mark.parametrize("name", NORM_FIELDS)
def test_divide_matches_the_norm_and_the_euclidean_inverse(name):
    import sympy

    field = NORM_FIELDS[name]
    d = field.degree
    rng = random.Random(307 + d)
    for n in range(1, 6):
        for bound in (1, 9, 10**5):
            c = _random_nonzero_ints(rng, d, bound)
            layers = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(d)]
            m = field.mul_matrix(c)
            z, norm = field.divide(layers, c)
            assert norm == sympy.Matrix(m).det() != 0
            assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*z)] for row in m] \
                == [[norm * x for x in layer] for layer in layers]
            inverse = reference_inverse(field, [Q(x) for x in c])
            for j in range(n):
                entry = [Q(layer[j]) for layer in layers]
                assert [Q(row[j], norm) for row in z] == reference_mul(field, entry, inverse)


# ---------------------------------------------------------------------------
# printing from integers over one denominator
# ---------------------------------------------------------------------------

def _fraction_coeffs_str(coeffs):
    # the Fraction formatting that coeffs_str reproduces from integers
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            var = "a" if i == 1 else f"a^{i}"
            parts.append(("-" if c < 0 else ("+" if parts else "")) + mag + var)
    return "".join(parts) or "0"


def test_integer_printing_matches_fraction_printing():
    rng = random.Random(307)
    for _ in range(600):
        d = rng.randint(1, 5)
        bound = rng.choice((1, 2, 9, 10**12))
        coeffs = [Q(rng.choice((0, rng.randint(-bound, bound))), rng.randint(1, bound))
                  for _ in range(d)]
        (ints,), den = rf.cleared([coeffs])
        k = rng.randint(1, 6)  # a common denominator that is not the least one
        for top, bottom in ((ints, den), ([k * x for x in ints], k * den)):
            assert rf.coeffs_str(top, bottom) == _fraction_coeffs_str(coeffs)
            assert rf.coeffs_json(top, bottom) == (str(coeffs[0]) if d == 1
                                                   else [str(c) for c in coeffs])


UNREADABLE = ["x", "1/0", None, float("nan"), float("inf"), float("-inf")]


def entry_points(bad):
    """Each public entry point that reads rationals, fed bad in one place."""
    p = from_rows([], 2)
    subspace = RationalSubspace(2, [[1, 0]])
    return {
        "sign_of": lambda: p.sign_of([bad, 1]),
        "compare": lambda: p.compare([bad, 1], [0, 0]),
        "element": lambda: NumberField.rational().element([bad]),
        "from_rationals": lambda: FieldVector.from_rationals(NumberField.rational(), [bad]),
        "automorphism": lambda: Automorphism([[bad, 0], [0, 1]]),
        "image": lambda: Automorphism.identity(2).image([bad, 1]),
        "subspace": lambda: RationalSubspace(2, [[bad, 0]]),
        "contains": lambda: subspace.contains([bad, 0]),
        "isolating": lambda: NumberField((-2, 0, 1), (bad, 2)),
    }


@pytest.mark.parametrize("name", sorted(entry_points(0)))
@pytest.mark.parametrize("bad", UNREADABLE, ids=repr)
def test_unreadable_rationals_are_range_errors(name, bad):
    with pytest.raises(RangeError, match="not a rational number"):
        entry_points(bad)[name]()


# n = 2 throughout, so the last has the wrong length
BAD_POINTS = [(5, RangeError), (None, RangeError), ("12", RangeError),
              ((1, 2, 3), DimensionMismatch)]
BAD_DIMENSIONS = [(None, RangeError), ("12", RangeError), (2.5, RangeError),
                  (-1, DimensionMismatch)]


def vector_entry_points(bad):
    """Each public entry point that reads a vector, a point or a row of length 2
    (realfield.rational_vector, integer_point, cleared, Preorder.check_row), fed
    bad there."""
    field = NumberField.rational()
    sqrt2 = NumberField((-2, 0, 1), (1, 2))
    p = from_rows([FieldVector.from_rationals(field, [1, 0])], 2, field=field)
    r = from_rows([], 1, field=field)
    row = FieldVector.from_rationals(field, bad) if isinstance(bad, tuple) else bad
    cf = CoefficientField.rationals()
    return {
        "sign_of": lambda: p.sign_of(bad),
        "in_O": lambda: p.in_O(bad),
        "in_U": lambda: p.in_U(bad),
        "compare_u": lambda: p.compare(bad, [0, 0]),
        "compare_v": lambda: p.compare([0, 0], bad),
        "dot": lambda: p.rows[0].dot(bad),
        "image": lambda: Automorphism.identity(2).image(bad),
        "subspace": lambda: RationalSubspace(2, [bad]),
        "contains": lambda: RationalSubspace(2, [[1, 0]]).contains(bad),
        "kernel": lambda: RationalSubspace.kernel([bad], 2),
        "compose_basis": lambda: compose(p, r, [bad]),
        "fingerprint_sign": lambda: fingerprint(p, 3).sign(bad),
        "of_exponent": lambda: Value.of_exponent(p, bad),
        "laurent_exponent": lambda: LaurentPolynomial(cf, 2, {bad: 1}),
        "monomial": lambda: LaurentPolynomial.monomial(cf, 2, bad),
        "from_rows": lambda: from_rows([row], 2, field=field),
        "from_rows_field": lambda: from_rows([row], 2),
        "fragment": lambda: enumerate_fragment([row], 2, 1),
        "automorphism_row": lambda: Automorphism([bad, (0, 1)]),
        "rref_row": lambda: rf.rref([bad, (0, 1)]),
        "layer": lambda: FieldVector.from_layers(sqrt2, [bad, (0, 1)]),
    }


def container_entry_points(bad):
    """Each public entry point that reads a container of rows, vectors,
    rationals or terms, fed bad as the whole container."""
    sqrt2 = NumberField((-2, 0, 1), (1, 2))
    field = NumberField.rational()
    p = from_rows([FieldVector.from_rationals(field, [1, 0])], 2, field=field)
    r = from_rows([], 1, field=field)
    return {
        "cleared": lambda: rf.cleared(bad),
        "rref": lambda: rf.rref(bad),
        "automorphism": lambda: Automorphism(bad),
        "element": lambda: sqrt2.element(bad),
        "from_rationals": lambda: FieldVector.from_rationals(sqrt2, bad),
        "subspace": lambda: RationalSubspace(2, bad),
        "kernel": lambda: RationalSubspace.kernel(bad, 2),
        "from_rows": lambda: from_rows(bad, 2),
        "fragment": lambda: enumerate_fragment(bad, 2, 1),
        "laurent_terms": lambda: LaurentPolynomial(CoefficientField.rationals(), 2, bad),
        "compose_basis": lambda: compose(p, r, bad),
        "quotient": lambda: quotient(p, bad),
    }


def object_entry_points(bad):
    """Each public entry point that reads a preorder (Preorder.check_peer) as
    its second argument, fed bad there."""
    field = NumberField.rational()
    p = from_rows([FieldVector.from_rationals(field, [1, 0])], 2, field=field)
    return {
        "check_peer": lambda: p.check_peer(bad),
        "meet": lambda: meet(p, bad),
        "refines": lambda: refines(p, bad),
        "distance": lambda: distance(p, bad, 2),
        "first_disagreement_level": lambda: first_disagreement_level(p, bad, 1),
        "orbit_witness": lambda: orbit_witness(p, bad),
    }


def preorder_entry_points(bad):
    """Each public entry point of lattice and valuation that reads a preorder
    (check_preorders) as its first argument, or as r in compose, fed bad there."""
    field = NumberField.rational()
    p = from_rows([FieldVector.from_rationals(field, [1, 0])], 2, field=field)
    r = from_rows([], 1, field=field)
    f = LaurentPolynomial.monomial(CoefficientField.rationals(), 2, (1, 0))
    return {
        "compose": lambda: compose(bad, r, [(0, 1)]),
        "compose_residue": lambda: compose(p, bad, [(0, 1)]),
        "decompose": lambda: decompose(bad, 0),
        "quotient": lambda: quotient(bad, [(0, 1)]),
        "valuate": lambda: valuate(bad, f),
        "initial_form": lambda: initial_form(bad, f),
        "check_composition": lambda: check_composition(bad, 0, f),
    }


def dimension_entry_points(n):
    """Each public entry point that reads a dimension (realfield.dimension), fed n."""
    cf = CoefficientField.rationals()
    return {
        "subspace": lambda: RationalSubspace(n, []),
        "kernel": lambda: RationalSubspace.kernel([], n),
        "full": lambda: RationalSubspace.full(n),
        "zero": lambda: RationalSubspace.zero(n),
        "from_rows": lambda: from_rows([], n),
        "laurent": lambda: LaurentPolynomial(cf, n, {}),
        "monomial": lambda: LaurentPolynomial.monomial(cf, n, (0, 0)),
        "identity": lambda: Automorphism.identity(n),
        "scalar": lambda: Automorphism.scalar(n, 2),
    }


def misreads(calls: dict, error) -> list[str]:
    """The names of the calls that do not raise error, with what they did instead."""
    wrong = []
    for name, call in calls.items():
        try:
            got = call()
        except error:
            continue
        except Exception as exc:  # any other outcome is reported
            got = exc
        wrong.append(f"{name}: {got!r}")
    return wrong


@pytest.mark.parametrize("bad, error", BAD_POINTS, ids=[repr(b) for b, _ in BAD_POINTS])
def test_bad_vectors_points_and_rows_are_typed_errors(bad, error):
    # a str is not read one character at a time, nor a non-sequence as a bare TypeError
    assert misreads(vector_entry_points(bad), error) == []


@pytest.mark.parametrize("bad", [5, None, "12"], ids=repr)
def test_bad_containers_are_range_errors(bad):
    # a str is not read one character at a time, nor a non-container as a bare Python error
    assert misreads(container_entry_points(bad), RangeError) == []


@pytest.mark.parametrize("bad", [5, None, [(0, 1)]], ids=repr)
def test_objects_of_another_kind_are_range_errors(bad):
    # not a bare AttributeError on the missing .field or .n
    assert misreads(object_entry_points(bad), RangeError) == []


@pytest.mark.parametrize("bad", [5, None, [(0, 1)], FieldVector.from_rationals(
    NumberField.rational(), [1, 0])], ids=["5", "None", "rows", "row"])
def test_preorders_of_another_kind_are_range_errors(bad):
    # not a bare AttributeError on the missing .field, .n or .rank, whatever else is read first
    assert misreads(preorder_entry_points(bad), RangeError) == []


def test_a_producer_of_rows_raises_its_own_error():
    # cleared lists its rows before reading any rational, so a DimensionMismatch
    # raised by the generator that yields them is not relabelled RangeError
    rows = (rf.rational_vector(v, 2)[0] for v in ([1, 2], [1, 2, 3]))
    with pytest.raises(DimensionMismatch):
        rf.cleared(rows)


@pytest.mark.parametrize("n, error", BAD_DIMENSIONS, ids=[repr(n) for n, _ in BAD_DIMENSIONS])
def test_bad_dimensions_are_typed_errors(n, error):
    assert misreads(dimension_entry_points(n), error) == []


@pytest.mark.parametrize("build, error", [
    (lambda: CoefficientField.prime(2.5), RangeError),
    (lambda: CoefficientField.prime("7"), RangeError),
    (lambda: CoefficientField.prime(True), RangeError),
    (lambda: NumberField(["a", 1], (-1, 1)), InvalidField),
    (lambda: NumberField(None, (-1, 1)), InvalidField),
    (lambda: NumberField((-2, 0, 1), 3), RangeError),
    (lambda: NumberField((-2, 0, 1), (1,)), DimensionMismatch),
    (lambda: NumberField((-2, 0, 1), (1, 2)).element([1, 2, 3]), FieldMismatch),
], ids=["prime_float", "prime_str", "prime_bool", "min_poly_str", "min_poly_none",
        "interval_int", "interval_short", "element_long"])
def test_bad_moduli_and_fields_are_typed_errors(build, error):
    with pytest.raises(error):
        build()


def test_readable_values_still_pass_the_entry_points():
    p = from_rows([], 2)
    assert p.compare(["1/2", 1.5], [0, Q(3, 2)]) == Sign.ZERO
    assert RationalSubspace(2, [[1, 0]]).contains(["3/4", 0])
    assert not RationalSubspace(2, [[1, 0]]).contains([0, 0.5])
    assert Automorphism([["1/2", 0], [0, 1]]).image([1, "2/3"]) == (Q(1, 2), Q(2, 3))
    assert NumberField((-2, 0, 1), ("1", 2.0)).isolating == (1, 2)
    assert NumberField((-2.0, Q(0), True), (1, 2, 3)).min_poly == (-2, 0, 1)
    assert p.sign_of(range(2)) == Sign.ZERO and p.compare((Q(1, 3), 1), [Q(1, 3), "1"]) == 0
    assert LaurentPolynomial.monomial(CoefficientField.rationals(), 2, [Q(2), -1]).terms == \
        {(2, -1): 1}
    assert rf.cleared([[1, Q(1, 2)], ["1/3"], []]) == ([[6, 3], [2], []], 6)
    # tuples, ranges and generators are sequences
    assert rf.cleared(((1, Q(1, 2)), range(2), (x for x in ["1/3"]))) == \
        ([[6, 3], [0, 6], [2]], 6)
    assert FieldVector.from_rationals(NumberField.rational(), (x for x in (1, "1/2"))) == \
        FieldVector.from_layers(NumberField.rational(), [[2, 1]], 2)
    # a vector may be a generator too, as an exponent or a row may
    q = from_rows([FieldVector.from_rationals(NumberField.rational(), [1, -1])], 2)
    assert q.sign_of(x for x in (1, 2)) == Sign.NEG and q.sign_of(iter(["1/2", 0])) == Sign.POS
    # bools and integral Fractions come out as ints, and rows of ints as read, over 1
    ints, den = rf.cleared([[True, Q(4, 2)], (False,), range(2)])
    assert (ints, den) == ([[1, 2], [0], [0, 1]], 1)
    assert {type(x) for row in ints for x in row} == {int}
