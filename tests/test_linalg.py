import random
from fractions import Fraction as Q

import pytest

from preorderspace import (
    Automorphism,
    DimensionMismatch,
    FieldVector,
    NumberField,
    RationalSubspace,
    SingularMatrix,
    project,
    rational_kernel,
)
from preorderspace.linalg import mat_inverse, nullspace_basis, rref
from elimination_reference import fraction_inverse, fraction_rref, two_pass_nullspace
from gram_reference import gram_project


@pytest.fixture(scope="module")
def sqrt2():
    return NumberField((-2, 0, 1), (1, 2))


def fv(field, *entries):
    return FieldVector.from_rationals(field, entries)


def test_kernel_of_irrational_row_is_zero(sqrt2):
    row = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))
    assert rational_kernel([row], 2).dim == 0


def test_kernel_of_ones(sqrt2):
    k = rational_kernel([fv(sqrt2, 1, 1)], 2)
    assert k.basis == ((Q(1), Q(-1)),)


def test_kernel_stacked_layers(sqrt2):
    row = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha(), sqrt2.zero()))
    k = rational_kernel([row], 3)
    assert k.basis == ((Q(0), Q(0), Q(1)),)


def test_kernel_monotone_under_rows(sqrt2):
    rng = random.Random(3)
    for _ in range(25):
        n = rng.choice((2, 3, 4))
        rows = []
        prev = RationalSubspace.full(n)
        for _ in range(rng.randint(1, n)):
            rows.append(FieldVector(sqrt2, tuple(
                sqrt2.element([Q(rng.randint(-3, 3)), Q(rng.randint(-2, 2))])
                for _ in range(n))))
            cur = rational_kernel(rows, n)
            assert all(prev.contains(b) for b in cur.basis)
            prev = cur


def test_project_identity_and_coordinates(sqrt2):
    v = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))
    assert project(v, RationalSubspace.full(2)) == v
    axis = RationalSubspace.from_spanning([(0, 1)], 2)
    assert project(v, axis) == FieldVector(sqrt2, (sqrt2.zero(), sqrt2.alpha()))


def test_project_gram_example(sqrt2):
    # onto span{(1,-1,0),(0,0,1)}: (1,0,sqrt2) -> (1/2,-1/2,sqrt2)
    w = RationalSubspace.from_spanning([(1, -1, 0), (0, 0, 1)], 3)
    v = FieldVector(sqrt2, (sqrt2.one(), sqrt2.zero(), sqrt2.alpha()))
    expect = FieldVector(sqrt2, (sqrt2.from_rational(Q(1, 2)),
                                 sqrt2.from_rational(Q(-1, 2)), sqrt2.alpha()))
    assert project(v, w) == expect
    # (1,1,sqrt2) is orthogonal to (1,-1,0), so only the last axis survives
    v2 = FieldVector(sqrt2, (sqrt2.one(), sqrt2.one(), sqrt2.alpha()))
    assert project(v2, w) == FieldVector(sqrt2, (sqrt2.zero(), sqrt2.zero(), sqrt2.alpha()))


def test_project_idempotent_random(sqrt2):
    rng = random.Random(9)
    for _ in range(25):
        n = rng.choice((2, 3))
        w = RationalSubspace.from_spanning(
            [tuple(Q(rng.randint(-3, 3)) for _ in range(n)) for _ in range(rng.randint(0, n))], n)
        v = FieldVector(sqrt2, tuple(
            sqrt2.element([Q(rng.randint(-3, 3)), Q(rng.randint(-2, 2))]) for _ in range(n)))
        once = project(v, w)
        assert project(once, w) == once
    # members project to themselves
    w = RationalSubspace.from_spanning([(1, 2), (0, 0)], 2)
    member = fv(sqrt2, 2, 4)
    assert project(member, w) == member


ORACLE_FIELDS = [NumberField.rational(), NumberField((-2, 0, 1), (1, 2)),
                 NumberField((-2, 0, 0, 1), (1, 2)), NumberField((-2, 0, 0, 0, 1), (1, 2))]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["Q", "sqrt2", "cbrt2", "qrt2"])
@pytest.mark.parametrize("n", range(6))
def test_project_matches_gram_oracle(field, n):
    rng = random.Random(100 * field.degree + n)
    spaces = [RationalSubspace.zero(n), RationalSubspace.full(n)]
    spaces += [RationalSubspace.from_spanning(
        [tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
         for _ in range(rng.randint(1, n))] if n else [], n) for _ in range(8)]
    for w in spaces:
        for _ in range(3):
            v = FieldVector.from_layers(field, [[Q(rng.randint(-4, 4), rng.randint(1, 3))
                                                 for _ in range(n)] for _ in range(field.degree)])
            assert project(v, w) == gram_project(v, w)


def test_dot(sqrt2):
    v = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))
    assert v.dot((1, -1)) == sqrt2.one() - sqrt2.alpha()
    with pytest.raises(DimensionMismatch):
        v.dot((1, 2, 3))


def test_intersections(sqrt2):
    full = RationalSubspace.full(2)
    w = RationalSubspace.from_spanning([(1, 5)], 2)
    assert w.intersect(full) == w
    x = RationalSubspace.from_spanning([(1, 0)], 2)
    y = RationalSubspace.from_spanning([(0, 1)], 2)
    assert x.intersect(y).dim == 0


def test_dimension_formula_random():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.choice((3, 4))
        mk = lambda: RationalSubspace.from_spanning(
            [tuple(Q(rng.randint(-2, 2)) for _ in range(n))
             for _ in range(rng.randint(0, n))], n)
        a, b = mk(), mk()
        assert a.intersect(b).dim + RationalSubspace(n, a.basis + b.basis).dim == a.dim + b.dim


def test_canonical_equality():
    w1 = RationalSubspace.from_spanning([(2, 2), (1, 0)], 2)
    w2 = RationalSubspace.from_spanning([(1, 0), (0, 3)], 2)
    assert w1 == w2 == RationalSubspace.full(2)


def test_coords_pivot_reading():
    w = RationalSubspace.from_spanning([(1, 0, Q(3, 2)), (0, 1, -1)], 3)
    t = w.coords((2, 1, 2))
    assert t == (Q(2), Q(1))
    with pytest.raises(DimensionMismatch):
        w.coords((1, 0, 0))


def test_coords_and_contains_on_a_short_vector():
    w = RationalSubspace.from_spanning([(0, 0, 1)], 3)
    for short in [(1,), (0, 0), ()]:
        with pytest.raises(DimensionMismatch):
            w.contains(short)
        with pytest.raises(DimensionMismatch):
            w.coords(short)


LAYER_FIELDS = [NumberField((-2, 0, 0, 1), (1, 2)), NumberField((-2, 0, 0, 0, 1), (1, 2))]


@pytest.mark.parametrize("field", LAYER_FIELDS, ids=["cbrt2", "qrt2"])
@pytest.mark.parametrize("n", range(5))
def test_layers_round_trip_and_scale(field, n):
    rng = random.Random(100 + n)
    for _ in range(10):
        v = FieldVector(field, tuple(
            field.element([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)])
            for _ in range(n)))
        assert v.n == n and len(v.layers()) == field.degree
        assert FieldVector(field, v.entries) == v
        assert FieldVector.from_layers(field, v.layers()) == v
        assert hash(FieldVector.from_layers(field, v.layers())) == hash(v)
        mu = field.element([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)])
        assert v.scale(mu) == FieldVector(field, tuple(e * mu for e in v.entries))
        assert v.scale(Q(-3, 2)).entries == tuple(e * Q(-3, 2) for e in v.entries)
        m = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        mapped = tuple(sum((c * e for c, e in zip(row, v.entries)), field.zero()) for row in m)
        assert v.map_layers(m) == FieldVector(field, mapped)
        q = [rng.randint(-3, 3) for _ in range(n)]
        assert v.dot(q) == sum((c * e for c, e in zip(q, v.entries)), field.zero())
    with pytest.raises(DimensionMismatch):
        FieldVector.from_layers(field, v.layers()[1:])


@pytest.mark.parametrize("field", [NumberField((-2, 0, 1), (1, 2))] + LAYER_FIELDS,
                         ids=["sqrt2", "cbrt2", "qrt2"])
@pytest.mark.parametrize("n", range(5))
def test_sign_at_matches_dot(field, n):
    rng = random.Random(200 + n)
    alpha = field.alpha()
    rows = [FieldVector(field, tuple(
        field.element([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)])
        for _ in range(n))) for _ in range(10)]
    if n >= 2:
        # alpha = 2^(1/d); (1, alpha, ...) against (p, -q, ...) for p/q near alpha
        # gives a near-zero dot product
        rows.append(FieldVector(field, (field.one(), alpha) + (field.zero(),) * (n - 2)))
    for v in rows:
        for _ in range(20):
            u = [rng.randint(-9, 9) for _ in range(n)]
            assert v.sign_at(u) == v.dot(u).sign()
        if n >= 2:
            for q in (12, 29, 70, 169, 408, 985):
                u = [round(q * 2 ** (1 / field.degree)), -q] + [0] * (n - 2)
                assert v.sign_at(u) == v.dot(u).sign()
    with pytest.raises(DimensionMismatch):
        rows[0].sign_at([0] * (n + 1))


def test_add_lengths_differ(sqrt2):
    a, b = fv(sqrt2, 1, 2), fv(sqrt2, 1, 2, 3)
    assert a.add(a) == fv(sqrt2, 2, 4)
    with pytest.raises(DimensionMismatch):
        a.add(b)
    with pytest.raises(DimensionMismatch):
        b.add(a)


def _sympy_matrix(rows, n):
    import sympy
    return sympy.Matrix(len(rows), n, [sympy.Rational(x.numerator, x.denominator)
                                       for r in rows for x in r])


def _from_sympy(vectors):
    return [[Q(int(x.p), int(x.q)) for x in v] for v in vectors]


def _elimination_cases(n):
    """Constraint lists on Q^n: empty, zero, repeated, full-rank, tall, with denominators."""
    rng = random.Random(300 + n)

    def rand_row(den):
        return [Q(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(n)]

    cases = [[], [[Q(0)] * n], [[Q(0)] * n] * 3]
    for den in (1, 4):
        r = rand_row(den)
        cases.append([r, r, [2 * x for x in r], [Q(0)] * n])
        # strictly diagonally dominant, hence of full rank
        square = [rand_row(den) for _ in range(n)]
        for i, row in enumerate(square):
            row[i] = 1 + sum(abs(x) for x in row)
        cases.append(square)
        cases.append([rand_row(den) for _ in range(n + 2)])
        # square and singular: the last row is a combination of the others
        rows = [rand_row(den) for _ in range(n - 1)]
        coeffs = [rng.randint(-2, 2) for _ in rows]
        cases.append(rows + [[sum((c * r[t] for c, r in zip(coeffs, rows)), Q(0))
                              for t in range(n)]] if n else [])
        for k in range(1, n + 1):
            cases.append([rand_row(den) for _ in range(k)])
        # rank-deficient: later rows are combinations of the first two
        a, b = rand_row(den), rand_row(den)
        cases.append([a, b] + [[rng.randint(-2, 2) * x + Q(1, rng.randint(1, 3)) * y
                                for x, y in zip(a, b)] for _ in range(n)])
    return cases


@pytest.mark.parametrize("n", range(7))
def test_rref_matches_fraction_oracle_and_sympy(n):
    for rows in _elimination_cases(n):
        red, pivots = rref(rows)
        assert (red, pivots) == fraction_rref(rows)
        assert all(type(x) is Q for row in red for x in row)
        if rows and n:
            expect, expect_pivots = _sympy_matrix(rows, n).rref()
            assert pivots == list(expect_pivots)
            assert red == _from_sympy(expect.tolist()[:len(pivots)])


@pytest.mark.parametrize("n", range(7))
def test_nullspace_matches_two_pass_oracle_and_sympy(n):
    for rows in _elimination_cases(n):
        basis = nullspace_basis(rows, n)
        assert basis == two_pass_nullspace(rows, n)
        assert all(type(x) is Q for v in basis for x in v)
        assert len(basis) == n - len(rref(rows)[1])
        if rows and n:
            kernel = [list(v) for v in _sympy_matrix(rows, n).nullspace()]
            assert basis == [tuple(r) for r in fraction_rref(_from_sympy(kernel))[0]]


@pytest.mark.parametrize("n", range(7))
def test_mat_inverse_matches_oracles(n):
    for rows in _elimination_cases(n):
        if len(rows) != n:
            continue
        invertible = len(rref(rows)[1]) == n
        expect = fraction_inverse(rows)
        assert invertible == (expect is not None)
        if n:
            assert invertible == (_sympy_matrix(rows, n).det() != 0)
        if invertible:
            assert mat_inverse(rows) == expect
            if n:
                assert mat_inverse(rows) == _from_sympy(_sympy_matrix(rows, n).inv().tolist())
            assert Automorphism(rows).n == n
        else:
            with pytest.raises(SingularMatrix):
                mat_inverse(rows)
            with pytest.raises(SingularMatrix):
                Automorphism(rows)
