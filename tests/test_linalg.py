import random
import time
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preorderspace import (
    Automorphism,
    DimensionMismatch,
    DivisionByZero,
    FieldVector,
    NumberField,
    RangeError,
    RationalSubspace,
    SingularMatrix,
    decompose,
    from_rows,
    project,
    rational_kernel,
)
from preorderspace.linalg import (_joint_primitive, map_layers, nullspace_basis, orthogonal_basis,
                                  reject, rref)
from preorderspace.realfield import cleared, solve
from elimination_reference import fraction_inverse, fraction_rref, two_pass_nullspace
from gram_reference import gram_project
from shared import fv


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
    axis = RationalSubspace(2, [(0, 1)])
    assert project(v, axis) == FieldVector(sqrt2, (sqrt2.zero(), sqrt2.alpha()))


def test_project_gram_example(sqrt2):
    # onto span{(1,-1,0),(0,0,1)}: (1,0,sqrt2) -> (1/2,-1/2,sqrt2)
    w = RationalSubspace(3, [(1, -1, 0), (0, 0, 1)])
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
        w = RationalSubspace(
            n, [tuple(Q(rng.randint(-3, 3)) for _ in range(n)) for _ in range(rng.randint(0, n))])
        v = FieldVector(sqrt2, tuple(
            sqrt2.element([Q(rng.randint(-3, 3)), Q(rng.randint(-2, 2))]) for _ in range(n)))
        once = project(v, w)
        assert project(once, w) == once
    # members project to themselves
    w = RationalSubspace(2, [(1, 2), (0, 0)])
    member = fv(sqrt2, 2, 4)
    assert project(member, w) == member


ORACLE_FIELDS = [NumberField.rational(), NumberField((-2, 0, 1), (1, 2)),
                 NumberField((-2, 0, 0, 1), (1, 2)), NumberField((-2, 0, 0, 0, 1), (1, 2))]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["Q", "sqrt2", "cbrt2", "qrt2"])
@pytest.mark.parametrize("n", range(6))
def test_project_matches_gram_oracle(field, n):
    rng = random.Random(100 * field.degree + n)
    spaces = [RationalSubspace.zero(n), RationalSubspace.full(n)]
    spaces += [RationalSubspace(
        n, [tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            for _ in range(rng.randint(1, n))] if n else []) for _ in range(8)]
    for w in spaces:
        for _ in range(3):
            v = FieldVector.from_layers(field, [[Q(rng.randint(-4, 4), rng.randint(1, 3))
                                                 for _ in range(n)] for _ in range(field.degree)])
            assert project(v, w) == gram_project(v, w)


def test_joint_primitive_divides_only_by_a_gcd_above_one():
    zero, prime = ((0, 0), (0, 0)), ((2, 4), (3, 0))
    assert _joint_primitive(zero) is zero  # g = 0
    assert _joint_primitive(prime) is prime  # g = 1
    assert _joint_primitive([(6, -12), (0, 18)]) == [[1, -2], [0, 3]]  # g = 6
    assert _joint_primitive([(-4,), (0,)]) == [[-1], [0]]  # a positive factor


@pytest.mark.parametrize("field", ORACLE_FIELDS[:2] + ORACLE_FIELDS[3:], ids=["Q", "sqrt2", "qrt2"])
@pytest.mark.parametrize("n", range(1, 6))
def test_reject_is_an_integer_projection_with_one_factor(field, n):
    # out is all ints and jointly primitive, and out = Pv / c for one c > 0 shared
    # by all layers, Pv the projection of the layers
    rng = random.Random(200 * field.degree + n)
    for _ in range(8):
        w = RationalSubspace(
            n, [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(rng.randint(1, n))])
        complement = orthogonal_basis(nullspace_basis(w.ints, n)[0])
        layers = [[rng.choice((0, rng.randint(-5, 5))) for _ in range(n)]
                  for _ in range(field.degree)]
        out = reject(layers, complement)
        flat = [x for layer in out for x in layer]
        assert all(type(x) is int for x in flat) and len(flat) == n * field.degree
        assert gcd(*flat) in ((1,) if any(flat) else (0,))
        expected = [x for layer in gram_project(FieldVector.from_layers(field, layers), w).layers()
                    for x in layer]
        c = next((e / x for e, x in zip(expected, flat) if x), Q(1))
        assert c > 0 and [c * x for x in flat] == expected


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["Q", "sqrt2", "cbrt2", "qrt2"])
def test_project_onto_zero_or_an_orthogonal_span_is_zero(field):
    a = field.alpha()
    zero = FieldVector(field, (field.zero(),) * 3)
    v = FieldVector(field, (a, a, field.one()))
    # the zero space, and a span orthogonal to every layer of v
    for w in (RationalSubspace.zero(3), RationalSubspace(3, [(1, -1, 0)])):
        assert project(v, w) == zero and project(zero, w) == zero


def test_dot(sqrt2):
    v = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))
    assert v.dot((1, -1)) == sqrt2.one() - sqrt2.alpha()
    with pytest.raises(DimensionMismatch):
        v.dot((1, 2, 3))


def test_dot_reads_what_sign_of_reads(sqrt2):
    # a float or a rational string is read as the rational it denotes, as sign_of reads it
    v = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha(), sqrt2.from_rational(-3)))
    p = from_rows([v], 3, field=sqrt2)
    expect = v.dot((Q(1, 2), 1, 2))
    assert expect == sqrt2.element([Q(-11, 2), 1])
    for q in ((0.5, 1, 2), ("1/2", 1, 2), ("0.5", Q(2, 2), 2)):
        assert v.dot(q) == expect
        assert p.sign_of(q) == expect.sign()


def test_intersections(sqrt2):
    full = RationalSubspace.full(2)
    w = RationalSubspace(2, [(1, 5)])
    assert w.intersect(full) == w
    x = RationalSubspace(2, [(1, 0)])
    y = RationalSubspace(2, [(0, 1)])
    assert x.intersect(y).dim == 0


def test_dimension_formula_random():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.choice((3, 4))
        mk = lambda: RationalSubspace(
            n, [tuple(Q(rng.randint(-2, 2)) for _ in range(n))
                for _ in range(rng.randint(0, n))])
        a, b = mk(), mk()
        assert a.intersect(b).dim + RationalSubspace(n, a.basis + b.basis).dim == a.dim + b.dim


def test_canonical_equality():
    w1 = RationalSubspace(2, [(2, 2), (1, 0)])
    w2 = RationalSubspace(2, [(1, 0), (0, 3)])
    assert w1 == w2 == RationalSubspace.full(2)


def test_coords_pivot_reading():
    # a member's coordinates in the echelon basis are its entries at the pivots
    w = RationalSubspace(3, [(1, 0, Q(3, 2)), (0, 1, -1)])
    assert w.pivots == (0, 1)
    v = (Q(2), Q(1), Q(2))
    combo = tuple(sum(v[p] * row[t] for p, row in zip(w.pivots, w.basis)) for t in range(3))
    assert w.contains(v) and combo == v
    assert not w.contains((1, 0, 0))


def test_pivots_kept_from_the_elimination():
    # set from the rref (the constructor) or from the given echelon rows (a kernel)
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(0, 5)
        vectors = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        kernel = rational_kernel([FieldVector.from_rationals(NumberField.rational(), v)
                                  for v in vectors], n)
        for w in (RationalSubspace(n, vectors), kernel):
            assert w.pivots == tuple(rref(w.ints)[2])
            assert [[row[p] for p in w.pivots] for row in w.ints] == \
                [[w.den * (i == j) for j in range(w.dim)] for i in range(w.dim)]
            assert _read_back(w.ints, w.den) == [list(row) for row in w.basis]


def contains_by_every_column(w, v):
    """Membership compared at all n columns: v is the combination of the echelon
    basis by v's entries at the pivots."""
    v = [Q(x) for x in v]
    return all(sum(v[p] * Q(row[t], w.den) for p, row in zip(w.pivots, w.ints)) == v[t]
               for t in range(w.n))


def test_contains_agrees_with_the_check_at_every_column():
    # the pivot columns match by construction, so contains compares only the others
    rng = random.Random(23)
    for n in range(7):
        for _ in range(25):
            w = RationalSubspace(n, [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                                     for _ in range(rng.randint(0, n))])
            members = []
            for _ in range(3):
                cs = [Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in w.ints]
                members.append([sum(c * Q(x, w.den) for c, x in zip(cs, col))
                                for col in zip(*w.ints)] if w.ints else [0] * n)
            nearby = [[x + (rng.random() < 0.3) for x in v] for v in members]
            others = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(3)]
            for v in members + nearby + others:
                assert w.contains(v) == contains_by_every_column(w, v)
            assert all(w.contains(v) for v in members)


def test_contains_on_a_wide_basis_reads_only_the_non_pivot_columns(sqrt2):
    # the level-1 residue basis at n = 200: 198 vectors, 2 non-pivot columns each
    rng = random.Random(200)
    raw = [FieldVector.from_layers(sqrt2, [[Q(rng.randint(-9, 9)) for _ in range(200)]
                                           for _ in range(2)]) for _ in range(2)]
    head, _, basis = decompose(from_rows(raw, 200, field=sqrt2), 1)
    w = head.residue_group()
    start = time.perf_counter()
    assert all(w.contains(b) for b in basis)
    assert time.perf_counter() - start < 0.1  # comparing every column: about 40 times longer


def test_contains_on_a_short_vector():
    w = RationalSubspace(3, [(0, 0, 1)])
    for short in [(1,), (0, 0), ()]:
        with pytest.raises(DimensionMismatch):
            w.contains(short)


def test_subspace_vectors_are_checked_against_the_ambient_dimension():
    # a vector of another length, or rows of two lengths, are DimensionMismatch, not a
    # subspace of the wrong space or a bare IndexError
    for n, vectors in ((3, [(1, 2)]), (2, [[1, 2, 3]]), (2, [[1, 2], [1]]), (0, [[1]])):
        with pytest.raises(DimensionMismatch):
            RationalSubspace(n, vectors)
    for rows, n in (([[1, 2], [3]], 2), ([[1, 2, 3]], 2), ([[1]], 0)):
        with pytest.raises(DimensionMismatch):
            nullspace_basis(rows, n)
        with pytest.raises(DimensionMismatch):
            RationalSubspace.kernel(rows, n)
    with pytest.raises(DimensionMismatch):
        rref([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        solve([[1, 0], [0, 1]], [[1, 2], [3]])
    assert RationalSubspace(2, [(1, 2)]).complement_coords() == (1,)


def test_subspace_dimension_is_a_nonnegative_integer():
    for n in (2.5, 2.0, "2", True, None, Q(5, 2)):
        for build in (lambda: RationalSubspace(n, []), lambda: RationalSubspace.zero(n),
                      lambda: RationalSubspace.full(n), lambda: RationalSubspace.kernel([], n)):
            with pytest.raises(RangeError):
                build()
    for n in (-1, -3):
        for build in (lambda: RationalSubspace(n, []), lambda: RationalSubspace.full(n),
                      lambda: RationalSubspace.kernel([], n)):
            with pytest.raises(DimensionMismatch):
                build()
    assert RationalSubspace(Q(2), [(1, 1)]) == RationalSubspace(2, [(2, 2)])
    assert RationalSubspace.full(0) == RationalSubspace.zero(0) and RationalSubspace.full(0).n == 0


ELIMINATION_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SMALL = st.integers(-4, 4) | st.fractions(min_value=-4, max_value=4, max_denominator=6)


@ELIMINATION_FUZZ
@given(n=st.integers(-1, 4) | st.sampled_from([1.0, "2", True]),
       vectors=st.lists(st.lists(SMALL, max_size=5), max_size=4))
def test_fuzz_subspaces_and_eliminations(n, vectors):
    # each call ends in a value or a typed error; a value is checked against the Fraction oracle
    good_n = type(n) is int and n >= 0
    fits = good_n and all(len(v) == n for v in vectors)
    try:
        w = RationalSubspace(n, vectors)
    except RangeError:
        assert type(n) is not int
    except DimensionMismatch:
        assert not fits
    else:
        assert fits and [list(row) for row in w.basis] == fraction_rref(vectors)[0]
        assert all(w.contains(v) for v in vectors)
        assert w.intersect(RationalSubspace.kernel(nullspace_basis(w.ints, n)[0], n)) == w
    try:
        ints, den, pivots = rref(vectors)
    except DimensionMismatch:
        assert len({len(v) for v in vectors}) > 1
    else:
        assert (_read_back(ints, den), pivots) == fraction_rref(vectors)
    if fits:
        kernel = _read_back(*nullspace_basis(vectors, n))
        assert [tuple(v) for v in kernel] == two_pass_nullspace(vectors, n)


LAYER_FIELDS = [NumberField((-2, 0, 0, 1), (1, 2)), NumberField((-2, 0, 0, 0, 1), (1, 2))]


@pytest.mark.parametrize("field", [NumberField.rational(), NumberField((-2, 0, 1), (1, 2))]
                         + LAYER_FIELDS, ids=["Q", "sqrt2", "cbrt2", "qrt2"])
@pytest.mark.parametrize("n", range(5))
def test_layers_round_trip_and_scale(field, n):
    rng = random.Random(100 + n)
    for i in range(11):
        entries = tuple(field.element([Q(rng.randint(-4, 4), rng.randint(1, 3)) if i else 0
                                       for _ in range(field.degree)]) for _ in range(n))
        v = FieldVector(field, entries)
        # one stored form: integer layers over one positive den coprime to them
        ints, den = v.int_layers(), v.den
        assert den > 0 and gcd(den, *(x for layer in ints for x in layer)) == 1
        assert all(type(x) is int for layer in ints for x in layer)
        # the reads give the exact values the entries were built from
        exact = tuple(tuple(e.coeffs[j] for e in entries) for j in range(field.degree))
        assert v.layers() == exact and v.entries == entries
        assert str(v) == "(" + ",".join(map(str, entries)) + ")"
        assert v.to_json() == [e.to_json() for e in entries]
        assert v.n == n and len(v.layers()) == field.degree
        k = rng.randint(1, 6)
        for w in (FieldVector(field, v.entries), FieldVector.from_layers(field, v.layers()),
                  FieldVector.from_layers(field, [[k * x for x in layer] for layer in ints],
                                          k * den),
                  FieldVector.from_layers(field, [[-x for x in layer] for layer in ints], -den)):
            assert w == v and hash(w) == hash(v)
            assert (w.int_layers(), w.den) == (ints, den)
        mu = field.element([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)])
        assert v.scale(mu) == FieldVector(field, tuple(e * mu for e in v.entries))
        assert v.scale(Q(-3, 2)).entries == tuple(e * Q(-3, 2) for e in v.entries)
        # a rational scales the integers and den: the same vector as through its matrix
        for c in (Q(rng.randint(-9, 9), rng.randint(1, 9)), 0, 5):
            assert v.scale(c) == v.scale(field.from_rational(c))
        m = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        mapped = tuple(sum((c * e for c, e in zip(row, v.entries)), field.zero()) for row in m)
        assert map_layers([v], *cleared(m)) == [FieldVector(field, mapped)]
        q = [rng.randint(-3, 3) for _ in range(n)]
        assert v.dot(q) == sum((c * e for c, e in zip(q, v.entries)), field.zero())
    with pytest.raises(DivisionByZero):
        FieldVector.from_layers(field, v.layers(), 0)
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


# the four benchmark fields, each with alpha as a sympy expression
FILTER_FIELDS = {"Q": (((0, 1), (-1, 1)), "0"),
                 "sqrt2": (((-2, 0, 1), (1, 2)), "sqrt(2)"),
                 "cbrt2": (((-2, 0, 0, 1), (1, 2)), "cbrt(2)"),
                 "qrt2": (((-2, 0, 0, 0, 1), (1, 2)), "root(2, 4)")}


def _sympy_sign(v, u, alpha):
    import sympy
    value = sum(sympy.Rational(c.numerator, c.denominator) * alpha ** j
                for j, c in enumerate(v.dot(u).coeffs))
    return int(sympy.sign(value))


def _convergents(alpha, count):
    import itertools
    import sympy
    if alpha == 0:
        return [(1, 1)]
    it = sympy.continued_fraction_convergents(sympy.continued_fraction_iterator(alpha))
    return [(int(c.p), int(c.q)) for c in itertools.islice(it, count)]


def _enclosure_holds(v, u, enclosure):
    # mid -+ rad bound 2 D^(d-1) den (v . u), den the common denominator of the
    # integer layers; checked by exact field signs
    field = v.field
    den, mids, rads = enclosure
    mid = sum(a * b for a, b in zip(mids, u))
    rad = sum(a * abs(b) for a, b in zip(rads, u))
    scaled = field.element([sum(a * b for a, b in zip(layer, u)) for layer in v.int_layers()])
    scaled = scaled * (2 * den ** (field.degree - 1))
    return (scaled - (mid - rad)).sign() >= 0 and (scaled - (mid + rad)).sign() <= 0


@pytest.mark.parametrize("name", FILTER_FIELDS)
def test_filtered_sign_at_is_exact(name):
    # a fresh field starts from its wide isolating interval, so the integer
    # enclosure straddles zero near the rows' zero sets and must defer there
    import sympy
    spec, alpha_expr = FILTER_FIELDS[name]
    field = NumberField(*spec)
    alpha = sympy.sympify(alpha_expr)
    one, a = field.one(), field.alpha()
    cases = [(FieldVector(field, (one, a, -one - a)), (1, 1, 1)),  # on the zero set
             (FieldVector(field, (one, a, -one - a)), (2, 1, 1)),
             (FieldVector(field, (a, -one)), (1, 1))]
    for p, q in _convergents(alpha, 10):
        # p - q alpha is the smallest value of the row (1, alpha) at its size
        for u in ((p, -q), (-p, q), (p + 1, -q), (p, -q - 1)):
            cases.append((FieldVector(field, (one, a)), u))
            cases.append((FieldVector(field, (one, a, a * a)), u + (0,)))
    for p, q in ((577, 408), (1785, 1501), (5, 3)):
        # rows over Q: (1, -p/q) vanishes at (p, q) and is 1/q away beside it
        row = FieldVector.from_rationals(field, (1, Q(-p, q)))
        cases += [(row, (p, q)), (row, (p + 1, q)), (row, (p - 1, q)), (row, (-p, -q))]
    # all filtered answers first: the exact checks below refine the interval
    answers = [v.sign_at(u) for v, u in cases]
    for (v, u), answer in zip(cases, answers):
        assert answer == v.dot(u).sign() == _sympy_sign(v, u, alpha), (v, u)
        assert v.sign_at((0,) * v.n) == 0
        assert _enclosure_holds(v, u, field.enclosure(v.int_layers()))


@pytest.mark.parametrize("name", ["sqrt2", "cbrt2", "qrt2"])
def test_enclosure_cached_before_a_refinement(name):
    import sympy
    spec, alpha_expr = FILTER_FIELDS[name]
    field = NumberField(*spec)
    alpha = sympy.sympify(alpha_expr)
    one, a = field.one(), field.alpha()
    v = FieldVector(field, (one, a))
    assert v.sign_at((9, -1)) == 1  # decided by the enclosure over [1, 2]
    stale = field.enclosure(v.int_layers())
    assert v.sign_at((9, -1)) == 1
    # another vector's near-zero query refines the shared interval
    (p, q) = _convergents(alpha, 8)[-1]
    w = FieldVector(field, (a, one))
    assert w.sign_at((q, -p)) == _sympy_sign(w, (q, -p), alpha)
    fresh = field.enclosure(v.int_layers())
    assert fresh[0] > stale[0]
    # the stale enclosure still holds, only looser; v recomputes its own
    for u in ((p, -q), (p - 1, -q), (9, -1), (-3, 2)):
        assert _enclosure_holds(v, u, stale) and _enclosure_holds(v, u, fresh)
        assert v.sign_at(u) == _sympy_sign(v, u, alpha)
    current = field.enclosure(v.int_layers())
    assert field.enclosure(v.int_layers(), stale) == current
    assert field.enclosure(v.int_layers(), current) is current


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


def _read_back(ints, den):
    """Integer rows over den as rationals, after checking the stored form: all
    ints, den > 0 and coprime to them."""
    assert type(den) is int and den > 0
    assert all(type(x) is int for row in ints for x in row)
    assert gcd(den, *(x for row in ints for x in row)) == 1
    return [[Q(x, den) for x in row] for row in ints]


@pytest.mark.parametrize("n", range(7))
def test_rref_matches_fraction_oracle_and_sympy(n):
    for rows in _elimination_cases(n):
        ints, den, pivots = rref(rows)
        red = _read_back(ints, den)
        assert (red, pivots) == fraction_rref(rows)
        assert all(row[p] == den for row, p in zip(ints, pivots))
        if rows and n:
            expect, expect_pivots = _sympy_matrix(rows, n).rref()
            assert pivots == list(expect_pivots)
            assert red == _from_sympy(expect.tolist()[:len(pivots)])


@pytest.mark.parametrize("n", range(7))
def test_nullspace_matches_two_pass_oracle_and_sympy(n):
    for rows in _elimination_cases(n):
        basis = [tuple(v) for v in _read_back(*nullspace_basis(rows, n))]
        assert basis == two_pass_nullspace(rows, n)
        assert len(basis) == n - len(rref(rows)[2])
        if rows and n:
            kernel = [list(v) for v in _sympy_matrix(rows, n).nullspace()]
            assert basis == [tuple(r) for r in fraction_rref(_from_sympy(kernel))[0]]


def _solved(a, b):
    """solve(a, b) as rationals X / den, after checking its contract: X all int,
    den > 0 and least (coprime to X), and a X == den b exactly."""
    x, den = solve(a, b)
    assert type(den) is int and den > 0
    assert all(type(v) is int for row in x for v in row)
    assert gcd(den, *(v for row in x for v in row)) == 1
    assert len(x) == len(b) and all(len(row) == len(side) for row, side in zip(x, b))
    assert [[sum((Q(r) * x[k][j] for k, r in enumerate(row)), Q(0)) for j in range(len(side))]
            for row, side in zip(a, b)] == [[den * Q(v) for v in side] for side in b]
    return [[Q(v, den) for v in row] for row in x]


@pytest.mark.parametrize("n", range(7))
def test_solve_contract(n):
    # integer X over one least den > 0, for widths 0, 1 and n + 1, integer and
    # Fraction right-hand sides, and integer and Fraction matrices
    rng = random.Random(900 + n)
    for den in (1, 3):
        a = [[Q(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            a[i][i] += 20
        for k in (0, 1, n + 1):
            b = [[Q(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(k)] for _ in range(n)]
            x = _solved(a, b)
            if den == 1:
                assert _solved(*([[int(v) for v in row] for row in m] for m in (a, b))) == x
    assert solve([], []) == ([], 1)
    assert solve([[2]], [[]]) == ([[]], 1)
    assert solve([[4, 0], [0, 6]], [[2], [3]]) == ([[1], [1]], 2)
    assert solve([[-3]], [[Q(1, 2)]]) == ([[-1]], 6)


@pytest.mark.parametrize("n", range(7))
def test_mat_inverse_matches_oracles(n):
    # the inverse is solve(rows, I) read as X / den; right-hand sides of 0, 1 and
    # n + 1 columns are checked against sympy's inverse times them
    rng = random.Random(700 + n)
    identity = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for rows in _elimination_cases(n):
        if len(rows) != n:
            continue
        invertible = len(rref(rows)[2]) == n
        expect = fraction_inverse(rows)
        assert invertible == (expect is not None)
        if n:
            assert invertible == (_sympy_matrix(rows, n).det() != 0)
        sides = [[[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)] for _ in range(n)]
                 for k in (0, 1, n + 1)]
        if invertible:
            assert _solved(rows, identity) == expect
            if n:
                inverse = _sympy_matrix(rows, n).inv()
                assert _solved(rows, identity) == _from_sympy(inverse.tolist())
                for b in sides:
                    x = _solved(rows, b)
                    assert x == _from_sympy((inverse * _sympy_matrix(b, len(b[0]))).tolist())
            assert Automorphism(rows).n == n
        else:
            for b in [identity] + sides:
                with pytest.raises(SingularMatrix):
                    solve(rows, b)
            with pytest.raises(SingularMatrix):
                Automorphism(rows)


def test_solve_needs_a_square_matrix_and_matching_rows():
    for a, b in [([[1, 2]], [[1]]), ([[1, 0], [0, 1]], [[1]]), ([[1]], [[1], [2]])]:
        with pytest.raises(DimensionMismatch):
            solve(a, b)
