import itertools
import random
import time
from fractions import Fraction as Q

import pytest

from preorderspace import (
    BasisError,
    DimensionMismatch,
    FieldMismatch,
    FieldVector,
    NotContained,
    NumberField,
    RangeError,
    RationalSubspace,
    compose,
    decompose,
    distance,
    from_rows,
    meet,
    quotient,
    refines,
    truncate,
)
from preorder_sampler import rand_preorder
from shared import box_m_subset, fv, lex2

QF = NumberField.rational()


def test_truncate():
    p = lex2()
    assert truncate(p, p.rank).equals(p)
    assert truncate(p, 1).equals(from_rows([fv(QF, 1, 0)], 2, field=QF))
    assert truncate(p, 0).is_trivial()
    with pytest.raises(RangeError):
        truncate(p, 3)
    with pytest.raises(RangeError):
        truncate(p, -1)


def test_levels_and_dimensions_must_be_integers():
    # a level that is not an int (a bool is not one) is a RangeError, not a TypeError
    p = lex2()
    for k in (1.5, 0.5, 1.0, True, "1", None, Q(1)):
        with pytest.raises(RangeError):
            truncate(p, k)
        with pytest.raises(RangeError):
            decompose(p, k)
    for n in (2.5, 2.0, "2", None, True):
        with pytest.raises(RangeError):
            from_rows([], n, field=QF)
    assert from_rows([], Q(4, 2), field=QF).n == 2


def test_refines_examples():
    p = lex2()
    assert refines(from_rows([], 2, field=QF), p)
    assert refines(from_rows([fv(QF, 1, 0)], 2, field=QF), p)
    assert not refines(from_rows([fv(QF, 1, 0)], 2, field=QF),
                       from_rows([fv(QF, 0, 1)], 2, field=QF))


def test_refines_vs_box_oracle(sqrt2):
    rng = random.Random(41)
    for i in range(60):
        field = sqrt2 if i % 2 else QF
        p = rand_preorder(rng, field, 2, 3)
        q = rand_preorder(rng, field, 2, 3)
        if refines(p, q):
            assert box_m_subset(p, q)
        else:
            # an exact refutation witness exists in some finite box
            found = False
            for bound in (3, 6, 12, 24, 48):
                if not box_m_subset(p, q, bound):
                    found = True
                    break
            assert found, f"no refutation found for {p!r} vs {q!r}"


def test_meet_examples():
    p = lex2()
    assert meet(p, p).equals(p)
    q = from_rows([fv(QF, 1, 0), fv(QF, 0, -1)], 2, field=QF)
    assert meet(p, q).equals(from_rows([fv(QF, 1, 0)], 2, field=QF))
    r = from_rows([fv(QF, 0, 1)], 2, field=QF)
    assert meet(truncate(p, 1), r).is_trivial()


def test_meet_is_greatest_lower_bound(sqrt2):
    rng = random.Random(43)
    for i in range(40):
        field = sqrt2 if i % 2 else QF
        p = rand_preorder(rng, field, 3, 3)
        q = rand_preorder(rng, field, 3, 3)
        m = meet(p, q)
        assert refines(m, p) and refines(m, q)
        for k in range(min(p.rank, q.rank) + 1):
            t = truncate(p, k)
            if refines(t, q):
                assert refines(t, m)


def test_raf_minus_totally_ordered(sqrt2):
    rng = random.Random(47)
    for i in range(30):
        field = sqrt2 if i % 2 else QF
        p = rand_preorder(rng, field, 3, 3)
        for j in range(p.rank + 1):
            for k in range(j, p.rank + 1):
                assert refines(truncate(p, j), truncate(p, k))


def test_refinement_partial_order(sqrt2):
    rng = random.Random(53)
    pre = [rand_preorder(rng, QF, 2, 3) for _ in range(12)]
    for p in pre:
        assert refines(p, p)
        for q in pre:
            if refines(p, q) and refines(q, p):
                assert p.equals(q)
            for r in pre:
                if refines(p, q) and refines(q, r):
                    assert refines(p, r)


def test_compose_examples():
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    triv1 = from_rows([], 1, field=QF)
    assert compose(p, triv1, [(0, 1)]).equals(p)
    lex = lex2()
    assert compose(from_rows([], 2, field=QF), lex, [(1, 0), (0, 1)]).equals(lex)
    r = from_rows([fv(QF, 1)], 1, field=QF)
    assert compose(p, r, [(0, 1)]).equals(lex)


def test_compose_errors():
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    r = from_rows([fv(QF, 1)], 1, field=QF)
    with pytest.raises(BasisError):
        compose(p, r, [(1, 0)])  # not inside the residue group
    with pytest.raises(BasisError):
        compose(p, r, [(0, 1), (0, 2)])  # wrong count
    lex = lex2()
    r2 = from_rows([fv(QF, 1, 0)], 2, field=QF)
    with pytest.raises(BasisError):
        compose(lex, r2, [])  # residue is zero-dimensional, r on wrong space


def test_compose_dependent_basis():
    # the right count, inside the residue group, but linearly dependent
    p = from_rows([fv(QF, 1, 0, 0)], 3, field=QF)
    r = from_rows([fv(QF, 1, 0)], 2, field=QF)
    assert p.residue_group().dim == 2
    with pytest.raises(BasisError):
        compose(p, r, [(0, 1, 0), (0, 2, 0)])
    # a trivial r leaves the solve no right-hand columns, and the block is still checked
    trivial = from_rows([], 2, field=QF)
    with pytest.raises(BasisError):
        compose(p, trivial, [(0, 1, 0), (0, 2, 0)])
    assert compose(p, trivial, [(0, 1, 0), (0, 1, 1)]).equals(p)


def test_decompose_examples():
    lex = lex2()
    head, rest, basis = decompose(lex, 1)
    assert head.equals(from_rows([fv(QF, 1, 0)], 2, field=QF))
    assert rest.equals(from_rows([fv(QF, 1)], 1, field=QF))
    assert basis == [(Q(0), Q(1))]
    head2, rest2, basis2 = decompose(lex, 2)
    assert head2.equals(lex) and rest2.is_trivial() and basis2 == []
    # the basis is the echelon basis (1, 0, -1/3), (0, 1, -2/3) as stored: times den 3
    p = from_rows([fv(QF, 1, 2, 3), fv(QF, 0, 0, 1)], 3, field=QF)
    head, rest, basis = decompose(p, 1)
    assert basis == [(3, 0, -1), (0, 3, -2)]
    assert all(type(x) is int for b in basis for x in b)
    # the second row projects to (-3, -6, 5)/14, whose dot products with the basis are -1, -2
    assert rest.equals(from_rows([fv(QF, -1, -2)], 2, field=QF))
    assert compose(head, rest, basis).equals(p)


def test_compose_decompose_round_trip(sqrt2):
    rng = random.Random(59)
    for i in range(40):
        field = sqrt2 if i % 2 else QF
        p = rand_preorder(rng, field, rng.choice((2, 3)), 3)
        for k in range(p.rank + 1):
            head, rest, basis = decompose(p, k)
            assert compose(head, rest, basis).equals(p)


def rand_rational_basis(rng, w):
    """A random basis of w: the echelon basis under a random invertible matrix
    of rationals with mixed denominators."""
    while True:
        t = [[Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(w.dim)]
             for _ in range(w.dim)]
        if RationalSubspace(w.dim, t).dim == w.dim:
            return [tuple(sum((c * b[i] for c, b in zip(row, w.basis)), Q(0))
                          for i in range(w.n)) for row in t]


def test_compose_is_unchanged_by_one_positive_scale_of_the_basis(sqrt2):
    # the lift scales by the inverse of a common scale, which no canonical row sees
    rng = random.Random(73)
    for i in range(30):
        field = sqrt2 if i % 2 else QF
        p = rand_preorder(rng, field, rng.choice((2, 3, 4)), 3)
        head = truncate(p, rng.randint(0, p.rank))
        w = head.residue_group()
        r = rand_preorder(rng, field, w.dim, w.dim)
        basis = rand_rational_basis(rng, w)
        c = Q(rng.randint(1, 9), rng.randint(1, 9))
        assert compose(head, r, [[c * x for x in b] for b in basis]).equals(
            compose(head, r, basis))


def test_compose_decompose_round_trip_at_n_200_fast(sqrt2):
    # membership of the residue basis is one sign query per integer vector
    rng = random.Random(200)
    raw = [FieldVector.from_layers(sqrt2, [[Q(rng.randint(-9, 9)) for _ in range(200)]
                                           for _ in range(2)]) for _ in range(2)]
    p = from_rows(raw, 200, field=sqrt2)
    start = time.perf_counter()
    assert compose(*decompose(p, 1)).equals(p)
    assert time.perf_counter() - start < 1.5


def test_restriction_matches_parent_signs(sqrt2):
    rng = random.Random(61)
    for i in range(20):
        field = sqrt2 if i % 2 else QF
        p = rand_preorder(rng, field, 3, 3)
        k = rng.randint(0, p.rank)
        _, rest, basis = decompose(p, k)
        w = p.flag[k]
        # integer vectors in the kernel classify the same through coordinates
        for u in itertools.product(range(-2, 3), repeat=3):
            if w.contains(u):
                assert p.sign_of(u) == rest.sign_of([u[c] for c in w.pivots])


def test_residue_monotone_under_refinement(sqrt2):
    rng = random.Random(67)
    for i in range(30):
        field = sqrt2 if i % 2 else QF
        p = rand_preorder(rng, field, 3, 3)
        q = from_rows(list(p.rows) + [FieldVector(field, tuple(
            field.element([Q(rng.randint(-2, 2))] * field.degree) for _ in range(3)))],
            3, field=field)
        assert refines(p, q)
        rp, rq = p.residue_group(), q.residue_group()
        assert all(rp.contains(b) for b in rq.basis)


def test_quotient_examples():
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    assert quotient(p, []).equals(p)
    triv = from_rows([], 2, field=QF)
    h = [(0, 1)]
    assert quotient(triv, h).is_trivial()
    assert quotient(triv, h).n == 1
    assert quotient(p, h).equals(from_rows([fv(QF, 1)], 1, field=QF))
    # a basis is read as compose reads one: spanning rationals, redundant rows included
    assert quotient(p, [("0", Q(1, 2)), (0, 3)]).equals(quotient(p, h))
    with pytest.raises(NotContained):
        quotient(p, [(1, 0)])


def test_quotient_push_pull(sqrt2):
    rng = random.Random(71)
    for i in range(20):
        field = sqrt2 if i % 2 else QF
        p = rand_preorder(rng, field, 3, 3)
        res = p.residue_group()
        if res.dim == 0:
            continue
        q = quotient(p, res.ints[:1])
        keep = RationalSubspace(3, res.ints[:1]).complement_coords()
        for t in itertools.product(range(-2, 3), repeat=len(keep)):
            u = [0, 0, 0]
            for idx, val in zip(keep, t):
                u[idx] = val
            assert p.sign_of(u) == q.sign_of(t)


def test_ambient_mismatch_is_a_dimension_error(sqrt2):
    p2, p3 = lex2(), from_rows([fv(QF, 1, 0, 0)], 3, field=QF)
    other_field = from_rows([fv(sqrt2, 1, 0)], 2, field=sqrt2)
    for op in (refines, meet, lambda a, b: distance(a, b, 2)):
        with pytest.raises(DimensionMismatch):
            op(p2, p3)
        with pytest.raises(DimensionMismatch):
            op(p3, p2)
        with pytest.raises(FieldMismatch):
            op(p2, other_field)
    with pytest.raises(DimensionMismatch):
        quotient(p2, [(0, 0, 1)])
