import itertools
import random
import time
from fractions import Fraction as Q
from math import lcm

import pytest

from preorderspace import (
    DimensionMismatch,
    FieldMismatch,
    FieldVector,
    NumberField,
    Preorder,
    RationalSubspace,
    Sign,
    from_rows,
)
from preorderspace.lattice import compose, decompose, truncate
from preorderspace.preorder import extend
from gram_reference import gram_from_rows
from preorder_sampler import rand_preorder


@pytest.fixture(scope="module")
def sqrt2():
    return NumberField((-2, 0, 1), (1, 2))


QF = NumberField.rational()


def fv(field, *entries):
    return FieldVector.from_rationals(field, entries)


def raw_sign(rows, u):
    for row in rows:
        s = row.dot(u).sign()
        if s:
            return Sign(s)
    return Sign.ZERO


def test_trivial_preorder():
    p = from_rows([], 2, field=QF)
    assert (p.rank, p.degree, p.type_vec) == (0, 2, ())
    assert p.sign_of((3, -5)) == Sign.ZERO


def test_redundant_row_dropped():
    p = from_rows([fv(QF, 1, 0), fv(QF, 2, 0)], 2, field=QF)
    assert p.rank == 1 and p.degree == 1
    assert p.rows[0] == fv(QF, 1, 0)
    assert extend(p, fv(QF, -3, 0)) is p
    assert extend(p, fv(QF, 5, -2)).equals(from_rows([fv(QF, 1, 0), fv(QF, 0, -1)], 2))


def test_dependent_tail_dropped(sqrt2):
    row = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))
    p = from_rows([row, fv(sqrt2, 0, 1)], 2, field=sqrt2)
    assert (p.rank, p.degree, p.type_vec) == (1, 0, (2,))
    assert p.rows == (row,)


def test_sign_of_examples(sqrt2):
    p = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    assert p.sign_of((-1, 1)) == Sign.POS  # sqrt2 - 1 > 0
    lex = from_rows([fv(QF, 1, 0), fv(QF, 0, 1)], 2, field=QF)
    assert lex.sign_of((0, -3)) == Sign.NEG
    assert lex.sign_of((0, 0)) == Sign.ZERO


def test_rational_inputs_cleared():
    lex = from_rows([fv(QF, 1, 0), fv(QF, 0, 1)], 2, field=QF)
    assert lex.sign_of((Q(1, 7), Q(-2, 3))) == Sign.POS
    assert lex.compare((Q(1, 2), 0), (Q(1, 3), 5)) == Sign.POS


@pytest.mark.parametrize("min_poly", [(-2, 0, 1), (-2, 0, 0, 1), (-2, 0, 0, 0, 1)],
                         ids=["sqrt2", "cbrt2", "qrt2"])
def test_sign_of_rational_input_equals_cleared_integer_vector(min_poly):
    field = NumberField(min_poly, (1, 2))
    rng = random.Random(len(min_poly))
    for _ in range(40):
        n = rng.randint(1, 4)
        p = rand_preorder(rng, field, n, 5)
        for _ in range(10):
            u = [Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            den = lcm(*(x.denominator for x in u))
            cleared = [int(x * den) for x in u]
            scale = Q(rng.randint(1, 9), rng.randint(1, 9))
            assert p.sign_of(u) == p.sign_of(cleared) == raw_sign(p.rows, cleared)
            assert p.sign_of([x * scale for x in cleared]) == p.sign_of(cleared)
            assert p.sign_of([Q(x) for x in cleared]) == p.sign_of(cleared)


def test_rank_degree_type(sqrt2):
    assert from_rows([], 3, field=QF).type_vec == ()
    p = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    assert (p.rank, p.degree, p.type_vec) == (1, 0, (2,))
    lex = from_rows([fv(sqrt2, 1, 0), fv(sqrt2, 0, 1)], 2, field=sqrt2)
    assert (lex.rank, lex.degree, lex.type_vec) == (2, 0, (1, 1))


ORACLE_FIELDS = [QF, NumberField((-2, 0, 1), (1, 2)), NumberField((-2, 0, 0, 1), (1, 2)),
                 NumberField((-2, 0, 0, 0, 1), (1, 2))]


def rand_row(rng, field, n):
    """Random layers; about a third of the entries are zero."""
    return FieldVector.from_layers(field, [
        [Q(rng.choice((0, rng.randint(-3, 3))), rng.randint(1, 2)) for _ in range(n)]
        for _ in range(field.degree)])


def positive(field, rng):
    e = field.element([Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(field.degree)])
    return e if e.sign() > 0 else field.one() - e


def flag_type(flag):
    return tuple(a.dim - b.dim for a, b in zip(flag, flag[1:]))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["Q", "sqrt2", "cbrt2", "qrt2"])
@pytest.mark.parametrize("n", range(6))
def test_from_rows_matches_gram_oracle(field, n):
    rng = random.Random(10 * field.degree + n)
    for _ in range(6):
        raw = [rand_row(rng, field, n) for _ in range(rng.randint(0, n + 1))]
        if raw:
            # a redundant combination of earlier rows, and a positive multiple
            weights = [Q(rng.randint(-2, 2)) for _ in raw]
            combo = raw[0].scale(0)
            for w, r in zip(weights, raw):
                combo = combo.add(r.scale(w))
            raw.insert(rng.randint(1, len(raw)), combo)
            raw.insert(rng.randint(1, len(raw)), raw[0].scale(positive(field, rng)))
        p = from_rows(raw, n, field=field)
        rows, flag = gram_from_rows(raw, n, field)
        assert p.rows == rows
        assert p.flag == flag and p.residue_group() == flag[-1]
        scaled = [r.scale(positive(field, rng)) for r in raw]
        assert from_rows(scaled, n, field=field).equals(p)
        for k in range(p.rank + 1):
            t = truncate(p, k)
            assert t.type_vec == flag_type(flag[:k + 1]) == flag_type(t.flag)
            assert t.degree == flag[k].dim == t.residue_group().dim


def _two_rows_at_n_80():
    field = NumberField((-2, 0, 1), (1, 2))
    rng = random.Random(80)
    raw = [FieldVector.from_layers(field, [[Q(rng.randint(-9, 9)) for _ in range(80)]
                                           for _ in range(2)]) for _ in range(2)]
    return raw, field


def test_two_rows_at_n_80_within_a_second():
    raw, field = _two_rows_at_n_80()
    start = time.perf_counter()
    p = from_rows(raw, 80, field=field)
    elapsed = time.perf_counter() - start
    assert (p.type_vec, p.degree) == ((2, 2), 76)
    assert elapsed < 1.0


def test_residue_group_and_flag_at_n_80_within_a_second():
    raw, field = _two_rows_at_n_80()
    p = from_rows(raw, 80, field=field)
    start = time.perf_counter()
    residue = p.residue_group()
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    flag = p.flag
    assert time.perf_counter() - start < 1.0
    assert [w.dim for w in flag] == [80, 78, 76] and flag[-1] == residue
    assert compose(*decompose(p, 1)).equals(p)


def test_residue_and_chain(sqrt2):
    triv = from_rows([], 2, field=QF)
    assert triv.residue_group() == RationalSubspace.full(2)
    assert triv.isolated_chain() == (RationalSubspace.full(2),)
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    assert p.residue_group() == RationalSubspace.from_spanning([(0, 1)], 2)
    assert p.isolated_chain() == (p.residue_group(), RationalSubspace.full(2))
    q = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha(), sqrt2.zero()))], 3,
                  field=sqrt2)
    assert q.residue_group() == RationalSubspace.from_spanning([(0, 0, 1)], 3)
    assert len(q.isolated_chain()) == 2


def test_scaling_invariance():
    rows = [fv(QF, 2, 6), fv(QF, 0, -5)]
    tripled = [r.scale(Q(3)) for r in rows]
    assert from_rows(rows, 2, field=QF).equals(from_rows(tripled, 2, field=QF))
    assert not from_rows([fv(QF, 1, 0)], 2, field=QF).equals(
        from_rows([fv(QF, -1, 0)], 2, field=QF))


def test_open_set_membership():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.choice((2, 3))
        rows = [fv(QF, *(rng.randint(-3, 3) for _ in range(n)))
                for _ in range(rng.randint(0, n))]
        p = from_rows(rows, n, field=QF)
        u = [rng.randint(-4, 4) for _ in range(n)]
        assert p.in_O(u) == (not p.in_U([-x for x in u]))
        assert p.in_U(u) == (p.sign_of(u) == Sign.POS)


def test_axioms_on_box():
    rng = random.Random(23)
    for _ in range(20):
        rows = [fv(QF, rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 2))]
        p = from_rows(rows, 2, field=QF)
        pts = list(itertools.product(range(-2, 3), repeat=2))
        for u, v, w in zip(pts, pts[1:], pts[2:]):
            uv = p.compare(u, v)
            vw = p.compare(v, w)
            if uv != Sign.POS and vw != Sign.POS:
                assert p.compare(u, w) != Sign.POS


def test_idempotent_and_structural_laws(sqrt2):
    rng = random.Random(29)
    for i in range(40):
        field = sqrt2 if i % 2 else QF
        n = rng.choice((2, 3, 4))
        rows = [FieldVector(field, tuple(
            field.element([Q(rng.randint(-3, 3))] + [Q(rng.randint(-2, 2))] * (field.degree - 1))
            for _ in range(n))) for _ in range(rng.randint(0, n))]
        p = from_rows(rows, n, field=field)
        assert from_rows(p.rows, n, field=field).equals(p)
        assert sum(p.type_vec) + p.degree == n
        assert p.rank + p.degree <= n
        u = [rng.randint(-4, 4) for _ in range(n)]
        assert (p.sign_of(u) == Sign.ZERO) == p.residue_group().contains(u)


def test_box_oracle_matches_raw_rows(sqrt2):
    rng = random.Random(31)
    for i in range(30):
        field = sqrt2 if i % 2 else QF
        rows = [FieldVector(field, tuple(
            field.element([Q(rng.randint(-2, 2), rng.randint(1, 2))] +
                          [Q(rng.randint(-2, 2))] * (field.degree - 1))
            for _ in range(2))) for _ in range(rng.randint(0, 3))]
        p = from_rows(rows, 2, field=field)
        for u in itertools.product(range(-4, 5), repeat=2):
            assert p.sign_of(u) == raw_sign(rows, u)


def test_errors(sqrt2):
    with pytest.raises(DimensionMismatch):
        from_rows([fv(QF, 1, 0, 0)], 2, field=QF)
    with pytest.raises(FieldMismatch):
        from_rows([fv(QF, 1, 0), fv(sqrt2, 0, 1)], 2, field=QF)
    with pytest.raises(DimensionMismatch):
        from_rows([], -1, field=QF)
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    with pytest.raises(DimensionMismatch):
        p.sign_of((1, 2, 3))


def test_json_round_trip(sqrt2):
    p = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha())),
                   fv(sqrt2, 0, 1)], 2, field=sqrt2)
    blob = p.to_json()
    assert blob["rank"] == 1 and blob["degree"] == 0 and blob["type"] == [2]
    again = Preorder.from_json(blob)
    assert again.equals(p)
    q = Preorder.from_json({"n": 2, "rows": [["2", "0"]]})
    assert q.rows[0].to_json() == ["1", "0"]
