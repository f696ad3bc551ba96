import itertools
import random
import time
from fractions import Fraction as Q
from math import lcm
from operator import mul

import pytest

from preorderspace import (
    DimensionMismatch,
    FieldElement,
    FieldMismatch,
    FieldVector,
    InvalidField,
    NumberField,
    Preorder,
    RationalSubspace,
    Sign,
    from_rows,
    rational_kernel,
)
from preorderspace.lattice import compose, decompose, truncate
from preorderspace.linalg import Columns
from preorderspace.preorder import extend
from gram_reference import gram_from_rows
from preorder_sampler import rand_preorder
from shared import fv

QF = NumberField.rational()


def raw_sign(rows, u):
    for row in rows:
        s = row.dot(u).sign()
        if s:
            return s
    return 0


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


def test_from_rows_builds_no_field_element(monkeypatch):
    built = []
    init = FieldElement.__init__
    monkeypatch.setattr(FieldElement, "__init__", lambda *args: built.append(1) or init(*args))
    for field in ORACLE_FIELDS:
        rng = random.Random(field.degree)
        raw = [rand_row(rng, field, 6) for _ in range(5)]
        p = from_rows(raw, 6, field=field)
        assert p.rank > 1 and not built


def test_forty_rational_rows_at_n_40_within_a_quarter_second():
    rng = random.Random(40)
    raw = [FieldVector.from_layers(QF, [[Q(rng.randint(-9, 9)) for _ in range(40)]])
           for _ in range(40)]
    start = time.process_time()
    p = from_rows(raw, 40, field=QF)
    elapsed = time.process_time() - start
    assert p.type_vec == (1,) * 40
    assert elapsed < 0.25


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


def preorder_of_degree(rng, field, n, degree):
    """A seeded preorder on Q^n of the given degree: raw rows whose layers are
    random combinations of n - degree independent integer vectors, extended
    until they span them (rank 0 at degree n)."""
    span = []
    while len(span) < n - degree:
        v = [rng.randint(-3, 3) for _ in range(n)]
        if RationalSubspace(n, span + [v]).dim > len(span):
            span.append(v)
    p = from_rows([], n, field=field)
    while p.degree > degree:
        layers = [[sum(map(mul, cs, column)) for column in zip(*span)]
                  for cs in ([rng.randint(-2, 2) for _ in span] for _ in range(field.degree))]
        p = extend(p, FieldVector.from_layers(field, layers))
    return p


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["Q", "sqrt2", "cbrt2", "qrt2"])
@pytest.mark.parametrize("n", range(1, 7))
def test_residue_group_and_flag_match_the_layer_kernel_oracle(field, n):
    # both are read off the bases; the oracle eliminates the stacked row layers
    rng = random.Random(70 * field.degree + n)
    for degree in range(n + 1):
        p = preorder_of_degree(rng, field, n, degree)
        oracle = tuple(rational_kernel(p.rows[:i], n) for i in range(p.rank + 1))
        assert p.degree == degree == oracle[-1].dim
        assert p.residue_group() is p.residue_group() is p.flag[-1]
        assert p.flag == oracle and p.residue_group() == oracle[-1]
        for k in range(p.rank):  # a truncation reads its own residue group
            t = truncate(p, k)
            assert t.residue_group() == oracle[k] and t.flag == oracle[:k + 1]


def test_residue_and_chain(sqrt2):
    triv = from_rows([], 2, field=QF)
    assert triv.residue_group() == RationalSubspace.full(2)
    assert triv.flag[::-1] == (RationalSubspace.full(2),)
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    assert p.residue_group() == RationalSubspace(2, [(0, 1)])
    assert p.flag[::-1] == (p.residue_group(), RationalSubspace.full(2))
    q = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha(), sqrt2.zero()))], 3,
                  field=sqrt2)
    assert q.residue_group() == RationalSubspace(3, [(0, 0, 1)])
    assert len(q.flag) == 2


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


def test_from_json_reads_its_own_field_first(sqrt2):
    # the object's own "field", then the field passed in, then Q
    cbrt2 = NumberField((-2, 0, 0, 1), (1, 2))
    rows = [["1", ["0", "1"]]]
    p = Preorder.from_json({"n": 2, "field": cbrt2.to_json(), "rows": rows}, field=sqrt2)
    assert p.field == cbrt2 and p.rows[0] == FieldVector(cbrt2, (cbrt2.one(), cbrt2.alpha()))
    assert Preorder.from_json({"n": 2, "rows": rows}, field=sqrt2).field == sqrt2
    assert Preorder.from_json({"n": 2, "rows": [["1", "2"]]}).field == QF


def test_equality_with_another_kind_is_false():
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    assert not p == None and p != 5 and p in [5, p] and [5, p].index(p) == 1


# --- box sign tables ------------------------------------------------------------

def box_fields():
    """Fresh Q, Q(sqrt2), Q(cbrt2), Q(2^(1/4)): intervals not yet refined."""
    return [NumberField.rational(), NumberField((-2, 0, 1), (1, 2)),
            NumberField((-2, 0, 0, 1), (1, 2)), NumberField((-2, 0, 0, 0, 1), (1, 2))]


def convergents(field, count):
    """The first count continued-fraction convergents of alpha > 1, by exact signs."""
    x, out = field.alpha(), []
    (h0, h1), (k0, k1) = (0, 1), (1, 0)
    for _ in range(count):
        a = 0
        while (x - (a + 1)).sign() >= 0:
            a += 1
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        out.append(Q(h1, k1))
        x = (x - a).inverse()
    return out


def by_points(p, axes):
    return [p.sign_of(u) for u in itertools.product(*axes)]


def table(p, axes):
    """p's sign table over the product of integer axes, in the box of their largest |x|."""
    bound = max((abs(x) for axis in axes for x in axis), default=0)
    return p.sign_table(Columns.of(itertools.product(*axes), len(axes), bound))


def rand_axes(rng, n):
    """A range or a few sorted distinct values per coordinate, some of them empty."""
    out = []
    for _ in range(n):
        lo = rng.randint(-6, 6)
        if rng.random() < 0.5:
            out.append(range(lo, lo + rng.randint(0, 5)))
        else:
            out.append(tuple(sorted(rng.sample(range(-9, 10), rng.randint(1, 4)))))
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_box_signs_match_sign_of_on_random_preorders(n):
    rng = random.Random(700 + n)
    ranks = set()
    for field in box_fields():
        for _ in range(12):
            # small entries put many box points on a row's zero set
            p = rand_preorder(rng, field, n, 2)
            ranks.add(p.rank)
            for _ in range(3):
                axes = rand_axes(rng, n)
                assert table(p, axes) == by_points(p, axes), (p, axes)
    assert max(ranks) >= min(n, 2)


def test_box_signs_on_a_row_zero_set():
    # the first row vanishes on the diagonal x0 = x1, the second decides there
    for field in box_fields():
        a = field.alpha()
        p = from_rows([FieldVector(field, (field.one(), -field.one(), field.zero())),
                       FieldVector(field, (field.zero(), a, a * a - 1))], 3, field=field)
        axes = (range(-3, 4), range(-3, 4), (-1, 0, 2))
        signs = table(p, axes)
        assert signs == by_points(p, axes)
        assert 0 in signs and signs.count(0) < len(signs)
        assert table(from_rows([], 3, field=field), axes) == [0] * (7 * 7 * 3)


def test_box_signs_at_continued_fraction_convergents():
    # (p_k, -q_k) for a convergent p_k / q_k of alpha lies next to the zero set of
    # (1, alpha), where the enclosure straddles zero; the rational row (1, -c)
    # vanishes exactly at (c_num, c_den) and leaves those points to the next row
    for field in box_fields()[1:]:
        a = field.alpha()
        slope = from_rows([FieldVector(field, (field.one(), a, field.zero())),
                           FieldVector(field, (field.zero(), field.zero(), field.one()))],
                          3, field=field)
        for c in convergents(field, 6):
            h, k = c.numerator, c.denominator
            near = (range(h - 1, h + 2), (-k, k), range(-1, 2))
            assert table(slope, near) == by_points(slope, near)
            rational = from_rows([FieldVector.from_rationals(field, (1, -c, 0)),
                                  FieldVector(field, (field.zero(), a, -a))], 3, field=field)
            on_zero = ((-h, 0, h, 2 * h), (-k, k, 2 * k), range(-2, 3))
            signs = table(rational, on_zero)
            assert signs == by_points(rational, on_zero)
            assert signs[list(itertools.product(*on_zero)).index((h, k, 0))] != 0


def test_box_signs_with_an_enclosure_cached_before_a_refinement():
    for field in box_fields()[1:]:
        a = field.alpha()
        p = from_rows([FieldVector(field, (field.one(), a)), fv(field, 0, 1)], 2, field=field)
        c = convergents(field, 5)[-1]
        axes = (range(c.numerator - 2, c.numerator + 3), range(-c.denominator - 2,
                                                                -c.denominator + 3))
        before = table(p, axes)  # caches the row's enclosure at the current interval
        for _ in range(8):
            field._refine()
        assert table(p, axes) == before == by_points(p, axes)
        for q in (p, from_rows([], 2, field=field)):
            with pytest.raises(DimensionMismatch):
                table(q, axes[:1])


def test_a_zero_divisor_lead_raises_invalid_field():
    # (x^2 - 2)(x^3 - 3) falsely asserted irreducible, alpha = sqrt2: the lead
    # alpha^3 - 3 is nonzero at alpha but a zero divisor, so no row can be divided by it
    field = NumberField((6, 0, -3, -2, 0, 1), (Q(7, 5), Q(143, 100)), assert_irreducible=True)
    row = FieldVector(field, (field.element([-3, 0, 0, 1, 0]), field.one()))
    with pytest.raises(InvalidField):
        from_rows([row], 2, field=field)
