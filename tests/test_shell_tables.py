"""Shell sign tables against the per-point oracle.

A box scan asks each preorder for one sign table per shell: the first row's
table over the shell's coordinate columns, with its zeros filled from the
later rows.  These tests compare that table with sign_of at every point, on
preorders whose first row vanishes in several products of one shell, check
that exactly the points within a region's one radius go to sign_at, and
count the row tables a distance scan builds.
"""

import itertools
import random
from fractions import Fraction as Q
from operator import mul

import pytest

from preorderspace import DimensionMismatch, Distance, FieldVector, NumberField, distance, from_rows
from preorderspace.linalg import Columns
from preorderspace.topology import _shell_columns, _shell_products, first_disagreement_level
from preorder_sampler import rand_preorder
from scan_reference import first_disagreement_level_by_points, shell_signs_by_points


def fields():
    """Fresh Q, Q(sqrt2), Q(cbrt2), Q(2^(1/4)): intervals not yet refined."""
    return [NumberField.rational(), NumberField((-2, 0, 1), (1, 2)),
            NumberField((-2, 0, 0, 1), (1, 2)), NumberField((-2, 0, 0, 0, 1), (1, 2))]


def by_points(p, region):
    return [int(p.sign_of(u)) for u in zip(*region.cols)]


def random_ranks(rng, field, n):
    """One seeded preorder, drawn with small entries, of each rank the draws reach."""
    found = {}
    for _ in range(60):
        p = rand_preorder(rng, field, n, 2)
        found.setdefault(p.rank, p)
    return [found[rank] for rank in sorted(found)]


def zero_set_preorders(field, n):
    """Preorders whose rational first row x_0 - x_1 vanishes in more than one
    product of every shell (n >= 3), so later rows decide there: a second row
    with entries in 1 + alpha, and for n >= 3 a rational second row whose zeros
    a third row decides (rank 3)."""
    b = field.alpha() + 1
    first = FieldVector.from_rationals(field, (1, -1) + (0,) * (n - 2))
    second = FieldVector(field, (field.zero(), b) + (b * b - 3,) * (n - 2))
    out = [from_rows([first, second], n, field=field)]
    if n >= 3:
        flat = FieldVector.from_rationals(field, (0, 1, -1) + (0,) * (n - 3))
        third = FieldVector(field, (field.zero(),) * (n - 1) + (b,))
        out.append(from_rows([first, flat, third], n, field=field))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shell_tables_match_sign_of(n, monkeypatch):
    calls = []
    sign_at = FieldVector.sign_at
    monkeypatch.setattr(FieldVector, "sign_at", lambda v, u: calls.append(1) or sign_at(v, u))
    rng = random.Random(900 + n)
    for field in fields():
        preorders = random_ranks(rng, field, n) + zero_set_preorders(field, n)
        assert {p.rank for p in preorders} >= set(range(min(3, n) + 1))
        for p in preorders:
            for k in range(1, 7):
                shell = _shell_columns(n, k)
                table = p.sign_table(shell)
                assert dict(zip(zip(*shell.cols), table)) == shell_signs_by_points(p, k), (p, k)
    assert calls  # some points went to sign_at


def test_zero_set_preorders_leave_zeros_in_several_products_of_a_shell():
    # the case the zero fill serves: one shell, first-row zeros at points of
    # more than one of its products, which the later rows decide
    products = _shell_products(3, 4)
    shell = _shell_columns(3, 4)
    for field in fields():
        for p in zero_set_preorders(field, 3):
            first_row = p.rows[0].box_signs(shell)
            zeros = {u for u, s in zip(zip(*shell.cols), first_row) if s == 0}
            holding = {i for i, axes in enumerate(products)
                       if zeros.intersection(itertools.product(*axes))}
            assert len(holding) > 1
            assert p.sign_table(shell).count(0) < first_row.count(0)


def test_box_signs_needs_one_axis_per_coordinate():
    row = FieldVector.from_rationals(NumberField.rational(), (1, -2))
    assert row.box_signs(Columns.of([(1, 1)], 2, 1)) == [-1]
    # a missing column, and an extra one, are refused whatever the points,
    # none included; and so are a preorder's axes of the wrong count
    for points, n in (([(1,)], 1), ([(1, 1, 1)], 3), ([(1, 0, 2), (1, 1, 1)], 3), ([], 1), ([], 3)):
        with pytest.raises(DimensionMismatch):
            row.box_signs(Columns.of(points, n, 2))
    for p in (from_rows([row], 2), from_rows([], 2)):
        for axes in (((1,),), ((1,), (1,), (1,)), ((), (), ())):
            with pytest.raises(DimensionMismatch):
                p.box_signs(axes)


def test_a_rational_row_decides_its_box_signs_without_sign_at(monkeypatch):
    # a row with rational entries has enclosure radii 0, so its mids are exact
    # and their zeros are exact zeros: box_signs makes no sign_at call
    calls = []
    sign_at = FieldVector.sign_at
    monkeypatch.setattr(FieldVector, "sign_at", lambda v, u: calls.append(1) or sign_at(v, u))
    half = Columns.of([u for k in range(1, 5) for u in zip(*_shell_columns(3, k).cols)], 3, 4)
    for field in fields():
        b = field.alpha() + 1
        rational = FieldVector.from_rationals(field, (1, -1, 2))
        irrational = FieldVector(field, (field.one(), -b, field.zero()))
        for row in (rational, irrational):
            p = from_rows([row], 3, field=field)
            expected = by_points(p, half)
            del calls[:]
            assert row.box_signs(half) == expected and 0 in expected
            assert (len(calls) == 0) == (row is rational or field.degree == 1), field


@pytest.mark.parametrize("n", [3, 4])
def test_first_disagreement_level_matches_the_point_scan_on_shared_first_rows(n):
    rng = random.Random(950 + n)
    levels = set()
    level_max = {3: 8, 4: 4}[n]
    for field in fields():
        p = zero_set_preorders(field, n)[0]
        first, second = p.rows[:2]
        # the same first row, so every mismatch lies on its zero set; the second
        # rows are random, or p's with 1/j added to its entries past the second
        seconds = [rand_preorder(rng, field, n, 3).rows for _ in range(4)]
        seconds += [[second.add(FieldVector.from_rationals(field, (0, 0) + (Q(1, j),) * (n - 2)))]
                    for j in (2, 3, 5, 8)]
        for rows in seconds:
            q = from_rows([first] + list(rows), n, field=field)
            level = first_disagreement_level(p, q, level_max)
            assert level == first_disagreement_level_by_points(p, q, level_max)
            levels.add(level)
        for _ in range(4):
            p, q = rand_preorder(rng, field, n, 3), rand_preorder(rng, field, n, 3)
            level = first_disagreement_level(p, q, level_max)
            assert level == first_disagreement_level_by_points(p, q, level_max)
            levels.add(level)
    assert len(levels) >= 4


def test_distance_builds_one_row_table_per_preorder_per_level(monkeypatch):
    field = NumberField((-2, 0, 1), (1, 2))
    p = from_rows([FieldVector(field, (field.one(), field.alpha()))], 2, field=field)
    calls = []
    box_signs = FieldVector.box_signs

    def counted(self, region):
        calls.append(self)
        return box_signs(self, region)

    for num, den in ((3, 2), (7, 5), (17, 12), (41, 29)):
        q = from_rows([FieldVector.from_rationals(field, (1, Q(num, den)))], 2, field=field)
        level = first_disagreement_level_by_points(p, q, 150)
        assert level is not None
        with monkeypatch.context() as patch:
            patch.setattr(FieldVector, "box_signs", counted)
            calls.clear()
            assert distance(p, q, 75) == Distance.exact((level + 1) // 2)
        # the scan stops at the mismatch: levels 1..level, one table per preorder each
        assert len(calls) <= 2 * level, (num, den, level, len(calls))
        assert {id(row) for row in calls} == {id(p.rows[0]), id(q.rows[0])}


def wide_quartic_preorders(n):
    """Preorders over a freshly built Q(2^(1/4)), whose isolating interval is
    still [1, 2], so its enclosure radii are as wide as they come."""
    field = NumberField((-2, 0, 0, 0, 1), (1, 2))
    a = field.alpha()
    rows = {2: [(field.one(), -a), (a * a * a, field.one())],
            3: [(field.from_rational(4), a, 1 - a), (field.zero(), a, field.one())]}[n]
    return from_rows([FieldVector(field, row) for row in rows], n, field=field)


def undecided_points(row, region):
    """The points of region, in order, whose enclosure dot product lies within
    bound * sum(rads) of zero, read off the enclosure box_signs will fetch."""
    _, mids, rads = row.field.enclosure(row.int_layers())
    radius = region.bound * sum(rads)
    return [u for u in zip(*region.cols) if abs(sum(map(mul, mids, u))) <= radius]


def counted_sign_at(monkeypatch):
    """The (row, point) of each sign_at call, in order, from now on."""
    calls = []
    sign_at = FieldVector.sign_at
    monkeypatch.setattr(FieldVector, "sign_at",
                        lambda v, u: calls.append((v, tuple(u))) or sign_at(v, u))
    return calls


@pytest.mark.parametrize("n", [2, 3])
def test_one_radius_per_region_sends_exactly_the_band_to_sign_at(n, monkeypatch):
    # every point outside the band |mid| <= bound * sum(rads) is decided by the
    # region's one radius; the band, and only it, goes to sign_at
    calls = counted_sign_at(monkeypatch)
    decided = undecided = 0
    for k in range(1, 7):
        p = wide_quartic_preorders(n)  # fresh, so no earlier call has refined the interval
        shell = _shell_columns(n, k)
        band = undecided_points(p.rows[0], shell)
        del calls[:]
        table = p.rows[0].box_signs(shell)
        assert [u for _, u in calls] == band, k
        assert table == [p.rows[0].dot(u).sign() for u in zip(*shell.cols)], k
        assert p.sign_table(shell) == by_points(p, shell), k
        decided += shell.size - len(band)
        undecided += len(band)
    assert decided and undecided


def test_preorder_box_signs_bound_its_region_by_the_largest_axis_value(monkeypatch):
    # uneven axes: the region's bound is the largest |x| over all of them, so
    # the one radius covers the long axis as well as the short one
    calls = counted_sign_at(monkeypatch)
    reached = 0
    for axes in (([7], range(-2, 3)), (range(-7, 8), [1]), ([1], range(-7, 8)),
                 (range(-2, 3), [-7]), ([0], range(-5, 6)), ([], range(3)),
                 (range(-3, 4), range(-3, 4))):
        p = wide_quartic_preorders(2)
        points = list(itertools.product(*axes))
        bound = max((abs(x) for axis in axes for x in axis), default=0)
        band = undecided_points(p.rows[0], Columns.of(points, 2, bound))
        del calls[:]
        signs = p.box_signs(axes)
        assert [u for v, u in calls if v is p.rows[0]] == band, axes
        reached += bool(band)
        assert signs == [p.sign_of(u) for u in points], axes
    assert reached >= 2
