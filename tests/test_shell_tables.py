"""Shell sign tables against the per-point oracle.

A box scan asks each preorder for one sign table per shell: the first row's
table over all the shell's products of coordinate ranges, with its zeros filled
from the later rows product by product.  These tests compare that table with
sign_of at every point, on preorders whose first row vanishes in several
products of one shell, and count the row tables a distance scan builds.
"""

import itertools
import random
from fractions import Fraction as Q

import pytest

from preorderspace import Distance, FieldVector, NumberField, distance, from_rows
from preorderspace.topology import _shell_products, first_disagreement_level
from preorder_sampler import rand_preorder
from scan_reference import first_disagreement_level_by_points


def fields():
    """Fresh Q, Q(sqrt2), Q(cbrt2), Q(2^(1/4)): intervals not yet refined."""
    return [NumberField.rational(), NumberField((-2, 0, 1), (1, 2)),
            NumberField((-2, 0, 0, 1), (1, 2)), NumberField((-2, 0, 0, 0, 1), (1, 2))]


def by_points(p, products):
    return [int(p.sign_of(u)) for axes in products for u in itertools.product(*axes)]


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
def test_shell_tables_match_sign_of(n):
    rng = random.Random(900 + n)
    for field in fields():
        preorders = random_ranks(rng, field, n) + zero_set_preorders(field, n)
        assert {p.rank for p in preorders} >= set(range(min(3, n) + 1))
        for p in preorders:
            for k in range(1, 7):
                products = _shell_products(n, k)
                assert p.sign_table(products) == by_points(p, products), (p, k)


def test_zero_set_preorders_leave_zeros_in_several_products_of_a_shell():
    # the case the zero fill's offsets serve: one shell, first-row zeros in more
    # than one product, which the later rows decide
    for field in fields():
        for p in zero_set_preorders(field, 3):
            products = _shell_products(3, 4)
            first_row = p.rows[0].box_signs(products)
            holding = set()
            start = 0
            for i, axes in enumerate(products):
                stop = start + len(list(itertools.product(*axes)))
                if 0 in first_row[start:stop]:
                    holding.add(i)
                start = stop
            assert len(holding) > 1
            assert p.sign_table(products).count(0) < first_row.count(0)


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

    def counted(self, products):
        calls.append(self)
        return box_signs(self, products)

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
