"""Seeded random preorders shared by the test modules."""

from fractions import Fraction as Q

from preorderspace import FieldVector, from_rows


def rand_preorder(rng, field, n, num):
    """Up to n random rows; each entry has rational part in [-num, num] / {1, 2}
    and the same random integer in [-2, 2] on every higher power of alpha."""
    rows = [FieldVector(field, tuple(
        field.element([Q(rng.randint(-num, num), rng.randint(1, 2))] +
                      [Q(rng.randint(-2, 2))] * (field.degree - 1))
        for _ in range(n))) for _ in range(rng.randint(0, n))]
    return from_rows(rows, n, field=field)
