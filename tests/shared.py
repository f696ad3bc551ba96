"""Row builders and a box oracle shared by the test modules."""

import itertools

from preorderspace import FieldVector, NumberField, Sign, from_rows

QF = NumberField.rational()


def fv(field, *entries):
    return FieldVector.from_rationals(field, entries)


def lex2():
    """The lexicographic preorder on Z^2 over Q: rows (1, 0) then (0, 1)."""
    return from_rows([fv(QF, 1, 0), fv(QF, 0, 1)], 2, field=QF)


def box_m_subset(coarse, fine, bound=3):
    """Brute-force necessary condition for refinement on a box."""
    for u in itertools.product(range(-bound, bound + 1), repeat=coarse.n):
        if coarse.sign_of(u) == Sign.POS and fine.sign_of(u) != Sign.POS:
            return False
        if fine.sign_of(u) == Sign.ZERO and coarse.sign_of(u) != Sign.ZERO:
            return False
    return True
