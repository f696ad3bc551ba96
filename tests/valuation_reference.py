"""The tuple comparison of monomial values, kept as the reference for valuation.

The package compares two values by one sign query on the difference of their
exponents.  This module does it the older way: the value of x^g is the tuple
(g.r_1, ..., g.r_s) of field elements, and two tuples compare
lexicographically by field subtraction and one sign per entry.
"""

from fractions import Fraction as Q

from preorderspace import LaurentPolynomial


def value_tuple(p, g):
    """(g.r_1, ..., g.r_s) for the rows r_i of p."""
    return tuple(row.dot([Q(x) for x in g]) for row in p.rows)


def tuple_cmp(a, b):
    """-1, 0 or 1 as the tuple a is lexicographically below, equal to or above b."""
    for x, y in zip(a, b):
        s = (x - y).sign()
        if s:
            return s
    return 0


def reference_min_support(p, f):
    """(least value tuple over the support of f, exponents achieving it in lex order)."""
    best, achievers = None, []
    for g in f.support():
        t = value_tuple(p, g)
        c = -1 if best is None else tuple_cmp(t, best)
        if c < 0:
            best, achievers = t, [g]
        elif c == 0:
            achievers.append(g)
    return best, achievers


def reference_valuate(p, f):
    """The value tuple of f, or None for the zero polynomial."""
    return reference_min_support(p, f)[0]


def reference_initial_form(p, f):
    achievers = reference_min_support(p, f)[1]
    return LaurentPolynomial(f.cf, f.n, {g: f.terms[g] for g in achievers})
