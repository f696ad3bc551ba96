"""Seeded random generators for property suites and tests.

Everything is driven by an explicit random.Random so the suites are
reproducible from a seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .action import Automorphism
from .linalg import FieldVector
from .preorder import Preorder, from_rows
from .realfield import NumberField
from .valuation import CoefficientField, LaurentPolynomial

Q = Fraction


def field_q() -> NumberField:
    return NumberField.rational()


def field_sqrt2() -> NumberField:
    return NumberField((-2, 0, 1), (1, 2))


def rand_fraction(rng: random.Random, num: int = 3, den: int = 2) -> Fraction:
    return Q(rng.randint(-num, num), rng.randint(1, den))


def rand_element(rng: random.Random, field: NumberField, num: int = 3, den: int = 2,
                 sparsity: float = 0.4):
    coeffs = []
    for _ in range(field.degree):
        coeffs.append(Q(0) if rng.random() < sparsity else rand_fraction(rng, num, den))
    return field.element(coeffs)


def rand_row(rng: random.Random, field: NumberField, n: int) -> FieldVector:
    return FieldVector(field, tuple(rand_element(rng, field) for _ in range(n)))


def rand_raw_rows(rng: random.Random, field: NumberField, n: int,
                  max_rows: int | None = None) -> list[FieldVector]:
    count = rng.randint(0, max_rows if max_rows is not None else n)
    rows = [rand_row(rng, field, n) for _ in range(count)]
    if rows and rng.random() < 0.25:
        # exercise redundant-row dropping with a positive rescaling
        rows.append(rows[rng.randrange(len(rows))].scale(rng.randint(1, 3)))
    return rows


def rand_preorder(rng: random.Random, field: NumberField, n: int,
                  max_rows: int | None = None) -> Preorder:
    return from_rows(rand_raw_rows(rng, field, n, max_rows), n, field=field)


def rand_int_vector(rng: random.Random, n: int, bound: int = 3) -> tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def rand_laurent(rng: random.Random, cf: CoefficientField, n: int,
                 max_terms: int = 4, emax: int = 3, nonzero: bool = True) -> LaurentPolynomial:
    terms: dict = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exp = tuple(rng.randint(-emax, emax) for _ in range(n))
        if cf.kind == "Q":
            c = rand_fraction(rng)
        else:
            c = rng.randrange(cf.p)
        terms[exp] = terms.get(exp, 0) + c
    poly = LaurentPolynomial(cf, n, terms)
    if nonzero and poly.is_zero():
        exp = tuple(rng.randint(-emax, emax) for _ in range(n))
        poly = LaurentPolynomial(cf, n, {exp: 1})
    return poly


def rand_unimodular(rng: random.Random, n: int, steps: int = 6) -> Automorphism:
    """Product of elementary integer operations; determinant is +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and n > 1:
            while j == i:
                j = rng.randrange(n)
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            m[i] = [-x for x in m[i]]
        elif n > 1:
            while j == i:
                j = rng.randrange(n)
            k = rng.choice((-2, -1, 1, 2))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return Automorphism(m)


def rand_gl(rng: random.Random, n: int) -> Automorphism:
    """Random element of GL_n(Q): unimodular base with nonzero row scalings."""
    base = rand_unimodular(rng, n)
    rows = []
    for row in base.ints:
        c = Q(0)
        while c == 0:
            c = rand_fraction(rng, 3, 2)
        rows.append([c * x for x in row])
    return Automorphism(rows)
