"""Canonicalization builds no Fraction on integer input, and extend runs no echelon.

A profile hook counts the calls of fractions.Fraction.__new__ (every Fraction
construction, arithmetic results included) made while extend, map_layers or
solve is on the stack.  Rows from integer layers over Q, Q(sqrt 2), Q(cbrt 2)
and Q(2^(1/4)) go through from_rows, apply with an integer matrix and the
compose/decompose round trip, and the count stays zero.  The same hook counts
the echelon calls made under extend, which divides each row by its lead
through the norm and the adjugate, and that count is zero too; and the
clear_denominators calls made under reject or orthogonal_basis, which take
integer vectors as they are, and that count is zero as well.
"""

import random
import sys
from fractions import Fraction

import pytest

from preorderspace import Automorphism, FieldVector, NumberField, RationalSubspace, from_rows
from preorderspace.action import apply
from preorderspace.lattice import compose, decompose
from preorderspace.linalg import map_layers, orthogonal_basis, project, reject
from preorderspace.preorder import extend
from preorderspace.realfield import clear_denominators, echelon, rref, solve

FIELDS = {
    "Q": NumberField.rational(),
    "sqrt2": NumberField((-2, 0, 1), (1, 2)),
    "cbrt2": NumberField((-2, 0, 0, 1), (1, 2)),
    "root4_2": NumberField((-2, 0, 0, 0, 1), (1, 2)),
}
INTEGER_PATH = (extend, map_layers, solve)


def calls_inside(watched, target, fn, *args):
    """(fn(*args), the number of calls of target made with a watched function on the stack)."""
    codes = {f.__code__ for f in watched}
    target_code = target.__code__
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is target_code:
            caller = frame.f_back
            while caller is not None and caller.f_code not in codes:
                caller = caller.f_back
            count += caller is not None

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, count


def fractions_inside(watched, fn, *args):
    """(fn(*args), the number of Fractions constructed with a watched function on the stack)."""
    return calls_inside(watched, Fraction.__new__, fn, *args)


def test_the_hook_counts_fraction_constructions():
    _, count = fractions_inside([rref], rref, [[1, 2], [3, 4]])
    assert count > 0
    _, count = fractions_inside([solve], rref, [[1, 2], [3, 4]])
    assert count == 0


@pytest.mark.parametrize("name", FIELDS)
def test_integer_rows_canonicalize_map_and_recompose_without_fractions(name):
    field = FIELDS[name]
    rng = random.Random(17 * field.degree)
    n = 5
    raw = [FieldVector.from_layers(field, [[rng.randint(-6, 6) for _ in range(n)]
                                           for _ in range(field.degree)]) for _ in range(3)]
    raw.insert(2, raw[0].add(raw[1]))
    p, count = fractions_inside(INTEGER_PATH, from_rows, raw, n, field)
    assert count == 0 and p.rank >= 2

    matrix = [[int(i == j) + (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
              for i in range(n)]
    phi = Automorphism(matrix[::-1])
    image, count = fractions_inside(INTEGER_PATH, apply, phi, p)
    assert count == 0 and image.type_vec == p.type_vec

    for k in range(p.rank + 1):
        back, count = fractions_inside(INTEGER_PATH, lambda: compose(*decompose(p, k)))
        assert count == 0 and back.equals(p)


def test_the_hook_counts_echelon_calls():
    _, count = calls_inside([solve], echelon, solve, [[1, 2], [3, 4]], [[1], [0]])
    assert count == 1


@pytest.mark.parametrize("name", FIELDS)
def test_extend_makes_no_echelon_call(name):
    field = FIELDS[name]
    rng = random.Random(29 * field.degree)
    n = 4
    raw = [FieldVector.from_layers(field, [[rng.randint(-9, 9) for _ in range(n)]
                                           for _ in range(field.degree)]) for _ in range(n)]
    p, count = calls_inside([extend], echelon, from_rows, raw, n, field)
    assert count == 0 and p.degree == 0


@pytest.mark.parametrize("name", FIELDS)
def test_reject_and_orthogonal_basis_clear_no_denominators(name):
    field = FIELDS[name]
    rng = random.Random(31 * field.degree)
    n = 5
    raw = [FieldVector.from_layers(field, [[rng.randint(-9, 9) for _ in range(n)]
                                           for _ in range(field.degree)]) for _ in range(4)]
    raw.insert(2, raw[0].add(raw[1]))
    w = RationalSubspace.from_spanning([[1] * n], n)
    _, count = calls_inside([project], clear_denominators, project, raw[0], w)
    assert count > 0
    p, count = calls_inside([reject, orthogonal_basis], clear_denominators, from_rows, raw, n, field)
    assert count == 0 and p.rank >= 2
