"""Canonicalization builds no Fraction on integer input, and extend runs no echelon.

A profile hook counts the calls of fractions.Fraction.__new__ (every Fraction
construction, arithmetic results included) made while extend, map_layers or
solve is on the stack.  Rows from integer layers over Q, Q(sqrt 2), Q(cbrt 2)
and Q(2^(1/4)) go through from_rows and apply with an integer matrix, and the
count stays zero; so it does for the compose/decompose round trip, watched whole.  The same hook counts
the echelon calls made under extend, which divides each row by its lead
in one fraction-free elimination (NumberField.divide), and that count is
zero too; each row step makes exactly one divide call and no mat_mul call,
and an element inverse or quotient one divide call; and the cleared calls
made under reject or orthogonal_basis, which take integer vectors as they
are, and that count is zero as well.  Rationals are read
once, at the top (rref and solve clear their whole input through cleared),
so no cleared call is made under echelon or sign_of_coeffs either, and the
Sturm chains and integer-root search that check a field's minimal polynomial
build no Fraction.

Subspaces are stored like rows too: rref and nullspace_basis give integer rows
over one den, so on integer input the eliminations, every kernel and subspace
(residue groups, flags, intersections, membership), project and orbit_witness
build no Fraction, and decompose hands out its basis as the integer rows it stores.

A residue group is read off the rows' stored bases (one rref of the kernel
of n - degree basis vectors), kept on the preorder, and not eliminated at all
at degree 0: the rref calls made under Preorder.residue_group are counted.

Field elements and automorphisms are stored like rows, as integers over one
denominator: on integer input, element arithmetic, a row's entries, dot
products and scaling, and automorphism construction, compose, inverse and
apply build no Fraction either, and equal values have equal integers.
"""

import random
import sys
from fractions import Fraction

import pytest

from preorderspace import (Automorphism, FieldElement, FieldVector, NumberField, Preorder,
                           RationalSubspace, from_rows, perturb_in_ball, same_type_neighbors)
from preorderspace.action import _span_scale, apply, orbit_witness
from preorderspace.errors import RangeError
from preorderspace.lattice import compose, decompose
from preorderspace.linalg import (map_layers, mat_mul, nullspace_basis, orthogonal_basis, project,
                                  rational_kernel, reject)
from preorderspace.preorder import extend
from preorderspace.realfield import (_integer_roots, _is_irreducible_leq4, _sturm_chain,
                                     cleared, echelon, rref, solve)

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
    v = FieldVector.from_layers(FIELDS["sqrt2"], [[1, 2], [3, 4]], 3)
    _, count = fractions_inside([FieldVector.layers], v.layers)
    assert count > 0
    _, count = fractions_inside([solve], v.layers)
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
        def round_trip():
            return compose(*decompose(p, k))

        back, count = fractions_inside([round_trip], round_trip)
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
def test_each_row_step_divides_once_and_multiplies_no_matrix(name):
    field = FIELDS[name]
    rng = random.Random(67 * field.degree)
    n = 6
    raw = integer_rows(field, rng, 3, n)
    raw.insert(2, raw[0].add(raw[1]))  # redundant: no row step
    p, divides = calls_inside([extend], NumberField.divide, from_rows, raw, n, field)
    _, products = calls_inside([extend], mat_mul, from_rows, raw, n, field)
    assert divides == p.rank >= 2 and products == 0

    x, y = nonzero_element(field, rng), nonzero_element(field, rng)
    _, divides = calls_inside([FieldElement.inverse], NumberField.divide, x.inverse)
    assert divides == 1
    _, divides = calls_inside([FieldElement.__truediv__], NumberField.divide, lambda: x / y)
    assert divides == 1


@pytest.mark.parametrize("name", FIELDS)
def test_reject_and_orthogonal_basis_clear_no_denominators(name):
    field = FIELDS[name]
    rng = random.Random(31 * field.degree)
    n = 5
    raw = [FieldVector.from_layers(field, [[rng.randint(-9, 9) for _ in range(n)]
                                           for _ in range(field.degree)]) for _ in range(4)]
    raw.insert(2, raw[0].add(raw[1]))
    w = RationalSubspace(n, [[1] * n])
    _, count = calls_inside([project], cleared, project, raw[0], w)
    assert count > 0
    p, count = calls_inside([reject, orthogonal_basis], cleared, from_rows, raw, n, field)
    assert count == 0 and p.rank >= 2


@pytest.mark.parametrize("name", FIELDS)
def test_echelon_and_sign_of_coeffs_clear_no_denominators(name):
    # rational bases, matrices and vectors are cleared above them, by rref and solve
    field = FIELDS[name]
    rng = random.Random(47 * field.degree)
    n = 4
    raw = [FieldVector.from_layers(field, [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                            for _ in range(n)] for _ in range(field.degree)])
           for _ in range(2)]
    matrix = [[Fraction(int(i == j) + (rng.randint(-2, 2) if j > i else 0), rng.randint(1, 3))
               for j in range(n)] for i in range(n)]

    def work():
        p = from_rows(raw, n, field)
        phi = Automorphism(matrix)
        q = apply(phi.inverse(), p)
        flag = p.flag
        backs = [compose(*decompose(p, k)) for k in range(p.rank + 1)]
        signs = [p.sign_of([Fraction(rng.randint(-5, 5), 3) for _ in range(n)])
                 for _ in range(20)]
        return p, orbit_witness(p, q), flag, backs, signs

    (p, witness, _, backs, _), count = calls_inside([echelon, NumberField.sign_of_coeffs],
                                                    cleared, work)
    assert count == 0 and all(back.equals(p) for back in backs) and p.rank >= 1
    _, count = calls_inside([rref, solve], cleared, work)
    assert count > 0


ROOT_ISOLATION = (
    ((-2, 0, 1), (1, 2)),
    ((-2, 0, 0, 1), (1, 2)),
    ((-2, 0, 0, 0, 1), (1, 2)),
    ((1, 0, -10, 0, 1), (3, 4)),  # sqrt 2 + sqrt 3: its resolvent cubic has an integer root
    ((-5, -1, 0, 1), (1, 2)),
)


def test_integer_polynomials_build_no_fraction_in_root_isolation():
    isolation = [_sturm_chain, _integer_roots]
    for min_poly, isolating in ROOT_ISOLATION:
        field, count = fractions_inside(isolation, NumberField, min_poly, isolating)
        assert count == 0 and field.degree == len(min_poly) - 1
    # reducible: an integer root, and a quartic split into two quadratics
    for coeffs in ((-6, 1, 1), (4, 0, 0, 0, 1), (2, 0, -3, 0, 1)):
        irreducible, count = fractions_inside(isolation, _is_irreducible_leq4, coeffs)
        assert count == 0 and not irreducible
    _, count = fractions_inside([NumberField.__init__], NumberField, *ROOT_ISOLATION[0])
    assert count > 0  # the isolating interval is read as Fractions, outside the isolation


def integer_rows(field, rng, count, n):
    return [FieldVector.from_layers(field, [[rng.randint(-6, 6) for _ in range(n)]
                                            for _ in range(field.degree)]) for _ in range(count)]


def nonzero_element(field, rng):
    x = field.zero()
    while x.is_zero():
        x = field.element([rng.randint(-5, 5) for _ in range(field.degree)])
    return x


@pytest.mark.parametrize("name", FIELDS)
def test_element_arithmetic_on_integers_builds_no_fraction(name):
    field = FIELDS[name]
    rng = random.Random(37 * field.degree)
    x, y = nonzero_element(field, rng), nonzero_element(field, rng)

    def arithmetic():
        z = (x + y) * (x - y) / y + y.inverse() - x / 3
        return z, z.inverse(), -z, z.sign(), z.is_zero(), str(z), z.to_json()

    (z, inverse, *_), count = fractions_inside([arithmetic], arithmetic)
    assert count == 0 and z * inverse == field.one() and z.den > 1


@pytest.mark.parametrize("name", FIELDS)
def test_row_entries_dot_and_scale_on_integers_build_no_fraction(name):
    field = FIELDS[name]
    rng = random.Random(41 * field.degree)
    (v,) = integer_rows(field, rng, 1, 4)
    mu = nonzero_element(field, rng).inverse()
    u = [rng.randint(-3, 3) for _ in range(4)]

    def reads():
        return v.entries, v.dot(u), v.scale(mu), FieldVector(field, v.entries)

    (entries, dot, scaled, again), count = fractions_inside([reads], reads)
    assert count == 0 and again == v
    assert dot == sum((c * e for c, e in zip(u, entries)), field.zero())
    assert scaled.entries == tuple(e * mu for e in entries)


@pytest.mark.parametrize("name", FIELDS)
def test_witness_searches_on_integers_build_no_fraction(name):
    # each step eps z, eps = 1/2^e, is the direction's integers over den 2^e
    field = FIELDS[name]
    rng = random.Random(59 * field.degree)
    n = 3
    p = from_rows(integer_rows(field, rng, 2, n), n, field)

    def search():
        return perturb_in_ball(p, 2), same_type_neighbors(p, 2, 2)

    (near, neighbors), count = fractions_inside([search], search)
    assert count == 0 and not near.equals(p) and len(neighbors) == 2
    assert all(q.type_vec == p.type_vec for q in neighbors)


@pytest.mark.parametrize("name", FIELDS)
def test_automorphisms_on_integers_build_no_fraction(name):
    field = FIELDS[name]
    rng = random.Random(43 * field.degree)
    n = 4
    p = from_rows(integer_rows(field, rng, 3, n), n, field)
    phi_matrix = [[int(i == j) + (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
                  for i in range(n)]
    psi_matrix = [[3 * int(i == j) + (rng.randint(-2, 2) if j < i else 0) for j in range(n)]
                  for i in range(n)]

    def act():
        phi, psi = Automorphism(phi_matrix[::-1]), Automorphism(psi_matrix)
        both = phi.compose(psi)
        return both, both.inverse(), apply(both, p), apply(both.inverse(), p)

    (both, inverse, image, back), count = fractions_inside([act], act)
    assert count == 0 and inverse.den > 1
    assert both.compose(inverse) == Automorphism.identity(n) and apply(inverse, image).equals(p)


def test_equal_values_have_equal_integers_and_hashes():
    field = FIELDS["sqrt2"]
    half = [field.element([Fraction(2, 4), 1]), field.element([Fraction(1, 2), "1"]),
            FieldElement(field, [2, 4], 4), FieldElement(field, [-3, -6], -6),
            field.element([1, 2]) / 2]
    assert {(x.ints, x.den) for x in half} == {((1, 2), 2)}
    assert len({hash(x) for x in half}) == 1 and all(x == half[0] for x in half)
    assert half[0].coeffs == (Fraction(1, 2), Fraction(1))
    assert all(type(c) is Fraction for c in half[0].coeffs)
    assert field.from_rational(Fraction(-6, 4)).coeffs == (Fraction(-3, 2), Fraction(0))

    rows = [[Fraction(1, 2), 1], [0, Fraction(3, 2)]]
    scaled = [Automorphism(rows), Automorphism([["1/2", "1"], ["0", "3/2"]]),
              Automorphism([[Fraction(2, 4), Fraction(6, 6)], [0, Fraction(9, 6)]]),
              Automorphism.scalar(2, Fraction(1, 2)).compose(Automorphism([[1, 2], [0, 3]])),
              Automorphism([[2, 0], [0, 2]]).compose(Automorphism(rows)).compose(
                  Automorphism.scalar(2, Fraction(1, 2)))]
    assert {(phi.ints, phi.den) for phi in scaled} == {(((1, 2), (0, 3)), 2)}
    assert len({hash(phi) for phi in scaled}) == 1 and all(phi == scaled[0] for phi in scaled)
    assert scaled[0].matrix == ((Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(3, 2)))
    assert all(type(x) is Fraction for row in scaled[0].matrix for x in row)
    assert scaled[0].to_json() == {"matrix": [["1/2", "1"], ["0", "3/2"]]}


def test_stored_forms_take_only_integers():
    # FieldElement(field, ints, den) stores integers; NumberField.element takes rationals
    field = FIELDS["sqrt2"]
    assert field.element([Fraction(1, 2), 1]) == FieldElement(field, [1, 2], 2)
    for ints, den in (([Fraction(1, 2), 1], 1), ([0.5, 1], 1), ([1, 2], Fraction(2)),
                      ([1, 2], 2.0), (["1", 2], 1)):
        with pytest.raises(RangeError):
            FieldElement(field, ints, den)
    with pytest.raises(RangeError):
        FieldVector.from_int_layers(field, [[Fraction(1, 2)], [1]])


@pytest.mark.parametrize("name", FIELDS)
def test_eliminations_kernels_and_subspaces_on_integers_build_no_fraction(name):
    field = FIELDS[name]
    rng = random.Random(53 * field.degree)
    n = 5
    rows = integer_rows(field, rng, 3, n)
    if field.degree == 3:  # a first row of type 2, so orbit_witness needs _span_scale
        rows[0] = FieldVector.from_int_layers(field, [[1, 0, 2, 0, 0], [0, 1, -1, 0, 0],
                                                      [0] * n])
    p = from_rows(rows, n, field)
    phi = Automorphism([[int(i == j) + (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
                        for i in range(n)][::-1])
    q = apply(phi, p)
    constraints = [layer for row in rows[:2] for layer in row.int_layers()]
    a = [[rng.randint(-4, 4) + 20 * (i == j) for j in range(n)] for i in range(n)]
    u = [rng.randint(-3, 3) for _ in range(n)]

    def work():
        w, flag = p.residue_group(), p.flag
        k = rational_kernel(rows[:1], n)
        return (rref(constraints), solve(a, [u] * n), nullspace_basis(constraints, n), w, flag,
                k, k.intersect(w), w.contains(u), [k.contains(b) for b in w.ints],
                project(rows[2], k), orbit_witness(p, q))

    (*_, w, flag, k, meet, _, members, _, witness), count = fractions_inside([work], work)
    assert count == 0 and all(members) and apply(witness, p).equals(q)
    assert meet == w == flag[-1] and k == flag[1]
    _, spans = calls_inside([orbit_witness], _span_scale, orbit_witness, p, q)
    assert (spans > 0) == (field.degree == 3)
    for level in range(p.rank + 1):
        (_, _, basis), count = fractions_inside([decompose], decompose, p, level)
        assert count == 0 and all(type(x) is int for b in basis for x in b)


def residue_eliminations(fn, *args):
    """(fn(*args), the number of rref calls made under Preorder.residue_group)."""
    return calls_inside([Preorder.residue_group], rref, fn, *args)


@pytest.mark.parametrize("name", FIELDS)
def test_a_residue_group_is_eliminated_at_most_once_and_never_at_degree_0(name):
    field = FIELDS[name]
    rng = random.Random(71 * field.degree)
    n = 6
    full = from_rows(integer_rows(field, rng, n, n), n, field)
    w, count = residue_eliminations(full.residue_group)
    assert count == 0 and full.degree == 0 and w == RationalSubspace.zero(n)

    p = from_rows(integer_rows(field, rng, 1, n), n, field)
    w, count = residue_eliminations(lambda: (p.residue_group(), p.residue_group(), p.flag))
    assert count == 1 and p.degree > 0 and w[0] is w[1] is w[2][-1]
    # decompose eliminates the fresh head's residue group, and compose reads it back
    q = from_rows(integer_rows(field, rng, 3, n), n, field)
    back, count = residue_eliminations(lambda: compose(*decompose(q, 1)))
    assert count == 1 and back.equals(q) and q.rank > 1


def test_orbit_witness_on_full_rank_rational_preorders_eliminates_no_residue_group():
    field = FIELDS["Q"]
    rng = random.Random(73)
    n = 4
    p = from_rows(integer_rows(field, rng, n, n), n, field)
    phi = Automorphism([[int(i == j) + (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
                        for i in range(n)])
    q = apply(phi, p)
    witness, count = residue_eliminations(orbit_witness, p, q)
    assert count == 0 and p.degree == q.degree == 0 and apply(witness, p).equals(q)
