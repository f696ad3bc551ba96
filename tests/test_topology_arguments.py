"""The argument checks of the topology entry points, and a fuzz of them.

fingerprint, Fingerprint.sign, Fingerprint.restrict, distance,
first_disagreement_level, perturb_in_ball and same_type_neighbors take levels,
counts and integer box points.  Each call ends in a value or in one of the package's error
types; a level or count that is not an int (a bool is not one), a coordinate
that is not an integer and a point that is not a sequence are RangeErrors,
checked once at the entry point, and two preorders over different fields or
ambient spaces are FieldMismatch or DimensionMismatch.  Where a value comes
back it is checked against the per-point oracles.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preorderspace import (DimensionMismatch, Distance, FieldMismatch, FieldVector, NumberField,
                           RangeError, Sign, distance, errors, fingerprint, from_rows,
                           perturb_in_ball, same_type_neighbors)
from preorderspace import topology
from preorderspace.topology import first_disagreement_level
from scan_reference import first_disagreement_level_by_points

QF = NumberField.rational()
SQRT2 = NumberField((-2, 0, 1), (1, 2))
PACKAGE_ERRORS = tuple(e for e in vars(errors).values()
                       if isinstance(e, type) and issubclass(e, Exception))


def slope(field, *entries):
    return from_rows([FieldVector.from_rationals(field, entries)], len(entries), field=field)


# --- the two argument bugs ---------------------------------------------------

def test_fingerprint_sign_refuses_a_point_outside_the_integers():
    p = slope(QF, 1, -2)
    fp = fingerprint(p, 2)
    for u in ((Q(5, 2), 1), ("1", "1"), (1.0, 1), (True, 1), (None, 1), 5, None, 1.5, Q(2)):
        with pytest.raises(RangeError):
            fp.sign(u)
    for u in ((Q(4, 2), 1), (Q(4, 2), -1), (Q(-6, 3), Q(1))):
        assert fp.sign(u) == p.sign_of(u)
    assert fp.sign((Q(4, 2), -1)) == Sign.POS


def test_levels_and_counts_must_be_integers():
    p = slope(QF, 1, -2)
    q = slope(QF, 1, 3)
    centre = from_rows([FieldVector(SQRT2, (SQRT2.one(), SQRT2.alpha()))], 2, field=SQRT2)
    calls = [lambda: fingerprint(p, 1.5), lambda: fingerprint(p, True),
             lambda: fingerprint(p, "2"), lambda: fingerprint(p, Q(2)),
             lambda: fingerprint(p, 2).restrict(1.5), lambda: fingerprint(p, 2).restrict(False),
             lambda: distance(p, q, 2.5), lambda: distance(p, q, "3"), lambda: distance(p, q, True),
             lambda: perturb_in_ball(centre, 1.5), lambda: perturb_in_ball(centre, True),
             lambda: same_type_neighbors(centre, 1.5, 1), lambda: same_type_neighbors(centre, 1, 1.5),
             lambda: same_type_neighbors(centre, "1", 1), lambda: same_type_neighbors(centre, 1, True)]
    for call in calls:
        with pytest.raises(RangeError):
            call()
    # the same calls with int arguments still answer
    assert fingerprint(p, 2).restrict(1).level == 1
    assert distance(p, q, 3) == Distance.exact(1)
    assert len(same_type_neighbors(centre, 1, 2)) == 2


def test_first_disagreement_level_checks_its_arguments():
    p, q = slope(QF, 1, -2), slope(QF, 1, 3)
    for other, error in ((slope(QF, 1, -2, 0), DimensionMismatch), (slope(SQRT2, 1, -2), FieldMismatch)):
        with pytest.raises(error):
            first_disagreement_level(p, other, 3)
    for level_max in (1.5, "3", True, -1, Q(2), 10 ** 6):
        with pytest.raises(RangeError):
            first_disagreement_level(p, q, level_max)
    assert first_disagreement_level(p, q, 0) is None
    assert first_disagreement_level(p, q, 3) == first_disagreement_level_by_points(p, q, 3) == 1


# --- fuzz --------------------------------------------------------------------

PREORDERS = [
    from_rows([], 2, field=QF),
    slope(QF, 1),
    slope(QF, 1, -2),
    slope(QF, 3, -5),
    slope(QF, 2, 3, -1),
    from_rows([FieldVector.from_rationals(QF, (1, -1, 0)), FieldVector.from_rationals(QF, (0, 1, 2))],
              3, field=QF),
    from_rows([FieldVector(SQRT2, (SQRT2.one(), SQRT2.alpha()))], 2, field=SQRT2),
    from_rows([FieldVector(SQRT2, (SQRT2.one(), SQRT2.alpha(), SQRT2.zero()))], 3, field=SQRT2),
    slope(SQRT2, 1, Q(7, 5)),
    slope(SQRT2, 1, Q(17, 12)),
    from_rows([], 3, field=SQRT2),
]
PREORDER = st.sampled_from(PREORDERS)
JUNK = st.one_of(st.none(), st.booleans(), st.floats(-4, 4), st.text(max_size=2),
                 st.fractions(-4, 4, max_denominator=3), st.sampled_from([[], (1,), "1", 1j]))


def mostly(good, bad):
    """good three times in four, else bad (a plain | would weigh every branch of bad)."""
    return st.integers(0, 3).flatmap(lambda i: good if i else bad)


# small levels keep every box within the budget; huge ones are refused before a scan
LEVEL = mostly(st.integers(-1, 3), st.one_of(JUNK, st.integers(10 ** 6, 10 ** 30),
                                             st.integers(-10 ** 30, -10 ** 6)))
COORDINATE = mostly(st.integers(-4, 4) | st.integers(-4, 4).map(Q), JUNK)


def points(n):
    """Mostly points of Z^n, some with a junk coordinate, some of another length,
    and some that are no sequence at all."""
    return mostly(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                  st.lists(COORDINATE, min_size=n, max_size=n).map(tuple)
                  | st.lists(COORDINATE, max_size=4) | JUNK | st.integers(-3, 3))


def partners(p):
    """Mostly preorders on p's ambient space over p's field, and some on others."""
    return st.sampled_from([q for q in PREORDERS if (q.field, q.n) == (p.field, p.n)]) | PREORDER


FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def typed(call, *args):
    """call(*args), or None when it raises one of the package's error types."""
    try:
        return call(*args)
    except PACKAGE_ERRORS:
        return None


def expected_distance(p, q, m):
    if p.equals(q):
        return Distance.zero()
    level = first_disagreement_level_by_points(p, q, 2 * m)
    return Distance.at_most(m + 1) if level is None else Distance.exact((level + 1) // 2)


@FUZZ
@given(p=PREORDER, level=LEVEL, sub=LEVEL, data=st.data())
def test_fuzz_fingerprints(p, level, sub, data):
    fp = typed(fingerprint, p, level)
    if fp is None:
        return
    assert fp.level == level and type(level) is int
    point = data.draw(points(p.n))
    sign = typed(fp.sign, point)
    if sign is not None:
        assert sign == p.sign_of(point), (p, level, point)
    restricted = typed(fp.restrict, sub)
    if restricted is not None:
        assert type(sub) is int and 0 <= sub <= level
        assert restricted == fingerprint(p, sub)


@FUZZ
@given(p=PREORDER, m=LEVEL, data=st.data())
def test_fuzz_distance(p, m, data):
    q = data.draw(partners(p))
    d = typed(distance, p, q, m)
    if d is not None:
        assert type(m) is int and d == expected_distance(p, q, m), (p, q, m)


@FUZZ
@given(p=PREORDER, m=LEVEL, count=LEVEL, same_type=st.booleans())
def test_fuzz_witnesses(p, m, count, same_type):
    w = typed(perturb_in_ball, p, m, same_type)
    if w is not None:
        assert not w.equals(p) and fingerprint(w, 2 * m) == fingerprint(p, 2 * m)
        assert not same_type or w.type_vec == p.type_vec
    neighbors = typed(same_type_neighbors, p, m, count)
    if neighbors is not None:
        assert len(neighbors) == count
        for i, w in enumerate(neighbors):
            assert w.type_vec == p.type_vec and fingerprint(w, 2 * m) == fingerprint(p, 2 * m)
            assert not any(w.equals(v) for v in neighbors[:i])


@FUZZ
@given(p=PREORDER, level=LEVEL, data=st.data())
def test_fuzz_first_disagreement_level(p, level, data):
    q = data.draw(partners(p))
    peers = (q.field, q.n) == (p.field, p.n)
    try:
        found = first_disagreement_level(p, q, level)
    except (FieldMismatch, DimensionMismatch):
        assert not peers
        return
    except RangeError:
        assert peers and (type(level) is not int or level < 0
                          or (2 * level + 1) ** p.n > topology.MAX_BOX_POINTS)
        return
    assert peers and type(level) is int
    assert found == first_disagreement_level_by_points(p, q, level), (p, q, level)

