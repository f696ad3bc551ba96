import itertools
import random
import time
from fractions import Fraction as Q

import pytest

from preorderspace import (
    DimensionMismatch,
    Distance,
    FieldMismatch,
    FieldVector,
    FragmentGraph,
    Isolated,
    NumberField,
    Preorder,
    RangeError,
    Sign,
    RationalSubspace,
    TrivialPreorder,
    WitnessNotFound,
    compose,
    decompose,
    distance,
    enumerate_fragment,
    fingerprint,
    from_rows,
    is_isolated,
    perturb_in_ball,
    refines,
    same_type_neighbors,
    sphere_point,
    to_dot,
)
from preorderspace.preorder import row_of
from preorderspace.sampling import rand_unimodular
from preorderspace import topology
from gram_reference import dual_basis
from preorderspace.topology import (
    _lex_positive,
    _perturbation_directions,
    _shell_columns,
    _shell_products,
    first_disagreement_level,
    half_box,
    half_shell,
)
from preorder_sampler import rand_preorder
from scan_reference import first_disagreement_level_by_points, shell_signs_by_points
from shared import fv

QF = NumberField.rational()


# --- fingerprints -----------------------------------------------------------

def test_fingerprint_trivial():
    p = from_rows([], 2, field=QF)
    fp = fingerprint(p, 3)
    assert all(s == Sign.ZERO for s in fp.signs.values())
    assert fp.sign((0, 0)) == Sign.ZERO


def test_fingerprint_axis():
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    fp = fingerprint(p, 1)
    assert fp.sign((1, 0)) == Sign.POS
    assert fp.sign((-1, 0)) == Sign.NEG
    assert fp.sign((0, 1)) == Sign.ZERO
    assert fp.sign((0, -1)) == Sign.ZERO


def test_fingerprint_irrational(sqrt2):
    p = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    fp = fingerprint(p, 1)
    assert fp.sign((1, -1)) == Sign.NEG  # 1 - sqrt2 < 0


def test_fingerprint_symmetry_storage():
    p = from_rows([fv(QF, 1, 2)], 2, field=QF)
    fp = fingerprint(p, 2)
    for u in fp.signs:
        assert fp.sign(tuple(-x for x in u)) == -fp.sign(u)


def test_signs_are_plain_ints(sqrt2):
    # a sign is the int every table holds; Sign only names the three values
    p = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    fp = fingerprint(p, 2)
    points = ((0, 0), (1, -1), (-1, 1), (2, 0))
    answers = [p.sign_of(u) for u in points] + [fp.sign(u) for u in points]
    answers += [p.compare(u, (0, 0)) for u in points] + list(fp.signs.values())
    assert {type(s) for s in answers} == {int} and set(answers) == {-1, 0, 1}
    assert (Sign.NEG, Sign.ZERO, Sign.POS) == (-1, 0, 1)


def test_fingerprint_sign_outside_the_box_or_of_another_length():
    p = from_rows([fv(QF, 1, 2)], 2, field=QF)
    fp = fingerprint(p, 2)
    assert fp.sign((2, -2)) == Sign.NEG and fp.sign((-2, 2)) == Sign.POS
    for u in ((5, 5), (3, 0), (0, -3)):
        with pytest.raises(RangeError):
            fp.sign(u)
    with pytest.raises(RangeError):
        fp.restrict(1).sign((2, 0))
    for u in ((1,), (1, 0, 0), ()):
        with pytest.raises(DimensionMismatch):
            fp.sign(u)


def relations_equal_on_box(p, q, k):
    """Brute force over ordered pairs of box points."""
    pts = list(itertools.product(range(-k, k + 1), repeat=p.n))
    for u, v in itertools.product(pts, repeat=2):
        le_p = p.compare(u, v) != Sign.POS
        le_q = q.compare(u, v) != Sign.POS
        if le_p != le_q:
            return False
    return True


def test_difference_set_law_exhaustive(sqrt2):
    # restriction equality on G_k as pair relations == fingerprint equality at 2k
    rng = random.Random(73)
    pairs = []
    lex = from_rows([fv(sqrt2, 1, 0), fv(sqrt2, 0, 1)], 2, field=sqrt2)
    for k in (1, 2, 3):
        row = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha() * Q(1, 2 * k)))
        pairs.append((from_rows([row], 2, field=sqrt2), lex))
    for _ in range(6):
        pairs.append((rand_preorder(rng, sqrt2, 2, 2), rand_preorder(rng, sqrt2, 2, 2)))
    for p, q in pairs:
        for k in (1, 2, 3):
            assert relations_equal_on_box(p, q, k) == (fingerprint(p, 2 * k) == fingerprint(q, 2 * k))


def test_fingerprint_json_deterministic():
    p = from_rows([fv(QF, 1, 2)], 2, field=QF)
    blob = fingerprint(p, 1).to_json()
    assert blob["level"] == 1
    assert blob["signs"] == sorted(blob["signs"], key=lambda e: e["u"])
    assert {"u": [1, 0], "s": "+"} in blob["signs"]


# --- distance ----------------------------------------------------------------

def test_distance_identity_and_symmetry():
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    q = from_rows([fv(QF, -1, 0)], 2, field=QF)
    assert distance(p, p, 5) == Distance.zero()
    assert str(distance(p, q, 4)) == "1/1"
    assert distance(p, q, 4) == distance(q, p, 4)


def test_distance_at_most():
    p = from_rows([fv(QF, 1, 10**6)], 2, field=QF)
    q = from_rows([fv(QF, 1, 10**6 + 1)], 2, field=QF)
    d = distance(p, q, 4)
    assert d == Distance.at_most(5)
    assert str(d) == "≤1/5"


def test_distance_vs_pair_restriction_oracle(sqrt2):
    rng = random.Random(79)
    for i in range(25):
        field = sqrt2 if i % 2 else QF
        p = rand_preorder(rng, field, 2, 2)
        q = rand_preorder(rng, field, 2, 2)
        d = distance(p, q, 4)
        if p.equals(q):
            assert d.kind == "zero"
            continue
        agree = [relations_equal_on_box(p, q, k) for k in (1, 2, 3, 4)]
        if d.kind == "exact":
            m = d.m
            assert not agree[m - 1]
            if m >= 2:
                assert agree[m - 2]
        else:
            assert all(agree)


def test_ultrametric_inequality(sqrt2):
    rng = random.Random(83)
    for i in range(60):
        field = sqrt2 if i % 2 else QF
        a, b, c = (rand_preorder(rng, field, 2, 2) for _ in range(3))
        dab = distance(a, b, 5).upper_bound
        dbc = distance(b, c, 5).upper_bound
        dac = distance(a, c, 5).upper_bound
        assert dac <= max(dab, dbc)


def test_ball_inside_subbasic_open(sqrt2):
    rng = random.Random(89)
    for _ in range(40):
        p = rand_preorder(rng, sqrt2, 2, 2)
        q = rand_preorder(rng, sqrt2, 2, 2)
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        if not any(u):
            continue
        ht = max(abs(x) for x in u)
        if fingerprint(p, ht) == fingerprint(q, ht) and q.in_O(u):
            assert p.in_O(u)


# --- isolation and witnesses --------------------------------------------------

def test_isolation_dichotomy(sqrt2):
    assert is_isolated(from_rows([], 2, field=QF))
    assert is_isolated(from_rows([fv(QF, 1, 0)], 2, field=QF))
    p_irr = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    assert not is_isolated(p_irr)
    lex3 = from_rows([fv(QF, 1, 0, 0), fv(QF, 0, 1, 0)], 3, field=QF)
    assert not is_isolated(lex3)


def test_perturb_isolated_raises():
    with pytest.raises(Isolated):
        perturb_in_ball(from_rows([fv(QF, 1, 0)], 2, field=QF), 3)
    with pytest.raises(Isolated):
        same_type_neighbors(from_rows([], 2, field=QF), 3, 1)


def test_perturb_in_ball_past_the_same_type_candidates(sqrt2):
    # type (1, 2), degree 0: every witness in the 1/2 ball changes the type,
    # so the same-type search skips them all and exhausts its budget
    a = sqrt2.alpha()
    p = from_rows([fv(sqrt2, 1, 0, 0), FieldVector(sqrt2, (sqrt2.zero(), sqrt2.one(), a))], 3,
                  field=sqrt2)
    assert (p.type_vec, p.degree) == ((1, 2), 0)
    w = perturb_in_ball(p, 1)
    assert w.matrix_str() == "lex[(1,1/8,1/8*a);(-1,8,0)]" and w.type_vec == (2, 1)
    with pytest.raises(WitnessNotFound):
        perturb_in_ball(p, 1, want_same_type=True)


def test_perturb_contract(sqrt2):
    p = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    w = perturb_in_ball(p, 5, want_same_type=True)
    assert not w.equals(p)
    assert fingerprint(w, 10) == fingerprint(p, 10)
    assert (w.rank, w.degree) == (p.rank, p.degree)


def test_neighbors_deterministic_and_distinct(sqrt2):
    p = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    ns = same_type_neighbors(p, 3, 3)
    assert len(ns) == 3
    for i, a in enumerate(ns):
        assert fingerprint(a, 6) == fingerprint(p, 6)
        assert a.type_vec == p.type_vec
        for b in ns[i + 1:]:
            assert not a.equals(b)
    single = same_type_neighbors(p, 3, 1)
    assert single[0].equals(ns[0])
    assert perturb_in_ball(p, 3, want_same_type=True).equals(ns[0])


def candidates_by_fingerprint(p, m, want_same_type):
    """Oracle: the witness search accepting a candidate whose whole fingerprint
    on G_{2m} equals p's."""
    reference = fingerprint(p, 2 * m)
    for z in _perturbation_directions(p):
        eps = Q(1, 2)
        for _ in range(topology.MAX_EPS_EXP):
            rows = [p.rows[0].add(z.scale(eps))] + list(p.rows[1:])
            cand = from_rows(rows, p.n, field=p.field)
            eps /= 2
            if cand.equals(p) or (want_same_type and cand.type_vec != p.type_vec):
                continue
            if fingerprint(cand, 2 * m) == reference:
                yield cand


def first_distinct(candidates, count):
    found = []
    for cand in candidates:
        if all(not cand.equals(w) for w in found):
            found.append(cand)
            if len(found) == count:
                break
    return found


WITNESS_FIELDS = [QF, NumberField((-2, 0, 1), (1, 2)), NumberField((-2, 0, 0, 1), (1, 2)),
                  NumberField((-2, 0, 0, 0, 1), (1, 2))]


def test_witness_search_matches_fingerprint_oracle():
    rng = random.Random(97)
    checked = 0
    for field in WITNESS_FIELDS:
        for n in (2, 3):
            centres = []
            while len(centres) < 3:
                p = rand_preorder(rng, field, n, 3)
                if not is_isolated(p):
                    centres.append(p)
            for m, p in enumerate(centres, start=1):
                for same in (False, True):
                    expect = next(candidates_by_fingerprint(p, m, same), None)
                    if expect is not None:
                        assert perturb_in_ball(p, m, want_same_type=same).equals(expect)
                    else:
                        with pytest.raises(WitnessNotFound):
                            perturb_in_ball(p, m, want_same_type=same)
                expect = first_distinct(candidates_by_fingerprint(p, m, True), 2)
                if len(expect) == 2:
                    got = same_type_neighbors(p, m, 2)
                    assert all(a.equals(b) for a, b in zip(got, expect))
                    checked += 1
                else:
                    with pytest.raises(WitnessNotFound):
                        same_type_neighbors(p, m, 2)
    assert checked >= 12


def test_witness_search_stops_at_first_mismatch(monkeypatch):
    # the row (1, alpha^3 + alpha) over Q(2^(1/4)); G_40 of Z^2 has 3280
    # lex-positive points, so each whole fingerprint costs 3280 sign_of calls
    field = NumberField((-2, 0, 0, 0, 1), (1, 2))
    a = field.alpha()
    p = from_rows([FieldVector(field, (field.one(), a * a * a + a))], 2, field=field)
    calls = 0
    sign_of = Preorder.sign_of

    def counted(self, u):
        nonlocal calls
        calls += 1
        return sign_of(self, u)

    monkeypatch.setattr(Preorder, "sign_of", counted)
    w = perturb_in_ball(p, 20)
    assert w.equals(from_rows([FieldVector(field, (field.one(), (a * a * a + a) * Q(256, 257)))],
                              2, field=field))
    assert calls < 4 * 3280


def test_box_scan_signs_mostly_decided_by_the_enclosure(monkeypatch):
    # criterion 03 over Q(2^(1/4)): the slope (1, alpha) against its convergent
    # 1785/1501 agrees on all of G_48, so the scan visits every point; the
    # integer enclosure of each row settles all but the points near a zero set
    field = NumberField((-2, 0, 0, 0, 1), (1, 2))
    p = from_rows([FieldVector(field, (field.one(), field.alpha()))], 2, field=field)
    q = from_rows([FieldVector.from_rationals(field, (1, Q(1785, 1501)))], 2, field=field)
    calls = 0
    sign_of_coeffs = NumberField.sign_of_coeffs

    def counted(self, coeffs):
        nonlocal calls
        calls += 1
        return sign_of_coeffs(self, coeffs)

    monkeypatch.setattr(NumberField, "sign_of_coeffs", counted)
    assert first_disagreement_level(p, q, 48) is None
    points = sum(1 for _ in half_box(2, 48))
    assert points == (97 ** 2 - 1) // 2
    assert calls < 0.05 * points


def test_sphere_point():
    assert sphere_point(from_rows([fv(QF, 1, 0), fv(QF, 0, 1)], 2, field=QF)) == fv(QF, 1, 0)
    assert sphere_point(from_rows([fv(QF, 3, 4)], 2, field=QF)) == fv(QF, 1, Q(4, 3))
    with pytest.raises(TrivialPreorder):
        sphere_point(from_rows([], 2, field=QF))


def test_sphere_point_irrational(sqrt2):
    row = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))
    assert sphere_point(from_rows([row], 2, field=sqrt2)) == row


# --- fragments ---------------------------------------------------------------

def test_fragment_line():
    cands = [fv(QF, 1), fv(QF, -1)]
    g = enumerate_fragment(cands, 1, 1, field=QF)
    assert len(g.nodes) == 3
    assert len(g.edges) == 2
    assert all(i == g.root for i, _ in g.edges)
    assert g.nodes[g.root].is_trivial()


def test_fragment_axes_count():
    cands = [fv(QF, 1, 0), fv(QF, -1, 0), fv(QF, 0, 1), fv(QF, 0, -1)]
    g = enumerate_fragment(cands, 2, 2, field=QF)
    assert len(g.nodes) == 13  # 1 trivial + 4 rank-one + 8 rank-two
    ranks = [p.rank for p in g.nodes]
    assert ranks.count(0) == 1 and ranks.count(1) == 4 and ranks.count(2) == 8
    # every non-root node has exactly one parent inside the fragment
    children = {j for _, j in g.edges}
    assert children == set(range(len(g.nodes))) - {g.root}
    parents = [i for i, _ in g.edges]
    for i, j in g.edges:
        assert refines(g.nodes[i], g.nodes[j])


def test_fragment_empty():
    g = enumerate_fragment([], 2, 2, field=QF)
    assert len(g.nodes) == 1 and not g.edges


def test_fragment_max_rank_must_be_a_nonnegative_integer():
    cands = [fv(QF, 1, 0), fv(QF, 0, 1)]
    for max_rank in (1.5, 1.0, True, "1", None, -1):
        with pytest.raises(RangeError):
            enumerate_fragment(cands, 2, max_rank, field=QF)


def test_fragment_beyond_budget_refused_at_once():
    cands = [fv(QF, i, 1, 0, 0, 0) for i in range(20)]
    start = time.perf_counter()
    with pytest.raises(RangeError):
        enumerate_fragment(cands, 5, 5, field=QF)
    assert time.perf_counter() - start < 0.1


def test_fragment_budget_is_the_extend_count_in_general_position(monkeypatch):
    # 4 candidates in general position at n = 3: every ordered pair of distinct
    # candidates is a rank-2 node, so the budget's bound on row steps is exactly
    # 4 + 4*4 + 4*(4*3) = 68; the search takes one row step (row_of call) per
    # distinct nonzero residue, 4 + 4*3 + 18 = 34, since a candidate redundant
    # at a node is never stepped below it and equal residues are stepped once
    cands = [fv(QF, 1, 0, 0), fv(QF, 0, 1, 0), fv(QF, 0, 0, 1), fv(QF, 1, 1, 1)]
    calls = []
    monkeypatch.setattr(topology, "row_of",
                        lambda field, layers: calls.append(1) or row_of(field, layers))
    monkeypatch.setattr(topology, "MAX_FRAGMENT_EXTENDS", 68)
    ranks = [p.rank for p in enumerate_fragment(cands, 3, 3, field=QF).nodes]
    assert (ranks.count(1), ranks.count(2), len(calls)) == (4, 12, 34)
    assert len(calls) <= 68
    monkeypatch.setattr(topology, "MAX_FRAGMENT_EXTENDS", 67)
    with pytest.raises(RangeError):
        enumerate_fragment(cands, 3, 3, field=QF)


def test_fragment_budget_counts_distinct_candidates():
    # two candidates can never make a node of rank 3, whatever n is
    g = enumerate_fragment([fv(QF, *([1] + [0] * 39)), fv(QF, *([0, 1] + [0] * 38))], 40, 40,
                           field=QF)
    assert [p.rank for p in g.nodes] == [0, 1, 1, 2, 2]


def test_dot_output():
    cands = [fv(QF, 1), fv(QF, -1)]
    g = enumerate_fragment(cands, 1, 1, field=QF)
    dot = to_dot(g)
    assert dot == to_dot(enumerate_fragment(cands, 1, 1, field=QF))
    assert dot.startswith("digraph fragment {")
    assert dot.count("->") == 2
    assert 'label="lex[] rank=0 degree=1 type=()"' in dot


def brute_force_fragment(candidate_rows, n, max_rank, field):
    """Reference: canonicalize every ordered tuple, take covers from refines."""
    seen = {}
    for length in range(max_rank + 1):
        for combo in itertools.product(candidate_rows, repeat=length):
            pre = from_rows(list(combo), n, field=field)
            seen.setdefault(pre.key(), pre)
    nodes = sorted(seen.values(), key=lambda p: (p.rank, p.matrix_str()))
    size = range(len(nodes))
    less = [[i != j and refines(nodes[i], nodes[j]) for j in size] for i in size]
    edges = [(i, j) for i in size for j in size
             if less[i][j] and not any(less[i][k] and less[k][j] for k in size)]
    root = next(i for i in size if nodes[i].is_trivial())
    return FragmentGraph(tuple(nodes), tuple(edges), root, tuple(p.matrix_str() for p in nodes))


def rand_candidates(rng, field, n):
    """Three random rows plus a zero row, a duplicate and a positive multiple."""
    def entry():
        irrational = [Q(rng.randint(-1, 1))] * (field.degree - 1)
        return field.element([Q(rng.randint(-2, 2))] + irrational)

    rows = [FieldVector(field, tuple(entry() for _ in range(n))) for _ in range(3)]
    rows += [fv(field, *[0] * n), rows[0], rows[1].scale(Q(rng.randint(2, 3), 2))]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fragment_matches_brute_force(sqrt2, n):
    rng = random.Random(40 + n)
    for field, max_rank, _ in itertools.product((QF, sqrt2), range(4), range(3)):
        cands = rand_candidates(rng, field, n)
        ref = brute_force_fragment(cands, n, max_rank, field)
        g = enumerate_fragment(cands, n, max_rank, field=field)
        assert to_dot(g) == to_dot(ref)
        assert g.root == ref.root


CBRT2 = NumberField((-2, 0, 0, 1), (1, 2))
FOURTH_RT2 = NumberField((-2, 0, 0, 0, 1), (1, 2))


def kin_candidates(rng, field, n):
    """Three random rows and two's kin: a zero row, a repeat, a positive rational
    and a positive irrational multiple, and a negative rational and a negative
    irrational multiple; candidates a fragment must merge or tell apart."""
    def row():  # layers spanning at most 2 of the n dimensions, so ranks reach past 1
        rational, irrational = [rng.randint(-2, 2) for _ in range(n)], rng.randint(-1, 1)
        return FieldVector(field, tuple(
            field.element([x, irrational * rng.randint(0, 1)] + [0] * (field.degree - 2))
            for x in rational))

    a, b, alpha = row(), row(), field.alpha()
    rows = [a, b, row(), fv(field, *[0] * n), a, b.scale(Q(3, 2)), a.scale(alpha + 1),
            b.scale(-2), a.scale(1 - alpha)]  # 1 - alpha < 0 for alpha > 1
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", [CBRT2, FOURTH_RT2], ids=["cbrt2", "root4_2"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fragment_residues_match_brute_force_over_higher_degree(field, n):
    # a child's residues come from its parent's, rejected off the one new row:
    # the fragment is the brute-force one, and each label is its node's matrix
    rng = random.Random(70 + 10 * n + field.degree)
    for max_rank in range(4):
        cands = kin_candidates(rng, field, n)
        g = enumerate_fragment(cands, n, max_rank, field=field)
        assert to_dot(g) == to_dot(brute_force_fragment(cands, n, max_rank, field))
        assert list(g.labels) == [p.matrix_str() for p in g.nodes]


def test_fragment_candidates_are_checked_at_any_depth(sqrt2):
    # every candidate is checked once, in order, before any row step: the same
    # typed errors as a row step, whether or not max_rank or n leaves a step
    good, short, other = fv(QF, 1, 0), fv(QF, 1), fv(sqrt2, 1, 0, 0)

    def step_error(row, n):
        with pytest.raises((FieldMismatch, DimensionMismatch)) as info:
            from_rows([row], n, field=QF)
        return info.type, str(info.value)

    for n, max_rank, cands, bad in ((2, 0, [good, short, other], short),
                                    (2, 2, [good, short, other], short),
                                    (2, 0, [other, short], other),
                                    (2, 2, [other, short], other),
                                    (0, 2, [good], good)):
        with pytest.raises((FieldMismatch, DimensionMismatch)) as info:
            enumerate_fragment(cands, n, max_rank, field=QF)
        assert (info.type, str(info.value)) == step_error(bad, n)
    for max_rank in (0, 2):
        for cands in ([good, [1, 2]], [(1, 2)], [None, good]):
            with pytest.raises(RangeError):
                enumerate_fragment(cands, 2, max_rank, field=QF)
            with pytest.raises(RangeError):
                enumerate_fragment(cands, 2, max_rank)
    with pytest.raises(RangeError):
        enumerate_fragment([good], "2", 2, field=QF)
    assert len(enumerate_fragment([good], 2, 0, field=QF).nodes) == 1


def children(g, node):
    i = g.nodes.index(node)
    return [g.nodes[j] for up, j in g.edges if up == i]


def test_fragment_merges_candidates_an_irrational_factor_apart(sqrt2):
    # c and (1 + sqrt2) c define one preorder, so they give one rank-1 node
    c = fv(sqrt2, 1, -2, 3)
    cands = [c, c.scale(sqrt2.alpha() + 1)]
    for max_rank in (1, 2):
        g = enumerate_fragment(cands, 3, max_rank, field=sqrt2)
        assert [p.rank for p in g.nodes] == [0, 1]
        assert to_dot(g) == to_dot(brute_force_fragment(cands, 3, max_rank, sqrt2))


def test_fragment_children_merge_by_canonical_row_not_by_projection(sqrt2):
    # after e1, (5, 1 + sqrt2) projects to (1 + sqrt2) times the projection
    # (0, 1) of (1, 1), a positive irrational factor: one child; (5, 1 - sqrt2)
    # projects to (1 - sqrt2) (0, 1), a negative factor: a second child
    e1, ones = fv(sqrt2, 1, 0), fv(sqrt2, 1, 1)
    up = FieldVector(sqrt2, (sqrt2.from_rational(5), sqrt2.alpha() + 1))
    down = FieldVector(sqrt2, (sqrt2.from_rational(5), 1 - sqrt2.alpha()))
    first = from_rows([e1], 2, field=sqrt2)
    for cands, count in (([e1, ones, up], 1), ([e1, ones, down], 2), ([e1, ones, up, down], 2)):
        g = enumerate_fragment(cands, 2, 2, field=sqrt2)
        assert len(children(g, first)) == count
        assert to_dot(g) == to_dot(brute_force_fragment(cands, 2, 2, sqrt2))
    g = enumerate_fragment([e1, ones, up, down], 2, 2, field=sqrt2)
    assert {str(q.rows[1]) for q in children(g, first)} == {"(0,1)", "(0,-1)"}


def test_compose_extends_by_lifted_rows(sqrt2):
    rng = random.Random(59)
    for i in range(40):
        field = sqrt2 if i % 2 else QF
        n = rng.choice((2, 3))
        p = rand_preorder(rng, field, n, 2)
        head, _, echelon = decompose(p, rng.randint(0, p.rank))
        if not echelon:
            continue
        # any basis of the residue group, not only the echelon one
        mix = rand_unimodular(rng, len(echelon)).matrix
        basis = [tuple(sum((c * b[t] for c, b in zip(row, echelon)), Q(0)) for t in range(n))
                 for row in mix]
        duals = dual_basis(basis)
        span = RationalSubspace(n, basis)
        for j, d in enumerate(duals):
            assert span.contains(d)
            pairings = [sum(x * y for x, y in zip(d, b)) for b in basis]
            assert pairings == [int(k == j) for k in range(len(basis))]
        rest = rand_preorder(rng, field, len(basis), 2)
        lifted = [FieldVector(field, tuple(sum((e * d[t] for e, d in zip(row.entries, duals)),
                                               field.zero()) for t in range(n)))
                  for row in rest.rows]
        assert compose(head, rest, basis).equals(
            from_rows(list(head.rows) + lifted, n, field=field))


# --- box shells and the box budget --------------------------------------------

def filtered_half_shell(n, k):
    """Lex-positive points of max-norm exactly k, filtered from the whole box."""
    for u in itertools.product(range(-k, k + 1), repeat=n):
        if max(abs(x) for x in u) == k and _lex_positive(u):
            yield u


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_half_shell_matches_filtered_box(n):
    for k in range(7):
        assert list(half_shell(n, k)) == list(filtered_half_shell(n, k))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_half_box_is_the_filtered_box_shell_by_shell(n):
    for k in range(5):
        assert list(half_box(n, k)) == [u for level in range(1, k + 1)
                                        for u in filtered_half_shell(n, level)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shell_products_partition_the_half_shell(n):
    for k in range(1, 6):
        points = [u for axes in _shell_products(n, k) for u in itertools.product(*axes)]
        assert len(points) == len(set(points))
        assert sorted(points) == list(filtered_half_shell(n, k))
        assert len(_shell_products(n, k)) <= n * (n + 1) // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shell_columns_hold_each_point_of_the_half_shell_once(n):
    half = []
    for k in range(1, 7):
        shell = _shell_columns(n, k)
        points = list(zip(*shell.cols))
        assert len(shell.cols) == n and shell.size == len(points)
        assert points == [u for axes in _shell_products(n, k) for u in itertools.product(*axes)]
        assert sorted(points) == list(filtered_half_shell(n, k)) and len(points) == len(set(points))
        # the shell lies in G_k and reaches its boundary
        assert shell.bound == k == max(max(map(abs, u)) for u in points)
        half += points
        # shells 1..k together are the half box
        assert sorted(half) == sorted(half_box(n, k)) and len(half) == len(set(half))


def test_shell_columns_are_cached_with_the_products_bound():
    # the columns are the products' only reader, so only the columns are cached
    assert _shell_columns.cache_info().maxsize == 256
    assert not hasattr(_shell_products, "cache_info")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fingerprints_leave_the_shell_cache_alone(n, sqrt2):
    # a fingerprint builds its n half-box products itself, so a long thin box
    # (n = 1, up to MAX_BOX_POINTS / 2 shells) evicts no shell a scan cached
    rng = random.Random(980 + n)
    for field in (QF, sqrt2):
        for p in (rand_preorder(rng, field, n, 2) for _ in range(3)):
            for k in range(5):
                _shell_columns.cache_clear()
                fp = fingerprint(p, k)
                assert _shell_columns.cache_info().currsize == 0
                expected = {u: s for level in range(1, k + 1)
                            for u, s in shell_signs_by_points(p, level).items()}
                assert {u: int(s) for u, s in fp.signs.items()} == expected


def test_box_budget_at_huge_dimension():
    with pytest.raises(RangeError, match="G_1 of Z\\^1000000"):
        fingerprint(from_rows([], 10 ** 6), 1)


def test_box_budget(monkeypatch, sqrt2):
    # G_2 of Z^2 has 25 points, G_3 has 49
    monkeypatch.setattr(topology, "MAX_BOX_POINTS", 25)
    p = from_rows([fv(QF, 1, Q(1, 100))], 2, field=QF)
    q = from_rows([fv(QF, 1, 0), fv(QF, 0, 1)], 2, field=QF)
    assert fingerprint(p, 2).level == 2
    assert distance(p, q, 1) == Distance.at_most(2)  # scans G_2
    with pytest.raises(RangeError):
        fingerprint(p, 3)
    with pytest.raises(RangeError):
        distance(p, q, 2)  # would scan G_4
    centre = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    perturb_in_ball(centre, 1)  # scans G_2
    monkeypatch.setattr(topology, "MAX_BOX_POINTS", 24)
    with pytest.raises(RangeError):
        perturb_in_ball(centre, 1)
    with pytest.raises(RangeError):
        same_type_neighbors(centre, 1, 1)


def test_levels_out_of_range_raise_range_error(sqrt2):
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    fp = fingerprint(p, 2)
    assert fp.restrict(0).signs == {}
    for level in (-1, 3):
        with pytest.raises(RangeError):
            fp.restrict(level)
    with pytest.raises(RangeError):
        fingerprint(p, -1)
    with pytest.raises(RangeError):
        distance(p, p, 0)
    centre = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    with pytest.raises(RangeError):
        perturb_in_ball(centre, 0)
    with pytest.raises(RangeError):
        same_type_neighbors(centre, 1, 0)


# --- first_disagreement_level utility ----------------------------------------

def test_first_disagreement_levels(sqrt2):
    lex = from_rows([fv(sqrt2, 1, 0), fv(sqrt2, 0, 1)], 2, field=sqrt2)
    for k in (1, 2, 3, 4):
        row = FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha() * Q(1, 2 * k)))
        pk = from_rows([row], 2, field=sqrt2)
        import math
        assert first_disagreement_level(pk, lex, 40) == math.isqrt(2 * k * k) + 1


def test_first_disagreement_level_matches_the_point_scan():
    rng = random.Random(61)
    levels = set()
    for field in WITNESS_FIELDS:
        for n, level_max in ((1, 6), (2, 14), (3, 5)):
            for _ in range(8):
                p = rand_preorder(rng, field, n, 3)
                # q shares a prefix of p's rows half of the time
                q = rand_preorder(rng, field, n, 3)
                if rng.random() < 0.5 and p.rank:
                    q = from_rows(list(p.rows[:rng.randint(1, p.rank)]) + list(q.rows), n,
                                  field=field)
                level = first_disagreement_level(p, q, level_max)
                assert level == first_disagreement_level_by_points(p, q, level_max)
                levels.add(level)
    for field in WITNESS_FIELDS[1:]:
        # the slope (1, alpha) against rational slopes near it: late first mismatches
        p = from_rows([FieldVector(field, (field.one(), field.alpha()))], 2, field=field)
        for num, den in ((6, 5), (7, 5), (5, 4), (19, 16), (17, 12)):
            q = from_rows([fv(field, 1, Q(num, den))], 2, field=field)
            level = first_disagreement_level(p, q, 40)
            assert level == first_disagreement_level_by_points(p, q, 40)
            levels.add(level)
    assert None in levels and len(levels) >= 8


# --- perturbation directions --------------------------------------------------

def _parallel(a, b):
    n = a.n
    for i in range(n):
        for j in range(i + 1, n):
            if not (a.entries[i] * b.entries[j] - a.entries[j] * b.entries[i]).is_zero():
                return False
    return True


def directions_by_parallel_test(p, budget=8):
    """Oracle: the first row's layer span, dropping vectors parallel to the first row."""
    out = []
    w1perp = RationalSubspace(p.n, p.rows[0].layers())
    for b in w1perp.basis:
        z = FieldVector.from_rationals(p.field, b)
        if not _parallel(z, p.rows[0]):
            out.append(z)
    if p.rank >= 2:
        out.append(p.rows[1])
    for b in w1perp.basis:
        z = FieldVector.from_rationals(p.field, tuple(-x for x in b))
        if not _parallel(z, p.rows[0]):
            out.append(z)
    return out[:budget]


def test_perturbation_directions_match_parallel_oracle():
    fields = [QF, NumberField((-2, 0, 1), (1, 2)), NumberField((-2, 0, 0, 1), (1, 2)),
              NumberField((-2, 0, 0, 0, 1), (1, 2))]
    rng = random.Random(41)
    first_types = set()
    for trial in range(240):
        field = fields[trial % 4]
        n = rng.randint(1, 5)
        rows = [FieldVector(field, tuple(
            field.element([Q(rng.randint(-3, 3)) if rng.random() < 0.5 else Q(0)
                           for _ in range(field.degree)])
            for _ in range(n))) for _ in range(rng.randint(1, n))]
        p = from_rows(rows, n, field=field)
        if p.rank == 0:
            continue
        first_types.add(p.type_vec[0])
        assert _perturbation_directions(p) == directions_by_parallel_test(p)
    assert first_types == {1, 2, 3, 4}
