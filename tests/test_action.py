import itertools
import random
from fractions import Fraction as Q

import pytest

from preorderspace import (
    Automorphism,
    DimensionMismatch,
    FieldVector,
    NumberField,
    SingularMatrix,
    TypeMismatch,
    WitnessNotFound,
    apply,
    from_rows,
    is_stabilizer,
    orbit_witness,
    refines,
)
from preorderspace.action import _span_scale
from preorderspace.linalg import mat_mul
from preorderspace.realfield import echelon, solve
from preorderspace.sampling import rand_gl
from preorder_sampler import rand_preorder
from shared import fv

QF = NumberField.rational()
CBRT2 = NumberField((-2, 0, 0, 1), (1, 2))
FOURTH_RT2 = NumberField((-2, 0, 0, 0, 1), (1, 2))


def rand_unimodular(rng, n, steps=6):
    m = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            m[i] = [-x for x in m[i]]
        elif i != j:
            k = rng.choice((-2, -1, 1, 2))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return Automorphism(m)


def test_singular_rejected():
    with pytest.raises(SingularMatrix):
        Automorphism([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix):
        Automorphism.from_json({"matrix": [["1", "2"], ["1/2", "1"]]})


@pytest.mark.parametrize("n", range(1, 5))
def test_inverse_round_trips(n):
    rng = random.Random(90 + n)
    identity = Automorphism.identity(n)
    for _ in range(15):
        phi = rand_gl(rng, n)
        inv = phi.inverse()
        # built without the invertibility check, the same as with it
        assert Automorphism(inv.matrix) == inv
        assert phi.compose(inv) == identity == inv.compose(phi)
        psi = rand_gl(rng, n)
        assert phi.compose(psi) == Automorphism(mat_mul(phi.matrix, psi.matrix))
        assert inv.inverse() == phi
        u = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        assert inv.image(phi.image(u)) == u
    with pytest.raises(DimensionMismatch):
        identity.compose(Automorphism.identity(n + 1))


def test_apply_examples(sqrt2):
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    assert apply(Automorphism.identity(2), p).equals(p)
    assert apply(Automorphism.scalar(2, Q(7, 2)), p).equals(p)
    swap = Automorphism([[0, 1], [1, 0]])
    assert apply(swap, p).equals(from_rows([fv(QF, 0, 1)], 2, field=QF))


def test_image_needs_a_vector_of_the_matrix_size():
    phi = Automorphism.identity(2)
    assert phi.image([1, 2]) == (1, 2)
    for u in ([1, 2, 3], [1], []):
        with pytest.raises(DimensionMismatch):
            phi.image(u)


def test_pullback_sign_law(sqrt2):
    rng = random.Random(97)
    for i in range(40):
        field = sqrt2 if i % 2 else QF
        n = rng.choice((2, 3))
        p = rand_preorder(rng, field, n, 3)
        phi = rand_unimodular(rng, n)
        q = apply(phi, p)
        u = tuple(rng.randint(-3, 3) for _ in range(n))
        assert q.sign_of(u) == p.sign_of(phi.image(u))


def test_invariance_of_type(sqrt2):
    rng = random.Random(101)
    for i in range(50):
        field = sqrt2 if i % 2 else QF
        n = rng.choice((2, 3))
        p = rand_preorder(rng, field, n, 3)
        phi = rand_unimodular(rng, n)
        q = apply(phi, p)
        assert (q.rank, q.degree, q.type_vec) == (p.rank, p.degree, p.type_vec)


def test_left_action_composition(sqrt2):
    rng = random.Random(103)
    for _ in range(30):
        n = rng.choice((2, 3))
        p = rand_preorder(rng, QF, n, 3)
        phi = rand_unimodular(rng, n)
        psi = rand_unimodular(rng, n)
        assert apply(psi, apply(phi, p)).equals(apply(phi.compose(psi), p))


def test_monotone_for_refinement(sqrt2):
    rng = random.Random(107)
    for _ in range(25):
        n = 3
        p = rand_preorder(rng, sqrt2, n, 3)
        fine = from_rows(list(p.rows) + [fv(sqrt2, *(rng.randint(-2, 2) for _ in range(n)))],
                         n, field=sqrt2)
        phi = rand_unimodular(rng, n)
        assert refines(p, fine)
        assert refines(apply(phi, p), apply(phi, fine))


def test_stabilizer_examples(sqrt2):
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    assert is_stabilizer(Automorphism.scalar(2, 2), p)
    assert not is_stabilizer(Automorphism.scalar(2, -1), p)
    triv = from_rows([], 2, field=QF)
    assert is_stabilizer(Automorphism([[1, 0], [0, 2]]), triv)


def quotient_coords(res, keep, v):
    # decompose v = (residue part) + sum t_j e_j along the complement section
    pivots = res.pivots
    c = [v[p] for p in pivots]
    return [v[k] - sum(ci * bi[k] for ci, bi in zip(c, res.basis)) for k in keep]


def characterization(phi, p):
    """phi preserves the residue group and induces a positive scalar on the quotient."""
    res = p.residue_group()
    for b in res.basis:
        if not res.contains(phi.image(b)):
            return False
    keep = res.complement_coords()
    if not keep:
        return True
    cols = []
    for j in keep:
        u = [Q(0)] * p.n
        u[j] = Q(1)
        cols.append(quotient_coords(res, keep, phi.image(u)))
    induced = [[cols[c][r] for c in range(len(keep))] for r in range(len(keep))]
    lam = induced[0][0]
    if lam <= 0:
        return False
    return all(induced[i][j] == (lam if i == j else 0)
               for i in range(len(keep)) for j in range(len(keep)))


def test_characterization_implies_stabilizer(sqrt2):
    # positive scalars on the quotient always stabilize; the converse can fail
    # over Q(alpha), e.g. units rotating (1, sqrt2) by a positive factor
    rng = random.Random(109)
    for i in range(25):
        field = sqrt2 if i % 2 else QF
        n = rng.choice((2, 3))
        p = rand_preorder(rng, field, n, 3)
        lam = Q(rng.randint(1, 4), rng.randint(1, 3))
        phi = Automorphism.scalar(n, lam)
        assert characterization(phi, p) and is_stabilizer(phi, p)
    p_irr = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    unit = Automorphism([[0, 2], [1, 0]])  # phi^T (1, sqrt2) = sqrt2 (1, sqrt2)
    assert is_stabilizer(unit, p_irr)
    assert not characterization(unit, p_irr)


def test_orbit_witness_examples(sqrt2):
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    w = orbit_witness(p, p)
    assert is_stabilizer(w, p)
    q = from_rows([fv(QF, 0, 1)], 2, field=QF)
    w2 = orbit_witness(p, q)
    assert apply(w2, p).equals(q)
    p_irr = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.alpha()))], 2, field=sqrt2)
    q_irr = from_rows([FieldVector(sqrt2, (sqrt2.one(), sqrt2.from_rational(2) + sqrt2.alpha()))],
                      2, field=sqrt2)
    w3 = orbit_witness(p_irr, q_irr)
    assert apply(w3, p_irr).equals(q_irr)


def test_orbit_witness_type_mismatch(sqrt2):
    p = from_rows([fv(QF, 1, 0)], 2, field=QF)
    with pytest.raises(TypeMismatch):
        orbit_witness(p, from_rows([], 2, field=QF))


def test_orbit_witness_random_rational_pairs():
    rng = random.Random(113)
    found = 0
    for _ in range(120):
        p = rand_preorder(rng, QF, 3, 3)
        q = rand_preorder(rng, QF, 3, 3)
        if p.type_vec == q.type_vec:
            w = orbit_witness(p, q)
            assert apply(w, p).equals(q)
            found += 1
    assert found >= 10


def test_json_round_trip():
    phi = Automorphism([[Q(1, 2), 3], [0, -2]])
    assert Automorphism.from_json(phi.to_json()) == phi


def test_orbit_witness_of_a_pullback(sqrt2):
    rng = random.Random(127)
    for field in (QF, sqrt2, CBRT2, FOURTH_RT2):
        for _ in range(12):
            n = rng.choice((2, 3, 4))
            p = rand_preorder(rng, field, n, 2)
            q = apply(rand_unimodular(rng, n), p)
            assert apply(orbit_witness(p, q), p).equals(q)


def alpha_row(field, power):
    # the row (1, alpha^power)
    return from_rows([FieldVector(field, (field.one(), field.element(
        [int(j == power) for j in range(field.degree)])))], 2, field=field)


def test_orbit_witness_rescales_the_entry_span():
    # mu = alpha carries span{1, alpha^2} onto span{1, alpha} in Q(cbrt2)
    p, q = alpha_row(CBRT2, 1), alpha_row(CBRT2, 2)
    assert apply(orbit_witness(p, q), p).equals(q)
    # in Q(2^(1/4)), mu = a + b alpha with mu alpha^2 in span{1, alpha} forces mu = 0
    with pytest.raises(WitnessNotFound):
        orbit_witness(alpha_row(FOURTH_RT2, 1), alpha_row(FOURTH_RT2, 2))


def test_orbit_witness_against_small_matrices(sqrt2):
    # oracle: every preorder reachable from p by a matrix with entries in
    # {-1, 0, 1, 2} must get a witness
    small = []
    for entries in itertools.product((-1, 0, 1, 2), repeat=4):
        try:
            small.append(Automorphism([entries[:2], entries[2:]]))
        except SingularMatrix:
            pass
    reached = 0
    for field in (sqrt2, CBRT2, FOURTH_RT2):
        a = field.alpha()
        tails = (a, a * a, a + 1, a + a, a + a * a, -(a * a))
        pool = [from_rows([FieldVector(field, (field.one(), t))], 2, field=field) for t in tails]
        for p in pool:
            images = {apply(phi, p) for phi in small}
            for q in pool:
                if q in images:
                    reached += 1
                    assert apply(orbit_witness(p, q), p).equals(q)
    assert reached >= 50


def _witness_scaling_every_level(p, q):
    # orbit_witness's basis change with mu searched at every level, types 1 and d included
    src, dst = [], []
    for level, (p_row, q_row) in enumerate(zip(p.rows, q.rows), start=1):
        span_p, independent = echelon(zip(*p_row.int_layers()))
        p_layers = p_row.layers()
        q_layers = q_row.scale(_span_scale(span_p, q_row, level)).layers()
        src += [p_layers[j] for j in independent]
        dst += [q_layers[j] for j in independent]
    src += p.residue_group().basis
    dst += q.residue_group().basis
    x, den = solve(src, dst)
    return tuple(tuple(Q(v, den) for v in row) for row in x)


def test_skipping_mu_at_types_one_and_d_keeps_the_witness(sqrt2):
    rng = random.Random(131)
    skipped = searched = 0
    for field in (QF, sqrt2, CBRT2, FOURTH_RT2):
        for _ in range(10):
            n = rng.choice((2, 3, 4))
            p = rand_preorder(rng, field, n, 3)
            q = apply(rand_unimodular(rng, n), p)
            assert orbit_witness(p, q).matrix == _witness_scaling_every_level(p, q)
            for t in p.type_vec:
                if t in (1, field.degree):
                    skipped += 1
                else:
                    searched += 1
    assert skipped >= 20 and searched >= 5
