"""The GL_n(Q) action on preorders: pullback, stabilizers, orbit witnesses.

phi acts by comparing through it: u <= v in the transformed preorder iff
phi(u) <= phi(v) in the original.  On canonical rows this is multiplication
by phi^T applied to each rational coefficient layer, followed by
re-canonicalization.  An Automorphism is stored like a row: integers over one den.

Orbit witnesses rest on the shape of canonical rows.  Every rational layer
of row p_i lies in the kernel W_{i-1} of the rows before it and is
orthogonal to W_i, so layers of different rows are mutually orthogonal and
all of them together span the orthogonal complement of the residue group.
Let V(r) be the Q-span of the entries of a row r.  If phi carries p to q,
then on W^q_{i-1} the row phi^T p_i equals mu_i q_i for some mu_i > 0, and
its values there fill V(p_i), so mu_i * V(q_i) = V(p_i).  Conversely, given
such mu_i at every level (the sign is free), phi^T can send the layers of
each p_i to those of mu_i q_i and p's residue group onto q's: one basis
change, after which phi^T p_i = mu_i q_i and apply(phi, p) = q.  So
orbit_witness raises WitnessNotFound only when no automorphism carries p
to q.  A level of type 1 or d = deg(alpha) needs no mu_i: V(r) has dimension
type_i and contains the leading entry +-1, so it is Q or the whole field for
both rows, and mu_i = 1.  In degree at most 2 every level is of that kind.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    SingularMatrix,
    TypeMismatch,
    WitnessNotFound,
)
from .linalg import FieldVector, map_layers, mat_mul, mat_vec, nullspace_basis
from .preorder import Preorder, from_rows
from .realfield import (FieldElement, cleared, dimension, echelon, parse_list, parse_object,
                        ratio_str, rational_vector, reduced, solve)

Q = Fraction


class Automorphism:
    """An invertible rational n x n matrix acting on Q^n: matrix = ints / den (reduced)."""

    __slots__ = ("ints", "den", "n")

    def __init__(self, matrix: Sequence[Sequence]):
        ints, den = cleared(matrix)
        if any(len(r) != len(ints) for r in ints):
            raise DimensionMismatch("automorphism matrix must be square")
        if len(echelon(ints)[1]) != len(ints):
            raise SingularMatrix("automorphism matrix must be invertible")
        self.ints, self.den = reduced(ints, den)
        self.n = len(ints)

    @classmethod
    def _trusted(cls, ints: Sequence[Sequence[int]], den: int = 1) -> "Automorphism":
        """ints / den, invertible by construction (solve, compose): no rank check."""
        phi = object.__new__(cls)
        phi.ints, phi.den = reduced(ints, den)
        phi.n = len(phi.ints)
        return phi

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Q(x, self.den) for x in row) for row in self.ints)

    @classmethod
    def identity(cls, n: int) -> "Automorphism":
        return cls.scalar(n, 1)

    @classmethod
    def scalar(cls, n: int, lam) -> "Automorphism":
        n = dimension(n)
        return cls([[lam if i == j else 0 for j in range(n)] for i in range(n)])

    def inverse(self) -> "Automorphism":
        n = self.n
        return Automorphism._trusted(*solve(self.ints, [[self.den * (i == j) for j in range(n)]
                                                        for i in range(n)]))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Matrix product self @ other (apply other's coordinates first); a
        product of invertible matrices is invertible, so it is not checked."""
        if other.n != self.n:
            raise DimensionMismatch(f"compose: sizes {self.n} and {other.n} differ")
        return Automorphism._trusted(mat_mul(self.ints, other.ints), self.den * other.den)

    def image(self, u: Sequence) -> tuple[Fraction, ...]:
        w, den = rational_vector(u, self.n)
        return tuple(Q(x, den * self.den) for x in mat_vec(self.ints, w))

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return (self.ints, self.den) == (other.ints, other.den)

    def __hash__(self):
        return hash((self.ints, self.den))

    def __repr__(self):
        return f"Automorphism({self.to_json()['matrix']})"

    def to_json(self) -> dict:
        return {"matrix": [[ratio_str(x, self.den) for x in row] for row in self.ints]}

    @classmethod
    def from_json(cls, obj: dict) -> "Automorphism":
        return cls(parse_list(parse_object(obj, "matrix")["matrix"], parse_list))


def apply(phi: Automorphism, p: Preorder) -> Preorder:
    """Pullback of p through phi: classify u by the sign of phi(u) under p."""
    if phi.n != p.n:
        raise DimensionMismatch(f"automorphism on Q^{phi.n}, preorder on Q^{p.n}")
    return from_rows(map_layers(p.rows, list(zip(*phi.ints)), phi.den), p.n, field=p.field)


def is_stabilizer(phi: Automorphism, p: Preorder) -> bool:
    return apply(phi, p).equals(p)


# ---------------------------------------------------------------------------
# orbit witnesses
# ---------------------------------------------------------------------------

def orbit_witness(p: Preorder, q: Preorder) -> Automorphism:
    """An automorphism carrying p to q; WitnessNotFound when none exists.

    A witness exists iff the types agree and, at every level i, some
    mu_i in Q(alpha) has mu_i * V(q_i) = V(p_i), where V(r) is the Q-span of
    the entries of row r (see the module docstring); mu_i is searched for only
    at levels of type strictly between 1 and d, the others have mu_i = 1.  The
    witness is then one basis change, one solve of src X = dst: phi^T sends
    independent layers of each p_i to the matching layers of mu_i * q_i, and
    p's residue basis to q's.  The result is verified before it is returned.
    """
    p.check_peer(q)
    if p.type_vec != q.type_vec:
        raise TypeMismatch(f"types differ: {p.type_vec} vs {q.type_vec}")
    src: list[list[int]] = []
    dst: list[list[int]] = []
    for level, (p_row, q_row) in enumerate(zip(p.rows, q.rows), start=1):
        span_p, independent = echelon(zip(*p_row.int_layers()))
        if 1 < len(independent) < p.field.degree:  # else V(p_row) = V(q_row) and mu = 1
            q_row = q_row.scale(_span_scale(span_p, q_row, level))
        # row pairs scaled alike: p's layers over q's den, q's over p's
        src += [[q_row.den * x for x in p_row.int_layers()[j]] for j in independent]
        dst += [[p_row.den * x for x in q_row.int_layers()[j]] for j in independent]
    wp, wq = p.residue_group(), q.residue_group()
    src += [[wq.den * x for x in row] for row in wp.ints]  # scaled alike, as the row pairs
    dst += [[wp.den * x for x in row] for row in wq.ints]
    phi = Automorphism._trusted(*solve(src, dst))
    if not apply(phi, p).equals(q):
        raise WitnessNotFound("constructed automorphism failed verification")
    return phi


def _span_scale(span_p: Sequence[Sequence[int]], q_row: FieldVector,
                level: int) -> FieldElement:
    """A positive mu with mu * V(q_row) inside span_p, a basis of V(p_row).

    mu * v is linear in mu's coefficients, so the admissible mu form the
    rational nullspace of c . coeffs(mu * v) = 0 over v in a basis of
    V(q_row) and c in a basis of span_p's orthogonal complement.  Equal types
    make any nonzero mu an equality of spans.
    """
    field = q_row.field
    d = field.degree
    span_q, _ = echelon(zip(*q_row.int_layers()))
    complement, _ = nullspace_basis(span_p, d)
    constraints: list[list[int]] = []
    for v in span_q:
        constraints += mat_mul(complement, field.mul_matrix(v))
    solutions, den = nullspace_basis(constraints, d)
    if not solutions:
        raise WitnessNotFound(
            f"row {level}: no mu in Q(alpha) carries the entry span of q's row onto p's")
    mu = FieldElement(field, solutions[0], den)
    return mu if mu.sign() > 0 else -mu
