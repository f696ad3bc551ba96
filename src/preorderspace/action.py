"""The GL_n(Q) action on preorders: pullback, stabilizers, orbit witnesses.

phi acts by comparing through it: u <= v in the transformed preorder iff
phi(u) <= phi(v) in the original.  On canonical rows this is multiplication
by phi^T applied to each rational coefficient layer, followed by
re-canonicalization.

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
to q.  In degree at most 2 equal-type rows have equal spans, since each
contains the leading entry 1, and mu_i = 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    SingularMatrix,
    TypeMismatch,
    WitnessNotFound,
)
from .linalg import FieldVector, QVec, mat_inverse, mat_mul, mat_vec, nullspace_basis, rref
from .preorder import Preorder, from_rows
from .realfield import FieldElement, parse_list

Q = Fraction


class Automorphism:
    """An invertible rational n x n matrix acting on Q^n."""

    __slots__ = ("matrix", "n")

    def __init__(self, matrix: Sequence[Sequence]):
        rows = tuple(tuple(Q(x) for x in row) for row in matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("automorphism matrix must be square")
        self.matrix = rows
        self.n = n
        if len(rref(rows)[1]) != n:
            raise SingularMatrix("automorphism matrix must be invertible")

    @classmethod
    def identity(cls, n: int) -> "Automorphism":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, n: int, lam) -> "Automorphism":
        return cls([[lam if i == j else 0 for j in range(n)] for i in range(n)])

    def inverse(self) -> "Automorphism":
        return Automorphism(mat_inverse([list(r) for r in self.matrix]))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Matrix product self @ other (apply other's coordinates first)."""
        return Automorphism(mat_mul([list(r) for r in self.matrix],
                                    [list(r) for r in other.matrix]))

    def image(self, u: Sequence) -> tuple[Fraction, ...]:
        return mat_vec([list(r) for r in self.matrix], [Q(x) for x in u])

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"Automorphism({[[str(x) for x in row] for row in self.matrix]})"

    def to_json(self) -> dict:
        return {"matrix": [[str(x) for x in row] for row in self.matrix]}

    @classmethod
    def from_json(cls, obj: dict) -> "Automorphism":
        return cls([parse_list(row) for row in obj["matrix"]])


def apply(phi: Automorphism, p: Preorder) -> Preorder:
    """Pullback of p through phi: classify u by the sign of phi(u) under p."""
    if phi.n != p.n:
        raise DimensionMismatch(f"automorphism on Q^{phi.n}, preorder on Q^{p.n}")
    transposed = list(zip(*phi.matrix))
    return from_rows([row.map_layers(transposed) for row in p.rows], p.n, field=p.field)


def is_stabilizer(phi: Automorphism, p: Preorder) -> bool:
    return apply(phi, p).equals(p)


# ---------------------------------------------------------------------------
# orbit witnesses
# ---------------------------------------------------------------------------

def orbit_witness(p: Preorder, q: Preorder) -> Automorphism:
    """An automorphism carrying p to q; WitnessNotFound when none exists.

    A witness exists iff the types agree and, at every level i, some
    mu_i in Q(alpha) has mu_i * V(q_i) = V(p_i), where V(r) is the Q-span of
    the entries of row r (see the module docstring).  The witness is then one
    basis change: phi^T sends independent layers of each p_i to the matching
    layers of mu_i * q_i, and p's residue basis to q's.  The result is
    verified before it is returned.
    """
    if p.field != q.field:
        raise FieldMismatch("preorders over different number fields")
    if p.n != q.n:
        raise DimensionMismatch("preorders on different ambient dimensions")
    if p.type_vec != q.type_vec:
        raise TypeMismatch(f"types differ: {p.type_vec} vs {q.type_vec}")
    src: list[QVec] = []
    dst: list[QVec] = []
    for level, (p_row, q_row) in enumerate(zip(p.rows, q.rows), start=1):
        p_layers = p_row.layers()
        span_p, independent = rref(zip(*p_layers))
        q_layers = q_row.scale(_span_scale(span_p, q_row, level)).layers()
        src += [p_layers[j] for j in independent]
        dst += [q_layers[j] for j in independent]
    src += p.residue_group().basis
    dst += q.residue_group().basis
    phi = Automorphism(mat_mul(mat_inverse(src), dst))
    if not apply(phi, p).equals(q):
        raise WitnessNotFound("constructed automorphism failed verification")
    return phi


def _span_scale(span_p: Sequence[Sequence[Fraction]], q_row: FieldVector,
                level: int) -> FieldElement:
    """A positive mu with mu * V(q_row) inside span_p, a basis of V(p_row).

    mu * v is linear in mu's coefficients, so the admissible mu form the
    rational nullspace of c . coeffs(mu * v) = 0 over v in a basis of
    V(q_row) and c in a basis of span_p's orthogonal complement.  Equal types
    make any nonzero mu an equality of spans.
    """
    field = q_row.field
    d = field.degree
    span_q, _ = rref(zip(*q_row.layers()))
    complement = nullspace_basis(span_p, d)
    constraints: list[QVec] = []
    for v in span_q:
        constraints += mat_mul(complement, field.element(v).mul_matrix())
    solutions = nullspace_basis(constraints, d)
    if not solutions:
        raise WitnessNotFound(
            f"row {level}: no mu in Q(alpha) carries the entry span of q's row onto p's")
    mu = field.element(solutions[0])
    return mu if mu.sign() > 0 else -mu
