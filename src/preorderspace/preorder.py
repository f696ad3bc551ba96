"""Preorders on Q^n in canonical kernel-flag normal form.

A preorder is stored as s rows over the session number field, each row
orthogonally projected onto the real span of the rational kernel of the rows
before it, and scaled so its first nonzero entry is +1 or -1.  Each row is a
FieldVector, integer layers over one denominator, so kernels, projections and
the identity key of a preorder read integers directly.  Together with the
strictly decreasing chain of rational kernels this representation is unique
for the binary relation it defines: two matrices describe the same preorder
exactly when their canonical forms agree entry-wise.

The coarsenings of a preorder are exactly its row-prefix truncations, so the
canonical form is built one row at a time: extend() appends one row to a
canonical preorder, and from_rows() is a left fold of extend() from the
trivial preorder.  Each row keeps an integer orthogonal basis of its layers
(of its type entry's size); layers of different rows are orthogonal and span
the complement of the residue group, so a step is one integer projection
along those bases, up to a positive factor, and one division by the signed
leading entry x, through its norm:
the adjugate of x's multiplication matrix times the integer layers, over
N(x) (NumberField.adjugate), is stored as it comes, so a step builds no
Fraction and runs no elimination.  The flag and residue group are read on
demand.

Classifying an integer vector u against the rows (sign of the first nonzero
dot product) realizes the lexicographic comparison u <= v iff
(u.r_1, ..., u.r_s) <=_lex (v.r_1, ..., v.r_s).  sign_of clears rational
input to an integer vector and asks each row for the sign of its dot product
with it (FieldVector.sign_at).  Each row decides from its cached integer
enclosure first, and the integer Horner with bisection runs only at points
where that enclosure straddles zero, near the row's zero set.  sign_table
answers the same question for a sequence of products of integer ranges, such
as a box shell, one table per row per shell, product by product inside: the
first row's table over all the products (FieldVector.box_signs), and only at
its zeros, the points of W_1, the later rows one point at a time; box_signs is
its Sign view of one product.  A box scan does no rational arithmetic.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import reduce
from math import prod
from typing import Sequence

from .errors import DimensionMismatch, FieldMismatch
from .linalg import (Axes, FieldVector, RationalSubspace, mat_mul, orthogonal_basis,
                     rational_kernel, reject, zero_points)
from .realfield import NumberField, clear_denominators, parse_integer, parse_list, parse_object

Q = Fraction


class Sign(enum.IntEnum):
    NEG = -1
    ZERO = 0
    POS = 1

    def flip(self) -> "Sign":
        return Sign(-int(self))

    @property
    def symbol(self) -> str:
        return {Sign.NEG: "-", Sign.ZERO: "0", Sign.POS: "+"}[self]


# a sign s in {-1, 0, 1} read as _SIGNS[s], without an enum lookup
_SIGNS = (Sign.ZERO, Sign.POS, Sign.NEG)


class Preorder:
    """Canonical form of a bi-invariant preorder on Q^n (equivalently Z^n);
    bases[i] is an orthogonal basis of the rational layers of rows[i], and its
    size type_vec[i] = dim W_{i-1} - dim W_i; type_vec and degree are set once."""

    __slots__ = ("field", "n", "rows", "bases", "type_vec", "degree")

    def __init__(self, field: NumberField, n: int, rows: Sequence[FieldVector],
                 bases: Sequence[tuple[tuple[int, ...], ...]]):
        # trusted constructor; use from_rows() to canonicalize arbitrary rows
        self.field = field
        self.n = n
        self.rows = tuple(rows)
        self.bases = tuple(bases)
        self.type_vec = tuple(map(len, self.bases))
        self.degree = n - sum(self.type_vec)
        if self.degree < 0 or self.rank + self.degree > n:
            raise DimensionMismatch(
                f"type {self.type_vec} and degree {self.degree} do not fit ambient dimension {n}")

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residue_group(self) -> RationalSubspace:
        """W_s, the rational kernel of all rows."""
        return rational_kernel(self.rows, self.n)

    @property
    def flag(self) -> tuple[RationalSubspace, ...]:
        """Q^n = W_0 > ... > W_s, W_i the rational kernel of the first i rows."""
        return tuple(rational_kernel(self.rows[:i], self.n) for i in range(self.rank + 1))

    def isolated_chain(self) -> tuple[RationalSubspace, ...]:
        return tuple(reversed(self.flag))

    def is_trivial(self) -> bool:
        return not self.rows

    # --- sign classification -------------------------------------------------

    def _check_vector(self, u: Sequence) -> tuple[int, ...]:
        """u as an integer vector: ints pass through, rationals go through
        clear_denominators, a positive factor that changes no sign."""
        if len(u) != self.n:
            raise DimensionMismatch(f"vector length {len(u)} != ambient {self.n}")
        if all(isinstance(x, int) for x in u):
            return tuple(u)
        return tuple(clear_denominators(map(Q, u))[0])

    def sign_of(self, u: Sequence) -> Sign:
        """Sign of the first row with nonzero dot product; ZERO if all vanish.

        Rational input is cleared to an integer vector first, which does not
        change the classification.
        """
        vec = self._check_vector(u)
        if not any(vec):
            return Sign.ZERO
        for row in self.rows:
            s = row.sign_at(vec)
            if s:
                return _SIGNS[s]
        return Sign.ZERO

    def sign_table(self, products: Sequence[Axes]) -> list[int]:
        """sign_of(u) as an int for every u in itertools.product(*axes) of integer
        axes, for each axes in products in turn: the first row's table over all
        of them (FieldVector.box_signs), and at its zeros, the rare points of
        W_1, the later rows one point at a time."""
        if any(map(self.n.__ne__, map(len, products))):
            raise DimensionMismatch(f"a product's axes != ambient {self.n}")
        if not self.rows:
            return [0] * sum(prod(map(len, axes)) for axes in products)
        table = self.rows[0].box_signs(products)
        if self.rank > 1:
            for i, u in zero_points(table, products):
                for row in self.rows[1:]:
                    table[i] = row.sign_at(u)
                    if table[i]:
                        break
        return table

    def box_signs(self, axes: Sequence[Sequence[int]]) -> list[Sign]:
        """sign_of(u) for every u in itertools.product(*axes), in that order."""
        return list(map(_SIGNS.__getitem__, self.sign_table((axes,))))

    def compare(self, u: Sequence, v: Sequence) -> Sign:
        """sign_of(u - v): POS means u strictly dominates v."""
        if len(u) != len(v):
            raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)} differ")
        return self.sign_of([Q(a) - Q(b) for a, b in zip(u, v)])

    def in_O(self, u: Sequence) -> bool:
        return self.sign_of(u) != Sign.NEG

    def in_U(self, u: Sequence) -> bool:
        return self.sign_of(u) == Sign.POS

    # --- identity ------------------------------------------------------------

    def equals(self, other: "Preorder") -> bool:
        if self.field != other.field or self.n != other.n:
            return False
        return self.rows == other.rows

    __eq__ = equals

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return (self.n, tuple((r.int_layers(), r.den) for r in self.rows))

    def matrix_str(self) -> str:
        return "lex[" + ";".join(str(r) for r in self.rows) + "]"

    def __repr__(self):
        return (f"Preorder({self.matrix_str()}, rank={self.rank}, "
                f"degree={self.degree}, type={self.type_vec})")

    # --- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field": self.field.to_json(),
            "rows": [r.to_json() for r in self.rows],
            "rank": self.rank,
            "degree": self.degree,
            "type": list(self.type_vec),
        }

    @classmethod
    def from_json(cls, obj: dict, field: NumberField | None = None) -> "Preorder":
        obj = parse_object(obj, "n")
        if field is None:
            if "field" in obj:
                field = NumberField.from_json(obj["field"])
            else:
                field = NumberField.rational()
        n = parse_integer(obj["n"])
        raw = parse_list(obj.get("rows", []), lambda row: FieldVector.from_json(field, row))
        return from_rows(raw, n, field=field)


def extend(p: Preorder, raw_row: FieldVector) -> Preorder:
    """The preorder that compares by p first and breaks its ties by raw_row.

    The row's integer layers lose their components along the bases of p's
    rows (reject): a positive multiple of its projection onto the real span of
    p's residue group.  With x = s * lead, s the sign of the first nonzero
    entry lead, the integer layers times adj(M_x), over the norm N(x)
    (NumberField.adjugate), are the row divided by |lead|: adj(M_x) / N(x) is
    M_x^-1.  from_int_layers stores them over N(x), reduced by one gcd and
    with a positive denominator; neither positive factor changes the
    lexicographic comparison.
    A vanishing projection means the row is redundant after p, and p itself is
    returned.
    """
    if raw_row.field != p.field:
        raise FieldMismatch("rows from different number fields")
    if raw_row.n != p.n:
        raise DimensionMismatch(f"row length {raw_row.n} != ambient {p.n}")
    layers = reject(raw_row.int_layers(), [e for basis in p.bases for e in basis])
    lead = next((c for c in zip(*layers) if any(c)), None)
    if lead is None:
        return p
    s = p.field.sign_of_coeffs(lead)
    adj, norm = p.field.adjugate([s * c for c in lead])
    row = FieldVector.from_int_layers(p.field, mat_mul(adj, layers), norm)
    return Preorder(p.field, p.n, p.rows + (row,), p.bases + (orthogonal_basis(row.int_layers()),))


def from_rows(raw_rows: Sequence[FieldVector], n: int,
              field: NumberField | None = None) -> Preorder:
    """Canonicalize defining rows into a Preorder with the same relation.

    A left fold of extend() over the rows, starting from the trivial preorder.
    """
    if field is None:
        field = raw_rows[0].field if raw_rows else NumberField.rational()
    return reduce(extend, raw_rows, Preorder(field, n, (), ()))
