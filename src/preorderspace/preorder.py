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
canonical form is built one row at a time: next_row() gives the row a raw row
adds after a canonical preorder (None if none), append() appends it, extend()
is the two, and from_rows() is a left fold of extend() from the trivial
preorder; two children of a preorder are equal exactly when their new rows
are.  next_row() is reject() of the raw layers off the rows' bases, then
row_of() of the residue, so a caller that keeps residues (a fragment) can
reject them one row at a time and skip the redundant ones.  Each row keeps
an integer orthogonal basis of its layers (of its type entry's size); layers
of different rows are orthogonal and span the complement of the residue
group, so a step is one integer projection along those bases, up to a
positive factor, and one division by the signed leading entry x, through its
norm: adj(M_x) times the integer layers, over N(x), from one fraction-free
elimination (NumberField.divide), is stored as it comes, so a step builds no
Fraction and runs no general elimination.  The flag and residue group are
read on demand.

Classifying an integer vector u against the rows (sign of the first nonzero
dot product) realizes the lexicographic comparison u <= v iff
(u.r_1, ..., u.r_s) <=_lex (v.r_1, ..., v.r_s).  sign_of clears rational
input to an integer vector and asks each row for the sign of its dot product
with it (FieldVector.sign_at).  Each row decides from its cached integer
enclosure first, and the integer Horner with bisection runs only at points
where that enclosure straddles zero, near the row's zero set.  sign_table
answers the same question for a region stored as coordinate columns
(linalg.Columns), such as a box shell, one table per row per shell: the
first row's table over the whole region (FieldVector.box_signs), and only at
its zeros, the points of W_1, the later rows one point at a time; box_signs is
its Sign view of one product of integer axes, bounded by their largest |x|.
A box scan does no rational arithmetic.
"""

from __future__ import annotations

import enum
import itertools
from functools import reduce
from typing import Sequence

from .errors import DimensionMismatch, FieldMismatch, RangeError
from .linalg import (Axes, Columns, FieldVector, RationalSubspace, orthogonal_basis,
                     rational_kernel, reject)
from .realfield import (NumberField, dimension, integer_value, parse_integer, parse_list,
                        parse_object, rational_vector, sequence)


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

    def is_trivial(self) -> bool:
        return not self.rows

    def check_peer(self, other: "Preorder") -> None:
        """RangeError unless other is a Preorder, then FieldMismatch and
        DimensionMismatch unless it is over the same field and Q^n."""
        check_preorders(other)
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("preorders over different number fields")
        if other.n != self.n:
            raise DimensionMismatch("preorders on different ambient dimensions")

    def check_row(self, row: FieldVector) -> None:
        """RangeError unless row is a FieldVector, then FieldMismatch and
        DimensionMismatch unless it is over the same field and of length n."""
        if not isinstance(row, FieldVector):
            raise RangeError(f"{row!r} is not a FieldVector")
        if row.field is not self.field and row.field != self.field:
            raise FieldMismatch("rows from different number fields")
        if row.n != self.n:
            raise DimensionMismatch(f"row length {row.n} != ambient {self.n}")

    # --- sign classification -------------------------------------------------

    def sign_of(self, u: Sequence) -> Sign:
        """Sign of the first row with nonzero dot product; ZERO if all vanish, for
        u read by realfield.rational_vector (a positive multiple, the same sign)."""
        vec, _ = rational_vector(u, self.n)
        if not any(vec):
            return Sign.ZERO
        for row in self.rows:
            s = row.sign_at(vec)
            if s:
                return _SIGNS[s]
        return Sign.ZERO

    def sign_table(self, region: Columns) -> list[int]:
        """sign_of(u) as an int for every point u of region, in order: the first
        row's table over all of them (FieldVector.box_signs), and at its zeros,
        the rare points of W_1, the later rows one point at a time."""
        if not self.rows:  # else the first row's box_signs checks the columns
            if len(region.cols) != self.n:
                raise DimensionMismatch(f"{len(region.cols)} columns != ambient {self.n}")
            return [0] * region.size
        table = self.rows[0].box_signs(region)
        if self.rank > 1:
            for i, u in region.at_zeros(table):
                for row in self.rows[1:]:
                    table[i] = row.sign_at(u)
                    if table[i]:
                        break
        return table

    def box_signs(self, axes: Axes) -> list[Sign]:
        """sign_of(u) for every u in itertools.product(*axes), in that order; each
        axis value is read once as an integer (else RangeError)."""
        axes = [_axis_values(axis) for axis in sequence(axes, "axes")]
        bound = max((abs(x) for axis in axes for x in axis), default=0)
        region = Columns.of(itertools.product(*axes), len(axes), bound)
        return list(map(_SIGNS.__getitem__, self.sign_table(region)))

    def compare(self, u: Sequence, v: Sequence) -> Sign:
        """sign_of(u - v): POS means u strictly dominates v."""
        (u, a), (v, b) = rational_vector(u, self.n), rational_vector(v, self.n)
        return self.sign_of([b * x - a * y for x, y in zip(u, v)])  # ab times u/a - v/b

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


def check_preorders(*objs) -> None:
    """RangeError unless each of objs is a Preorder."""
    for obj in objs:
        if not isinstance(obj, Preorder):
            raise RangeError(f"{obj!r} is not a Preorder")


def _axis_values(axis) -> list[int]:
    """The values of one box axis as ints: ints, or Fractions with denominator 1."""
    return [integer_value(x, "box coordinate") for x in sequence(axis, "integers")]


def next_row(p: Preorder, raw_row: FieldVector) -> FieldVector | None:
    """The canonical row that raw_row adds after p, or None if it is redundant.

    The row's integer layers lose their components along the bases of p's
    rows (reject): a positive multiple of its projection onto the real span of
    p's residue group, and row_of divides them by their signed lead.  A
    vanishing projection means the row is redundant after p.
    """
    p.check_row(raw_row)
    layers = reject(raw_row.int_layers(), [e for basis in p.bases for e in basis])
    return row_of(p.field, layers) if any(map(any, layers)) else None


def row_of(field: NumberField, layers: Sequence[Sequence[int]]) -> FieldVector:
    """The canonical row of nonzero integer residue layers (reject's output).

    With x = s * lead, s the sign of the first nonzero entry lead, the layers
    divided by x, adj(M_x) times them over the norm N(x) (NumberField.divide),
    are the row divided by |lead|.  from_int_layers stores them over N(x),
    reduced by one gcd and with a positive denominator; neither positive
    factor changes the lexicographic comparison.
    """
    lead = next(c for c in zip(*layers) if any(c))
    s = field.sign_of_coeffs(lead)
    return FieldVector.from_int_layers(field, *field.divide(layers, [s * c for c in lead]))


def append(p: Preorder, row: FieldVector) -> Preorder:
    """p with row, a canonical row after p (next_row), appended with its orthogonal basis."""
    return Preorder(p.field, p.n, p.rows + (row,), p.bases + (orthogonal_basis(row.int_layers()),))


def extend(p: Preorder, raw_row: FieldVector) -> Preorder:
    """The preorder that compares by p first and breaks its ties by raw_row (p if redundant)."""
    row = next_row(p, raw_row)
    return p if row is None else append(p, row)


def from_rows(raw_rows: Sequence[FieldVector], n: int,
              field: NumberField | None = None) -> Preorder:
    """Canonicalize defining rows into a Preorder with the same relation.

    A left fold of extend() over the rows, starting from the trivial preorder.
    """
    n, raw_rows = dimension(n), tuple(sequence(raw_rows, "rows"))
    if field is None:  # the first row's field (check_row rejects a non-row)
        first = raw_rows[0] if raw_rows else None
        field = first.field if isinstance(first, FieldVector) else NumberField.rational()
    return reduce(extend, raw_rows, Preorder(field, n, (), ()))
