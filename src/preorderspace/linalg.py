"""Exact linear algebra over Q, and over Q(alpha) via coefficient layers.

Rational subspaces are stored with a reduced row-echelon basis (pivots scaled
to 1, eliminated above and below), so equal subspaces have identical
representations and subspace equality is a plain tuple comparison.  rref is
the only elimination and runs on primitive integer rows; a kernel is one rref,
and membership and coordinates are read at the pivots.

A vector over Q(alpha) splits into deg(alpha) rational "layers"
v = sum_j v_j alpha^j, and FieldVector stores only those layers.  Since
1, alpha, ..., alpha^{d-1} are Q-linearly independent, a rational vector is
orthogonal to v iff it is orthogonal to every layer; kernels over the field
therefore reduce to rational nullspaces of stacked layer matrices, and every
rational linear map acts on each layer separately; a projection subtracts
components along mutually orthogonal integer vectors (reject).  Field-element
entries are built only for str and JSON.  For sign queries at integer points
a vector also keeps, computed once, its layers scaled to integers by their
positive common denominator, so sign_at runs on integers throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch, SingularMatrix
from .realfield import FieldElement, NumberField, parse_list

Q = Fraction
QVec = tuple[Fraction, ...]


def _as_qvec(v: Sequence) -> QVec:
    return tuple(Q(x) for x in v)


def _primitive(row: Sequence[Fraction]) -> list[int]:
    """row (ints or Fractions) scaled to coprime integers by a positive factor."""
    den = lcm(*(c.denominator for c in row))
    ints = [c.numerator * (den // c.denominator) for c in row]
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Row operations run on primitive integer rows: clearing column col of row
    r against pivot row s leaves the primitive part of s[col] r - r[col] s.
    Each row is then fixed up to sign by the span it lies in, so its entries
    stay bounded by minors of the input, as in Bareiss's fraction-free
    elimination.  Only the final scaling of each pivot to 1 makes Fractions.
    """
    mat = [r for r in (_primitive([Q(x) for x in r]) for r in rows) if any(r)]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        k = len(pivots)
        sel = next((r for r in range(k, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[k], mat[sel] = mat[sel], mat[k]
        prow = mat[k]
        a = prow[col]
        for r, row in enumerate(mat):
            b = row[col]
            if b and r != k:
                g = gcd(a, b)
                mat[r] = _primitive([(a // g) * x - (b // g) * y for x, y in zip(row, prow)])
        pivots.append(col)
    return [[Q(x, row[p]) for x in row] for row, p in zip(mat, pivots)], pivots


def nullspace_basis(constraints: list[Sequence[Fraction]], n: int) -> list[QVec]:
    """RREF basis of {q in Q^n : c . q = 0 for every constraint row c}.

    One rref of the column-reversed constraints: in original order each row
    is zero right of its pivot, so the kernel vector of a free column f
    (1 at f, minus the row entries at the pivots) leads at f and is zero at
    the other free columns; taken by increasing f these are the kernel's RREF.
    """
    red, pivots = rref([c[::-1] for c in constraints])
    basis = []
    for f in reversed(range(n)):
        if f not in pivots:
            v = [Q(0)] * n
            v[f] = Q(1)
            for row, p in zip(red, pivots):
                v[p] = -row[f]
            basis.append(tuple(v[::-1]))
    return basis


def mat_vec(m: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> QVec:
    return tuple(sum((a * b for a, b in zip(row, v)), Q(0)) for row in m)


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in bt] for row in a]


def mat_inverse(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [list(row) + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return [row[n:] for row in red]


def lin_comb(coeffs: Sequence[Fraction], vectors: Sequence[Sequence[Fraction]],
             n: int) -> list[Fraction]:
    """sum_i coeffs[i] * vectors[i] in Q^n."""
    out = [Q(0)] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for t in range(n):
                out[t] += c * v[t]
    return out


def reject(v: Sequence[Fraction], basis: Sequence[tuple[int, ...]]) -> QVec:
    """v minus its components (v.e / e.e) e along mutually orthogonal vectors e,
    skipping zero coordinates: the projection onto the complement of span(basis)."""
    out = list(v)
    terms = [(i, x) for i, x in enumerate(v) if x]
    for e in basis:
        c = sum(x * e[i] for i, x in terms if e[i])
        if c:
            f = Q(c, sum(y * y for y in e))
            for i, y in enumerate(e):
                if y:
                    out[i] -= f * y
    return tuple(out)


def orthogonal_basis(vectors: Iterable[Sequence[Fraction]]) -> tuple[tuple[int, ...], ...]:
    """Gram-Schmidt: mutually orthogonal primitive integer vectors with the same span."""
    basis: list[tuple[int, ...]] = []
    for v in vectors:
        e = reject(v, basis)
        if any(e):
            basis.append(tuple(_primitive(e)))
    return tuple(basis)


class RationalSubspace:
    """A subspace of Q^n in canonical reduced row-echelon basis form."""

    __slots__ = ("n", "basis")

    def __init__(self, n: int, basis: Sequence[QVec], _canonical: bool = False):
        self.n = n
        if _canonical:
            self.basis = tuple(tuple(v) for v in basis)
        else:
            self.basis = tuple(tuple(r) for r in rref(basis)[0])

    @classmethod
    def from_spanning(cls, vectors: Iterable[Sequence], n: int) -> "RationalSubspace":
        vecs = [_as_qvec(v) for v in vectors]
        for v in vecs:
            if len(v) != n:
                raise DimensionMismatch(f"vector length {len(v)} != ambient {n}")
        return cls(n, vecs)

    @classmethod
    def full(cls, n: int) -> "RationalSubspace":
        ident = [tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n)]
        return cls(n, ident, _canonical=True)

    @classmethod
    def zero(cls, n: int) -> "RationalSubspace":
        return cls(n, [], _canonical=True)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, c in enumerate(row) if c != 0) for row in self.basis)

    def complement_coords(self) -> tuple[int, ...]:
        piv = set(self.pivots)
        return tuple(i for i in range(self.n) if i not in piv)

    def contains(self, v: Sequence) -> bool:
        """Whether v equals the combination of the basis by its pivot entries."""
        w = _as_qvec(v)
        if len(w) != self.n:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return tuple(lin_comb([w[p] for p in self.pivots], self.basis, self.n)) == w

    def coords(self, v: Sequence) -> QVec:
        """Coordinates of a member vector in the echelon basis (pivot reading)."""
        if not self.contains(v):
            raise DimensionMismatch("vector is not in the subspace")
        return tuple(Q(v[p]) for p in self.pivots)

    def intersect(self, other: "RationalSubspace") -> "RationalSubspace":
        if self.n != other.n:
            raise DimensionMismatch("ambient dimensions differ")
        duals = nullspace_basis(self.basis, self.n) + nullspace_basis(other.basis, self.n)
        return RationalSubspace(self.n, nullspace_basis(duals, self.n), _canonical=True)

    def __eq__(self, other):
        if not isinstance(other, RationalSubspace):
            return NotImplemented
        return self.n == other.n and self.basis == other.basis

    def __hash__(self):
        return hash((self.n, self.basis))

    def __repr__(self):
        return f"RationalSubspace(n={self.n}, dim={self.dim})"


class FieldVector:
    """A vector over a NumberField; layer j holds the alpha^j coefficients of its entries."""

    __slots__ = ("field", "_layers", "_int_layers")

    def __init__(self, field: NumberField, entries: Sequence[FieldElement]):
        entries = tuple(entries)
        for e in entries:
            if e.field != field:
                raise FieldMismatch("entry from a different number field")
        self.field = field
        self._layers = tuple(tuple(e.coeffs[j] for e in entries) for j in range(field.degree))
        self._int_layers = None

    @classmethod
    def from_rationals(cls, field: NumberField, values: Sequence) -> "FieldVector":
        return cls(field, tuple(field.from_rational(Q(v)) for v in values))

    @classmethod
    def from_layers(cls, field: NumberField, layers: Sequence[Sequence[Fraction]]) -> "FieldVector":
        layers = tuple(tuple(layer) for layer in layers)
        if len(layers) != field.degree or len({len(layer) for layer in layers}) != 1:
            raise DimensionMismatch("need deg(alpha) rational layers of one length")
        v = object.__new__(cls)
        v.field = field
        v._layers = layers
        v._int_layers = None
        return v

    @property
    def n(self) -> int:
        return len(self._layers[0])

    @property
    def entries(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, c) for c in zip(*self._layers))

    def layers(self) -> tuple[QVec, ...]:
        return self._layers

    def is_zero(self) -> bool:
        return not any(any(layer) for layer in self._layers)

    def dot(self, q: Sequence) -> FieldElement:
        if len(q) != self.n:
            raise DimensionMismatch("dot: lengths differ")
        terms = [(i, x) for i, x in enumerate(q) if x]
        return FieldElement(self.field, [sum(x * layer[i] for i, x in terms if layer[i])
                                         for layer in self._layers])

    def int_layers(self) -> tuple[tuple[int, ...], ...]:
        """The layers times their positive common denominator, computed once per vector."""
        if self._int_layers is None:
            den = lcm(*(x.denominator for layer in self._layers for x in layer))
            self._int_layers = tuple(tuple(x.numerator * (den // x.denominator) for x in layer)
                                     for layer in self._layers)
        return self._int_layers

    def sign_at(self, u: Sequence[int]) -> int:
        """Sign of self . u for an integer vector u, in integer arithmetic."""
        if len(u) != self.n:
            raise DimensionMismatch("sign_at: lengths differ")
        return self.field.sign_of_coeffs([sum(map(mul, layer, u)) for layer in self.int_layers()])

    def map_layers(self, m: Sequence[Sequence[Fraction]]) -> "FieldVector":
        """The vector with layers m . layer: the rational map m applied to each layer."""
        return FieldVector.from_layers(self.field, [mat_vec(m, layer) for layer in self._layers])

    def add(self, other: "FieldVector") -> "FieldVector":
        if other.field != self.field:
            raise FieldMismatch("operands from different number fields")
        if other.n != self.n:
            raise DimensionMismatch(f"add: lengths {self.n} and {other.n} differ")
        return FieldVector.from_layers(self.field, [tuple(a + b for a, b in zip(x, y))
                                                    for x, y in zip(self._layers, other._layers)])

    def scale(self, factor) -> "FieldVector":
        """factor * v; a field element mixes the layers through its multiplication matrix."""
        if isinstance(factor, FieldElement):
            if factor.field != self.field:
                raise FieldMismatch("operands from different number fields")
            return FieldVector.from_layers(self.field, [lin_comb(row, self._layers, self.n)
                                                        for row in factor.mul_matrix()])
        f = Q(factor)
        return FieldVector.from_layers(self.field, [tuple(f * x for x in layer)
                                                    for layer in self._layers])

    def __eq__(self, other):
        if not isinstance(other, FieldVector):
            return NotImplemented
        return self.field == other.field and self._layers == other._layers

    def __hash__(self):
        return hash(self._layers)

    def __str__(self):
        return "(" + ",".join(str(e) for e in self.entries) + ")"

    def __repr__(self):
        return f"FieldVector{self}"

    def to_json(self):
        return [e.to_json() for e in self.entries]

    @classmethod
    def from_json(cls, field: NumberField, obj) -> "FieldVector":
        return cls(field, tuple(parse_list(obj, lambda x: FieldElement.from_json(field, x))))


def rational_kernel(rows: Sequence[FieldVector], n: int) -> RationalSubspace:
    """{q in Q^n : q . r = 0 for every row}, via stacked rational layers."""
    constraints: list[QVec] = []
    for r in rows:
        if r.n != n:
            raise DimensionMismatch("row length does not match ambient dimension")
        constraints += [layer for layer in r._layers if any(layer)]
    if len({r.field for r in rows}) > 1:
        raise FieldMismatch("rows from different number fields")
    return RationalSubspace(n, nullspace_basis(constraints, n), _canonical=True)


def project(v: FieldVector, w: RationalSubspace) -> FieldVector:
    """Orthogonal projection of v onto the real span of w, layer by layer: each
    layer loses its components along an orthogonal basis of w's complement."""
    if v.n != w.n:
        raise DimensionMismatch("vector and subspace dimensions differ")
    complement = orthogonal_basis(nullspace_basis(w.basis, w.n))
    return FieldVector.from_layers(v.field, [reject(layer, complement) for layer in v._layers])
