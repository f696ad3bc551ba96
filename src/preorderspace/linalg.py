"""Exact linear algebra over Q, and over Q(alpha) via coefficient layers.

Rational subspaces are stored with a reduced row-echelon basis (pivots scaled
to 1, eliminated above and below) as rows are stored, integers over one den
(realfield.reduced), so subspace equality is a plain tuple comparison.  rref
clears its rational rows once and scales the pivots of realfield's integer
echelon, the only elimination, to den; it is defined there, next to solve, the
one linear solve, and imported here.  A kernel is one rref, and membership is
read at the pivots, kept from it.  This module clears no rational itself: a
subspace, a kernel, dot and contains read each vector through
realfield.rational_vector, and from_layers and from_rationals through cleared.

A vector over Q(alpha) splits into deg(alpha) rational "layers"
v = sum_j v_j alpha^j, and FieldVector stores them once, as integers over one
positive den coprime to them (realfield.reduced, the form field elements and
automorphisms keep too): unique per vector, so equality compares integers.
from_layers is the boundary where rational layers enter, once; the
entries and every internal producer (row_of's division by the norm,
map_layers, add, scale, compose, quotient, project) pass integers and an
integer den, so no Fraction is built on the way; str and JSON print x/den
from the integers, and layers() reads them back as Fractions.
Since 1, alpha, ..., alpha^{d-1} are Q-linearly independent, a rational vector
is orthogonal to v iff it is orthogonal to every layer; kernels over the field
therefore reduce to rational nullspaces of stacked integer layers, and every
rational linear map acts on each layer separately; the one projection, reject,
treats all integer layers of a vector at once, in one pass over a mutually
orthogonal basis (each layer times D, the lcm of the norms e.e met, less
(D / e.e)(layer.e) e, over one joint gcd), and keeps no factor: project reads
its one scale back from the output.  A field element
scales a vector through its multiplication matrix, which mixes the layers.
sign_at runs on the integer layers and asks for the enclosure first: the
vector caches the integer interval enclosure of its entries over the field's
current interval (NumberField.enclosure), which bounds v . u by one integer
dot product plus a radius; integer Horner and bisection (sign_of_coeffs) run
only when that bound straddles zero.  box_signs decides all points of a region
stored as coordinate columns in a box G_bound (Columns) in one table: it fetches
the enclosure once, builds the dot products with one pass per coordinate whose
coefficient is nonzero, and tests each against one radius, bound * sum(rads),
which is >= sum rads[i] |u_i| at every point u; only the rest go to sign_at.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .realfield import (FieldElement, NumberField, cleared, coeffs_json, coeffs_str, common_den,
                        dimension, parse_list, rational_vector, reduced, rref, sequence)

Q = Fraction
Axes = Sequence[Sequence[int]]  # one integer range per coordinate


class Columns(NamedTuple):
    """size integer points of Z^n, in order, as n coordinate columns (cols[i][j]
    is coordinate i of point j), in the box G_bound: |cols[i][j]| <= bound."""

    size: int
    cols: tuple[tuple[int, ...], ...]
    bound: int

    @classmethod
    def of(cls, points: Iterable[Sequence[int]], n: int, bound: int) -> "Columns":
        """The columns of points of Z^n in G_bound, a box the caller names (n is read if none)."""
        points = list(points)
        return cls(len(points), tuple(zip(*points)) or ((),) * n, bound)

    def at_zeros(self, table: Sequence[int]) -> Iterator[tuple[int, list[int]]]:
        """(i, point i) for each zero table[i] of a table over the points, in
        order; each zero is found by list.index."""
        i = -1
        for _ in range(table.count(0)):
            i = table.index(0, i + 1)
            yield i, [col[i] for col in self.cols]


def _combination(coeffs: Sequence[int], cols: Sequence[Sequence[int]], size: int) -> list[int]:
    """sum_i coeffs[i] * cols[i], entry by entry, one pass per nonzero coefficient."""
    out = None
    for c, col in zip(coeffs, cols):
        if c:
            out = [c * x for x in col] if out is None else [a + c * x for a, x in zip(out, col)]
    return [0] * size if out is None else out


def nullspace_basis(constraints: Sequence[Sequence], n: int) -> tuple[list[list[int]], int]:
    """(ints, den): the RREF basis of {q in Q^n : c . q = 0 for every constraint
    c, each of length n (else DimensionMismatch)} as integer rows over den > 0.

    One rref of the column-reversed constraints, ints over den: in original
    order each row is zero right of its pivot, so the kernel vector of a free
    column f (den at f, minus the row entries at the pivots) leads at f and is
    zero at the other free columns; by increasing f these are the kernel's RREF.
    """
    red, den, pivots = rref([rational_vector(c, n)[0][::-1] for c in constraints])
    basis = []
    for f in reversed(range(n)):
        if f not in pivots:
            v = [0] * n
            v[f] = den
            for row, p in zip(red, pivots):
                v[p] = -row[f]
            basis.append(v[::-1])
    return basis, den


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def reject(layers: Sequence[Sequence[int]], basis: Sequence[tuple[int, ...]]):
    """Jointly primitive integer layers, one positive multiple (not kept) of the
    layers projected off the span of mutually orthogonal integer vectors, in one
    pass: each coefficient c = layer.e is read off the input, D is the lcm of the
    norms e.e that occur, each layer becomes D layer - sum (D / e.e) c e, and
    all lose their joint gcd once."""
    terms = []
    for e in basis:
        cs = [sum(map(mul, layer, e)) for layer in layers]
        if any(cs):
            terms.append((sum(map(mul, e, e)), cs, e))
    if not terms:
        return _joint_primitive(layers)
    d = common_den(ee for ee, _, _ in terms)
    out = [[d * x for x in layer] for layer in layers]
    for ee, cs, e in terms:
        for j, c in enumerate(cs):
            if c:
                f = d // ee * c
                out[j] = [x - f * y for x, y in zip(out[j], e)]
    return _joint_primitive(out)


def _joint_primitive(layers: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    """The layers over their joint gcd g (the gcd of the column gcds), or as they are if g < 2."""
    g = gcd(*map(gcd, *layers))
    if g < 2:
        return layers
    return [[x // g for x in layer] for layer in layers]


def orthogonal_basis(vectors: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Gram-Schmidt of integer vectors: orthogonal primitive ones with the same span."""
    basis: list[tuple[int, ...]] = []
    for v in vectors:
        (e,) = reject([v], basis)
        if any(e):
            basis.append(e)
    return tuple(basis)


class RationalSubspace:
    """A subspace of Q^n: its reduced row-echelon basis ints / den (reduced), and its pivots."""

    __slots__ = ("n", "ints", "den", "pivots")

    def __init__(self, n: int, vectors: Iterable[Sequence]):
        """The span of vectors of Q^n, each of length n (else DimensionMismatch)."""
        self.n = dimension(n)
        ints, den, pivots = rref([rational_vector(v, self.n)[0]
                                  for v in sequence(vectors, "vectors")])
        self.ints, self.den = reduced(ints, den)
        self.pivots = tuple(pivots)

    @classmethod
    def kernel(cls, constraints: Sequence[Sequence], n: int) -> "RationalSubspace":
        """{q in Q^n : c . q = 0 for every constraint c}, as nullspace_basis gives it."""
        w = object.__new__(cls)
        w.n = dimension(n)
        w.ints, w.den = reduced(*nullspace_basis(sequence(constraints, "constraints"), w.n))
        w.pivots = tuple(next(i for i, x in enumerate(row) if x) for row in w.ints)
        return w

    @classmethod
    def full(cls, n: int) -> "RationalSubspace":
        return cls.kernel([], n)

    @classmethod
    def zero(cls, n: int) -> "RationalSubspace":
        """{0}, stored as it is, with no elimination."""
        w = object.__new__(cls)
        w.n, w.ints, w.den, w.pivots = dimension(n), (), 1, ()
        return w

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Q(x, self.den) for x in row) for row in self.ints)

    @property
    def dim(self) -> int:
        return len(self.ints)

    def complement_coords(self) -> tuple[int, ...]:
        piv = set(self.pivots)
        return tuple(i for i in range(self.n) if i not in piv)

    def contains(self, v: Sequence) -> bool:
        """Whether v, cleared to w, is the combination of the basis by w's pivot
        entries: at the pivots it is by construction, so the other columns decide."""
        w, _ = rational_vector(v, self.n)
        return all(sum(w[p] * row[t] for p, row in zip(self.pivots, self.ints)) == self.den * w[t]
                   for t in self.complement_coords())

    def intersect(self, other: "RationalSubspace") -> "RationalSubspace":
        if self.n != other.n:
            raise DimensionMismatch("ambient dimensions differ")
        duals = nullspace_basis(self.ints, self.n)[0] + nullspace_basis(other.ints, self.n)[0]
        return RationalSubspace.kernel(duals, self.n)

    def __eq__(self, other):
        if not isinstance(other, RationalSubspace):
            return NotImplemented
        return (self.n, self.ints, self.den) == (other.n, other.ints, other.den)

    def __hash__(self):
        return hash((self.n, self.ints, self.den))

    def __repr__(self):
        return f"RationalSubspace(n={self.n}, dim={self.dim})"


class FieldVector:
    """A vector over a NumberField: integer layers (layer j, over den, the alpha^j
    coefficients of the entries) over one den > 0 coprime to them, unique per vector."""

    __slots__ = ("field", "_ints", "den", "_enclosure")

    def __init__(self, field: NumberField, entries: Sequence[FieldElement]):
        entries = tuple(entries)
        if any(e.field is not field and e.field != field for e in entries):
            raise FieldMismatch("entry from a different number field")
        den = common_den(e.den for e in entries)
        self._store(field, [[e.ints[j] * (den // e.den) for e in entries]
                            for j in range(field.degree)], den)

    @classmethod
    def from_rationals(cls, field: NumberField, values: Iterable) -> "FieldVector":
        values = list(sequence(values, "rationals"))
        return cls.from_layers(field, [values] + [[0] * len(values)] * (field.degree - 1))

    @classmethod
    def from_layers(cls, field: NumberField, layers: Sequence[Sequence], den=1) -> "FieldVector":
        """The vector with rational layers layers / den, for a nonzero rational den:
        the boundary where rational layers are cleared to integers, once, with den."""
        *ints, (den,) = cleared([*layers, [den]])[0]
        return cls.from_int_layers(field, ints, den)

    @classmethod
    def from_int_layers(cls, field: NumberField, layers: Sequence[Sequence[int]],
                        den: int = 1) -> "FieldVector":
        """The vector with layers layers / den, for integer layers and a nonzero
        integer den: reduced by one gcd, and no Fraction is built."""
        v = object.__new__(cls)
        v._store(field, layers, den)
        return v

    def _store(self, field: NumberField, layers: Sequence[Sequence[int]], den: int) -> None:
        if len(layers) != field.degree or len({len(layer) for layer in layers}) != 1:
            raise DimensionMismatch("need deg(alpha) layers of one length")
        self.field = field
        self._ints, self.den = reduced(layers, den)
        self._enclosure = None

    @property
    def n(self) -> int:
        return len(self._ints[0])

    @property
    def entries(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, c, self.den) for c in zip(*self._ints))

    def layers(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Q(x, self.den) for x in layer) for layer in self._ints)

    def int_layers(self) -> tuple[tuple[int, ...], ...]:
        """den times the layers: one positive factor for all (so no sign of v . u changes)."""
        return self._ints

    def is_zero(self) -> bool:
        return not any(any(layer) for layer in self._ints)

    def dot(self, q: Sequence) -> FieldElement:
        q, top = rational_vector(q, self.n)
        return FieldElement(self.field, [sum(map(mul, layer, q)) for layer in self._ints],
                            top * self.den)

    def sign_at(self, u: Sequence[int]) -> int:
        """Sign of self . u for an integer vector u, in integer arithmetic.

        The cached integer enclosure of the entries (NumberField.enclosure)
        decides the sign when its bound on the dot product excludes zero; only
        when it straddles zero do the layer dots go to the field's exact sign.
        """
        if len(u) != self.n:
            raise DimensionMismatch("sign_at: lengths differ")
        _, mids, rads = self._enclosure = self.field.enclosure(self._ints, self._enclosure)
        mid = sum(map(mul, mids, u))
        rad = sum(map(mul, rads, map(abs, u)))
        if mid > rad:
            return 1
        if mid < -rad:
            return -1
        return self.field.sign_of_coeffs([sum(map(mul, layer, u)) for layer in self._ints])

    def box_signs(self, region: Columns) -> list[int]:
        """Signs of self . u for every point u of region, in order, in one table.

        The enclosure is fetched once and mid(u) = sum mids[i] u_i is built over
        the whole region, one pass per coordinate whose coefficient is nonzero.
        Every point's radius sum rads[i] |u_i| is at most R = bound sum rads[i],
        so mid(u) > R or < -R decides u as sign_at's test would; the points
        within R go through sign_at itself, and so to the field's exact sign.
        When R is 0 (a rational row, or a region of origins) mid is exact: its
        sign is the answer, a zero included."""
        _, mids, rads = self._enclosure = self.field.enclosure(self._ints, self._enclosure)
        if len(region.cols) != len(mids):
            raise DimensionMismatch(f"box_signs: {len(region.cols)} columns != length {len(mids)}")
        mid = _combination(mids, region.cols, region.size)
        r = region.bound * sum(rads)
        nr = -r
        table = [1 if a > r else -1 if a < nr else 0 for a in mid]
        if r:
            for i, u in region.at_zeros(table):
                table[i] = self.sign_at(u)
        return table

    def add(self, other: "FieldVector") -> "FieldVector":
        if other.field != self.field:
            raise FieldMismatch("operands from different number fields")
        if other.n != self.n:
            raise DimensionMismatch(f"add: lengths {self.n} and {other.n} differ")
        a, b = other.den, self.den
        layers = [[a * x + b * y for x, y in zip(s, o)] for s, o in zip(self._ints, other._ints)]
        return FieldVector.from_int_layers(self.field, layers, a * b)

    def scale(self, factor) -> "FieldVector":
        """factor * v for a field element (or a rational, made one): its
        multiplication matrix mixes the integer layers, over the two dens."""
        if not isinstance(factor, FieldElement):
            factor = self.field.from_rational(factor)
        if factor.field != self.field:
            raise FieldMismatch("operands from different number fields")
        return FieldVector.from_int_layers(self.field,
                                           mat_mul(self.field.mul_matrix(factor.ints), self._ints),
                                           factor.den * self.den)

    def __eq__(self, other):
        if not isinstance(other, FieldVector):
            return NotImplemented
        return (self.field, self._ints, self.den) == (other.field, other._ints, other.den)

    def __hash__(self):
        return hash((self._ints, self.den))

    def __str__(self):
        return "(" + ",".join(coeffs_str(c, self.den) for c in zip(*self._ints)) + ")"

    def __repr__(self):
        return f"FieldVector{self}"

    def to_json(self):
        return [coeffs_json(c, self.den) for c in zip(*self._ints)]

    @classmethod
    def from_json(cls, field: NumberField, obj) -> "FieldVector":
        return cls(field, tuple(parse_list(obj, lambda x: FieldElement.from_json(field, x))))


def map_layers(rows: Sequence[FieldVector], m: Sequence[Sequence[int]], den=1) -> list[FieldVector]:
    """Each row with layers (m / den) . layer, for an integer matrix m (an automorphism's
    as stored, a basis cleared once) and a nonzero integer den: integer mat_vecs."""
    return [FieldVector.from_int_layers(row.field, [mat_vec(m, x) for x in row._ints],
                                        den * row.den) for row in rows]


def rational_kernel(rows: Sequence[FieldVector], n: int) -> RationalSubspace:
    """{q in Q^n : q . r = 0 for every row}, the kernel of the rows' stacked integer layers."""
    constraints: list[tuple[int, ...]] = []
    for r in rows:
        if r.n != n:
            raise DimensionMismatch("row length does not match ambient dimension")
        constraints += r._ints
    if len({r.field for r in rows}) > 1:
        raise FieldMismatch("rows from different number fields")
    return RationalSubspace.kernel(constraints, n)


def project(v: FieldVector, w: RationalSubspace) -> FieldVector:
    """Orthogonal projection of v onto the real span of w: v's integer layers
    rejected along w's complement (the kernel of w.ints) are out = Pv / c for one
    c > 0, and as v - Pv is orthogonal to out, c = v.out / out.out, summed over the layers."""
    if v.n != w.n:
        raise DimensionMismatch("vector and subspace dimensions differ")
    out = reject(v._ints, orthogonal_basis(nullspace_basis(w.ints, w.n)[0]))
    num = sum(sum(map(mul, x, y)) for x, y in zip(v._ints, out))
    den = sum(sum(map(mul, y, y)) for y in out)
    return FieldVector.from_int_layers(v.field, [[x * num for x in layer] for layer in out],
                                       (den or 1) * v.den)
