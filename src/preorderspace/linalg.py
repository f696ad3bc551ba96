"""Exact linear algebra over Q, and over Q(alpha) via coefficient layers.

Rational subspaces are stored with a reduced row-echelon basis (pivots scaled
to 1, eliminated above and below), so equal subspaces have identical
representations and subspace equality is a plain tuple comparison.  rref
scales the pivots of realfield's integer echelon, the only elimination, to 1;
it is defined there, next to solve, the one linear solve, and imported here.
A kernel is one rref, and membership is read at the pivots, kept from it.

A vector over Q(alpha) splits into deg(alpha) rational "layers"
v = sum_j v_j alpha^j, and FieldVector stores them once, as integers over one
positive den coprime to them: unique per vector, so equality compares
integers, while the exact layers, entries, str and JSON are read from it.
from_layers is the boundary where rational layers are cleared, once; every
internal producer (extend's division by the norm, map_layers, add, scale,
compose, quotient, project) hands integer layers and an integer den to
from_int_layers, which reduces them by one gcd, so no Fraction is built on
the way; str and JSON print x/den from the integers.  map_layers
clears its rational matrix to integers over one denominator once for all the
rows it maps, and runs an integer mat_vec.
Since 1, alpha, ..., alpha^{d-1} are Q-linearly independent, a rational vector
is orthogonal to v iff it is orthogonal to every layer; kernels over the field
therefore reduce to rational nullspaces of stacked integer layers, and every
rational linear map acts on each layer separately; the one projection, reject,
treats all integer layers of a vector at once, fraction-free, and keeps no
factor: project reads its one scale back from the output.  A field element
scales a vector through its multiplication matrix, which mixes the layers.
sign_at runs on the integer layers and asks for the enclosure first: the
vector caches the integer interval enclosure of its entries over the field's
current interval (NumberField.enclosure), which bounds v . u by one integer
dot product plus a radius; integer Horner and bisection (sign_of_coeffs) run
only when that bound straddles zero.  box_signs applies the same test to every
point of a sequence of products of integer ranges, such as a box shell, in one
table per call: it fetches the enclosure once, and sums each product's dot
products and radii one axis at a time for the whole product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, DivisionByZero, FieldMismatch
from .realfield import (FieldElement, NumberField, clear_denominators, coeffs_json, coeffs_str,
                        parse_list, rref)

Q = Fraction
QVec = tuple[Fraction, ...]
Axes = Sequence[Sequence[int]]  # one integer range per coordinate


def _as_qvec(v: Sequence) -> QVec:
    return tuple(Q(x) for x in v)


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


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def reject(layers: Sequence[Sequence[int]], basis: Sequence[tuple[int, ...]]):
    """Jointly primitive integer layers, one positive multiple (not kept) of the
    layers projected off the span of mutually orthogonal integer vectors: each e
    met makes every layer (e.e) layer - (layer.e) e, then all lose their joint
    gcd (fraction-free Gram-Schmidt; Erlingsson, Kaltofen, Musser, ISSAC 1996)."""
    out = _joint_primitive(layers)
    for e in basis:
        cs = [sum(map(mul, layer, e)) for layer in out]
        if any(cs):
            ee = sum(map(mul, e, e))
            out = _joint_primitive([[ee * x - c * y for x, y in zip(layer, e)]
                                    for layer, c in zip(out, cs)])
    return out


def _joint_primitive(layers: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The layers over their joint gcd g > 0 (1 if all are zero), the gcd of the column gcds."""
    g = gcd(*map(gcd, *layers)) or 1
    return [tuple(x // g for x in layer) for layer in layers]


def orthogonal_basis(vectors: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Gram-Schmidt of integer vectors: orthogonal primitive ones with the same span."""
    basis: list[tuple[int, ...]] = []
    for v in vectors:
        (e,) = reject([v], basis)
        if any(e):
            basis.append(e)
    return tuple(basis)


class RationalSubspace:
    """A subspace of Q^n in canonical reduced row-echelon basis form."""

    __slots__ = ("n", "basis", "pivots")

    def __init__(self, n: int, basis: Sequence[QVec], _canonical: bool = False):
        self.n = n
        if _canonical:
            self.basis = tuple(tuple(v) for v in basis)
            self.pivots = tuple(next(i for i, c in enumerate(row) if c) for row in self.basis)
        else:
            red, pivots = rref(basis)
            self.basis = tuple(tuple(r) for r in red)
            self.pivots = tuple(pivots)

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

    def complement_coords(self) -> tuple[int, ...]:
        piv = set(self.pivots)
        return tuple(i for i in range(self.n) if i not in piv)

    def contains(self, v: Sequence) -> bool:
        """Whether v equals the combination of the basis by its pivot entries."""
        w = _as_qvec(v)
        if len(w) != self.n:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return tuple(sum((w[p] * row[t] for p, row in zip(self.pivots, self.basis)), Q(0))
                     for t in range(self.n)) == w

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
    """A vector over a NumberField: integer layers (layer j, over den, the alpha^j
    coefficients of the entries) over one den > 0 coprime to them, unique per vector."""

    __slots__ = ("field", "_ints", "den", "_enclosure")

    def __init__(self, field: NumberField, entries: Sequence[FieldElement]):
        entries = tuple(entries)
        if any(e.field != field for e in entries):
            raise FieldMismatch("entry from a different number field")
        self._store(field, *_cleared([[e.coeffs[j] for e in entries]
                                      for j in range(field.degree)]))

    @classmethod
    def from_rationals(cls, field: NumberField, values: Sequence) -> "FieldVector":
        return cls(field, tuple(field.from_rational(Q(v)) for v in values))

    @classmethod
    def from_layers(cls, field: NumberField, layers: Sequence[Sequence], den=1) -> "FieldVector":
        """The vector with rational layers layers / den, for a nonzero rational den:
        the boundary where rational layers are cleared to integers, once."""
        ints, top = _cleared(layers)
        bottom = den.denominator
        return cls.from_int_layers(field, [[x * bottom for x in layer] for layer in ints],
                                   top * den.numerator)

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
        if not den:
            raise DivisionByZero("layers over a zero denominator")
        g = gcd(den, *(x for layer in layers for x in layer)) * (1 if den > 0 else -1)
        self.field = field
        self._ints = (tuple(map(tuple, layers)) if g == 1 else
                      tuple(tuple(x // g for x in layer) for layer in layers))
        self.den = den // g
        self._enclosure = None

    @property
    def n(self) -> int:
        return len(self._ints[0])

    @property
    def entries(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, c) for c in zip(*self.layers()))

    def layers(self) -> tuple[QVec, ...]:
        return tuple(tuple(Q(x, self.den) for x in layer) for layer in self._ints)

    def int_layers(self) -> tuple[tuple[int, ...], ...]:
        """den times the layers: one positive factor for all (so no sign of v . u changes)."""
        return self._ints

    def is_zero(self) -> bool:
        return not any(any(layer) for layer in self._ints)

    def dot(self, q: Sequence) -> FieldElement:
        if len(q) != self.n:
            raise DimensionMismatch("dot: lengths differ")
        return FieldElement(self.field, [Q(sum(map(mul, layer, q)), self.den)
                                         for layer in self._ints])

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

    def box_signs(self, products: Sequence[Axes]) -> list[int]:
        """Signs of self . u for every u in itertools.product(*axes), for each
        axes in products in turn (one axis per coordinate), in one table.

        The enclosure is fetched once; each product's sums are built one axis at
        a time, mid(u) = sum mids[i] u_i and rad(u) = sum rads[i] |u_i|, and each
        point is decided by the test of sign_at; the points it leaves undecided
        go through sign_at itself, and so to the field's exact sign."""
        _, mids, rads = self._enclosure = self.field.enclosure(self._ints, self._enclosure)
        table = []
        for axes in products:
            mid, rad = [0], [0]
            for m, r, axis in zip(mids, rads, axes):
                mid = [a + m * v for a in mid for v in axis]
                rad = [a + r * abs(v) for a in rad for v in axis]
            table += [1 if a > b else -1 if a < -b else 0 for a, b in zip(mid, rad)]
        for i, u in zero_points(table, products):
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
        """factor * v: a rational scales the integers and den, a field element
        mixes the layers through the multiplication matrix of its cleared
        coefficients."""
        if not isinstance(factor, FieldElement):
            factor = Q(factor)
            top = factor.numerator
            return FieldVector.from_int_layers(self.field, [[top * x for x in layer]
                                                            for layer in self._ints],
                                               self.den * factor.denominator)
        if factor.field != self.field:
            raise FieldMismatch("operands from different number fields")
        coeffs, den = clear_denominators(factor.coeffs)
        return FieldVector.from_int_layers(self.field,
                                           mat_mul(self.field.mul_matrix(coeffs), self._ints),
                                           den * self.den)

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


def map_layers(rows: Sequence[FieldVector], m: Sequence[Sequence]) -> list[FieldVector]:
    """Each row with layers m . layer: the rational map m applied to every layer
    of every row.  m is cleared once, to one integer matrix over one
    denominator, so each product is an integer mat_vec."""
    ints, den = _cleared(m)
    return [FieldVector.from_int_layers(row.field, [mat_vec(ints, x) for x in row._ints],
                                        den * row.den) for row in rows]


def _cleared(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(ints, den): rational rows as integer rows of the same lengths over one
    den > 0, the lcm of all their denominators."""
    flat, den = clear_denominators(x for row in rows for x in row)
    entries = iter(flat)
    return [list(islice(entries, len(row))) for row in rows], den


def zero_points(table: list[int], products: Sequence[Axes]) -> Iterator[tuple[int, list]]:
    """(i, u) for each zero of a table over products, in order: table[i] stands
    for the point u of the product holding i; each zero is found by list.index."""
    i, stop, rest = -1, 0, iter(products)
    for _ in range(table.count(0)):
        i = table.index(0, i + 1)
        while i >= stop:
            axes = next(rest)
            start, stop = stop, stop + prod(map(len, axes))
        yield i, product_point(axes, i - start)


def product_point(axes: Sequence[Sequence[int]], i: int) -> list[int]:
    """The point at index i of itertools.product(*axes): i in mixed radix."""
    u = []
    for axis in reversed(axes):
        i, j = divmod(i, len(axis))
        u.append(axis[j])
    return u[::-1]


def rational_kernel(rows: Sequence[FieldVector], n: int) -> RationalSubspace:
    """{q in Q^n : q . r = 0 for every row}, via stacked rational layers."""
    constraints: list[QVec] = []
    for r in rows:
        if r.n != n:
            raise DimensionMismatch("row length does not match ambient dimension")
        constraints += r._ints
    if len({r.field for r in rows}) > 1:
        raise FieldMismatch("rows from different number fields")
    return RationalSubspace(n, nullspace_basis(constraints, n), _canonical=True)


def project(v: FieldVector, w: RationalSubspace) -> FieldVector:
    """Orthogonal projection of v onto the real span of w: v's integer layers
    rejected along w's cleared complement are out = Pv / c for one c > 0, and as
    v - Pv is orthogonal to out, c = v.out / out.out, summed over the layers."""
    if v.n != w.n:
        raise DimensionMismatch("vector and subspace dimensions differ")
    out = reject(v._ints, orthogonal_basis(_cleared(nullspace_basis(w.basis, w.n))[0]))
    num = sum(sum(map(mul, x, y)) for x, y in zip(v._ints, out))
    den = sum(sum(map(mul, y, y)) for y in out)
    return FieldVector.from_int_layers(v.field, [[x * num for x in layer] for layer in out],
                                       (den or 1) * v.den)
