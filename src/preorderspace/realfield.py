"""Exact arithmetic and sign determination in a real number field Q(alpha).

A field is described by a monic irreducible integer polynomial together with
a rational interval isolating one real root alpha.  An element is stored as
its d = deg(alpha) coefficients, integers over one den > 0 coprime to them
(reduced, as rows and automorphisms are), so equality compares integers.

All arithmetic goes through one multiplication matrix (Cohen, A Course in
Computational Algebraic Number Theory, 4.2): mul_matrix(c) is the matrix of
x -> c x in the basis 1, alpha, ..., alpha^(d-1), each column the one before
times alpha, reduced by the minimal polynomial.  A product is that matrix
times a coefficient vector.  Division goes through the norm (Cohen, 4.2-4.3):
divide(L, c) gives adj(M) L and N = det M for integer c and layers L by one
fraction-free Bareiss elimination of [M | L], so adj(M) L / N is L over x: an
inverse divides e_0, x / y the column of x, and row_of a row by its lead.
echelon, the only general elimination (fraction-free, on primitive integer
rows), rref and solve, the only linear solve (no inverse is formed and then
multiplied), live here too, and build no Fraction: rref keeps the pivot-1
echelon as rows are kept, integer rows over one den > 0 (the lcm of the
pivots), the form of linalg's kernels and subspaces, and solve reads integer
X over that den off the rref of [a | b].  Rank checks count pivots.
Coefficients print as x/den from the integers (coeffs_str, coeffs_json), one
gcd per entry, and .coeffs reads them back as Fractions.

Rationals are read once, where they enter: cleared turns rows of rationals
into integer rows over one den (times the positive lcm of their denominators,
which changes no sign) in one pass, and raises RangeError for a value that
Fraction() cannot read.  The constructors, rref and solve call it; the core
below them (echelon, sign_of_coeffs, divide, the Sturm chains) takes
integers only.  Each kind of argument has one reader: rational_vector (a
vector of Q^n as integers over den: the vectors of sign_of, compare, dot,
contains, image and subspaces, and the isolating interval), integer_point (a
point of Z^n: exponents, box points) and dimension (an n >= 0).  A
non-sequence or a str is a RangeError there, another length a
DimensionMismatch.  Polynomials are evaluated only by the integer interval
Horner _int_interval_eval.  Root isolation, for the irreducibility test and
the isolating interval, counts sign changes along Sturm chains of primitive
integer polynomials, built by integer pseudo-division.

Sign determination is exact: zero is decided syntactically (all coefficients
zero), and a nonzero element's sign is obtained by refining the isolating
interval with exact interval arithmetic until the evaluated interval excludes
zero.  The field keeps its interval as integer numerators A < B over one
denominator D > 0, and bisection doubles D; a sign query clears the
coefficients and runs the integer Horner, a positive multiple of the rational
interval Horner over [A/D, B/D], on them.  The loop ends whenever the
element is nonzero.  After a fixed number of bisections it checks once that
the element's multiplication matrix is invertible (divide): a singular one
makes the element a zero divisor, which proves the minimal polynomial
reducible (possible only under a false assert_irreducible) and raises
InvalidField; that is the one case where the element could vanish at alpha.
The answer is never interval-approximate.

Many queries against one vector ask for the enclosure first: enclosure gives
the integer Horner of each entry once per interval, keyed by D, so a caller
decides most signs by one integer dot product and comes to sign_of_coeffs
(integer Horner and bisection) only when that enclosure straddles zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import (DimensionMismatch, DivisionByZero, FieldMismatch, InvalidField, ParseError,
                     RangeError, SingularMatrix, UnsupportedDegree)

SIGN_BISECTION_CAP = 64

Q = Fraction


# ---------------------------------------------------------------------------
# JSON literals
# ---------------------------------------------------------------------------

def parse_rational(obj) -> Fraction:
    """A JSON rational literal: an integer, or a string such as "-3/4" or "1.5".

    Anything else raises ParseError: a float, so a binary double never passes
    for the decimal it was written as; a zero denominator; and exponent
    notation, whose size ("1e100000") is not bounded by its length.
    """
    if isinstance(obj, bool) or not isinstance(obj, (int, str)) \
            or isinstance(obj, str) and "e" in obj.lower():
        raise ParseError(f"not a rational literal: {obj!r}")
    try:
        return Q(obj)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator: {obj!r}") from exc


def parse_integer(obj) -> int:
    """A JSON rational literal whose value is an integer."""
    value = parse_rational(obj)
    if value.denominator != 1:
        raise ParseError(f"not an integer literal: {obj!r}")
    return int(value)


def integer_value(x, what: str) -> int:
    """x as an int: an int (not a bool) or a Fraction with denominator 1, else RangeError."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)) or x.denominator != 1:
        raise RangeError(f"{x!r} is not an integer {what}")
    return int(x)


def dimension(n) -> int:
    """n as a dimension: an integer (else RangeError), not negative (else DimensionMismatch)."""
    n = integer_value(n, "dimension")
    if n < 0:
        raise DimensionMismatch(f"negative dimension {n}")
    return n


def sequence(obj, what: str):
    """obj if it is iterable but not a str, which is not read by characters (else RangeError)."""
    if isinstance(obj, str) or not hasattr(obj, "__iter__"):
        raise RangeError(f"{obj!r} is not a sequence of {what}")
    return obj


def integer_point(u, n: int, what: str) -> tuple[int, ...]:
    """u as a point of Z^n: a sequence (else RangeError) of n (else
    DimensionMismatch) entries that integer_value reads, each named what."""
    u = tuple([integer_value(x, what) for x in sequence(u, "integers")])
    if len(u) != n:
        raise DimensionMismatch(f"{list(u)} has length {len(u)}, not {n}")
    return u


def check_level(value, name: str, low: int, high: int | None = None) -> None:
    """RangeError unless value is an int (a bool is not one) of at least low
    and, unless high is None, at most high."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise RangeError(f"{name} must be an integer, not {type(value).__name__}")
    if value < low or high is not None and value > high:
        raise RangeError(f"{name} must be >= {low}" if high is None
                         else f"{name} {value} outside {low}..{high}")


def parse_object(obj, *keys: str) -> dict:
    """A JSON object that has each of keys."""
    if not isinstance(obj, dict):
        raise ParseError(f"not a JSON object: {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ParseError(f"missing key {key!r}")
    return obj


def parse_list(obj, parse=parse_rational) -> list:
    """A JSON array, each item read by parse."""
    if not isinstance(obj, list):
        raise ParseError(f"not a JSON array: {obj!r}")
    return [parse(x) for x in obj]


# ---------------------------------------------------------------------------
# integer polynomials (coefficients ascending, trailing zeros trimmed)
# ---------------------------------------------------------------------------

def _sturm_chain(f: Sequence[int]) -> list[list[int]]:
    """The Sturm chain of f, each member made primitive by a positive factor,
    which changes no variation count.

    -rem(a, b) comes from integer pseudo-division (Cohen, Alg. 3.1.2) by the
    positive multiplier |lc(b)|^k: each step scales the remainder by |lc(b)|
    and subtracts sgn(lc(b)) times its top coefficient times the shifted b.
    """
    chain = [_primitive(list(f)), _primitive([i * c for i, c in enumerate(f)][1:])]
    while True:
        a, b = chain[-2], chain[-1]
        scale, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
        rem = list(a)
        while len(rem) >= len(b):
            top = s * rem.pop()
            shifted = [0] * (len(rem) - len(b) + 1) + b[:-1]
            rem = [scale * x - top * y for x, y in zip(rem, shifted)]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return chain
        chain.append(_primitive([-c for c in rem]))


def _variations(chain: Sequence[Sequence[int]], a: int, den: int) -> int:
    """Sign changes along an integer Sturm chain evaluated at a/den, den > 0."""
    signs = [v > 0 for v in (_int_interval_eval(p, a, a, den)[0] for p in chain) if v != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _integer_roots(coeffs: Sequence[int]) -> list[int]:
    """The integer roots of a monic integer polynomial of degree >= 1.

    Its rational roots are integers, so half-integers are never roots: Sturm
    counts at half-integers inside the Cauchy bound bisect down to unit
    intervals around single integer candidates.
    """
    chain = _sturm_chain(coeffs)

    def at_half(k: int) -> int:
        return _variations(chain, 2 * k + 1, 2)

    bound = 1 + max(abs(c) for c in coeffs[:-1])
    roots = []
    # (a, va, b, vb): the candidates a+1..b, with va = at_half(a) and vb = at_half(b)
    stack = [(-bound - 1, at_half(-bound - 1), bound, at_half(bound))]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            if _int_interval_eval(coeffs, b, b, 1)[0] == 0:
                roots.append(b)
            continue
        m = (a + b) // 2
        vm = at_half(m)
        stack += [(a, va, m, vm), (m, vm, b, vb)]
    return sorted(roots)


def _integer_quadratic_roots(s: int, p: int) -> tuple[int, ...]:
    """The integer roots of t^2 - s t + p: both, or none."""
    disc = s * s - 4 * p
    r = isqrt(max(disc, 0))
    if r * r != disc or (s + r) % 2:
        return ()
    return (s + r) // 2, (s - r) // 2


def _is_irreducible_leq4(coeffs: Sequence[int]) -> bool:
    """Irreducibility over Q for monic integer polynomials of degree <= 4.

    Factors can be taken monic over Z (Gauss), so degrees 2 and 3 are
    reducible iff there is an integer root.  A quartic without one can only
    split as (x^2 + a x + b)(x^2 + c x + d), and then y = b + d is an integer
    root of the resolvent cubic, b and d solve t^2 - y t + c0, and a and c
    solve t^2 - c3 t + (c2 - y).
    """
    if len(coeffs) == 2:
        return True
    if _integer_roots(coeffs):
        return False
    if len(coeffs) <= 4:
        return True
    c0, c1, c2, c3, _ = coeffs
    resolvent = (4 * c0 * c2 - c1 * c1 - c0 * c3 * c3, c1 * c3 - 4 * c0, -c2, 1)
    for y in _integer_roots(resolvent):
        for b in _integer_quadratic_roots(y, c0):
            for a in _integer_quadratic_roots(c3, c2 - y):
                if a * (y - b) + b * (c3 - a) == c1:
                    return False
    return True


def _int_interval_eval(coeffs: Sequence[int], lo: int, hi: int, den: int) -> tuple[int, int]:
    """D^(len-1) times the interval Horner enclosure of sum c_i x^i over [lo/D, hi/D].

    Integer coefficients, numerators lo <= hi and D = den > 0; with lo == hi
    it is D^(len-1) times the value at lo/D.
    """
    a = b = 0
    power = 1
    for c in reversed(coeffs):
        products = (a * lo, a * hi, b * lo, b * hi)
        c *= power
        a, b = min(products) + c, max(products) + c
        power *= den
    return a, b


# ---------------------------------------------------------------------------
# clearing denominators, and rational elimination
# ---------------------------------------------------------------------------

def common_den(dens: Iterable[int]) -> int:
    """The positive lcm of positive denominators, 1 for none: the least den that clears them."""
    return lcm(*dens)


def cleared(rows: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """(ints, den): rows of rationals (ints, Fractions, or anything Fraction()
    reads, else RangeError) as integer rows of the same lengths, times den, the
    positive lcm of their denominators: the one way a rational enters integers.
    The rows are listed before any is read, then each, a sequence (else
    RangeError), is read in one pass that keeps ints and Fractions as they are
    and collects the Fractions' denominators; rows of ints only return as read."""
    out, dens = [], []
    for row in list(sequence(rows, "rows")):
        row, values = sequence(row, "rationals"), []
        try:
            for x in row:
                if type(x) is not int:  # a bool, too, becomes an int below
                    if type(x) is not Fraction:
                        x = Q(x)
                    dens.append(x.denominator)
                values.append(x)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise RangeError(f"not a rational number: {exc}") from None
        out.append(values)
    if not dens:
        return out, 1
    den = lcm(*dens)
    for row in out:
        for i, x in enumerate(row):
            row[i] = x * den if type(x) is int else x.numerator * (den // x.denominator)
    return out, den


def rational_vector(u, n: int) -> tuple[Sequence[int], int]:
    """(ints, den): u, a sequence (else RangeError; listed if it has no len) of n
    (else DimensionMismatch) rationals as integers over den > 0, which changes no
    sign (u itself if all are ints)."""
    u = sequence(u, "rationals")
    if not hasattr(u, "__len__"):
        u = list(u)
    if len(u) != n:
        raise DimensionMismatch(f"vector length {len(u)} != {n}")
    if all(isinstance(x, int) for x in u):
        return u, 1
    (ints,), den = cleared([u])
    return ints, den


def reduced(rows: Sequence[Sequence[int]], den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The one stored form of rows, field elements and automorphisms: integer rows
    and a nonzero integer den (else RangeError) over their joint gcd, den > 0."""
    if not den:
        raise DivisionByZero("integers over a zero denominator")
    try:
        g = gcd(den, *chain.from_iterable(rows)) * (1 if den > 0 else -1)
    except TypeError:
        raise RangeError("stored values must be integers over an integer den") from None
    if g == 1:
        return tuple(map(tuple, rows)), den
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def _primitive(row: list[int]) -> list[int]:
    """An integer row over the gcd of its entries, a positive factor (row itself if 0 or 1)."""
    g = gcd(*row)
    return [c // g for c in row] if g > 1 else row


def echelon(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer reduced echelon form: (primitive integer rows, pivot column indices).

    Row operations run on primitive integer rows: clearing column col of row
    r against pivot row s leaves the primitive part of s[col] r - r[col] s,
    one integer gcd per step.  Each row is then fixed up to sign by the span
    it lies in, so its entries stay bounded by minors of the input, as in
    Bareiss's fraction-free elimination.  Only nonzero rows are returned, each
    zero at the other rows' pivots.
    """
    mat = [r for r in map(_primitive, map(list, rows)) if any(r)]
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
    return mat[:len(pivots)], pivots


def rref(rows: Iterable[Sequence]) -> tuple[list[list[int]], int, list[int]]:
    """(ints, den, pivots): the reduced row echelon form of rational rows of one
    length (else DimensionMismatch), nonzero rows ints / den, and its pivot columns.

    The integer echelon of the rows, cleared once, with each primitive row
    scaled to den at its pivot, for den > 0 the lcm of the pivots (so coprime
    to ints): no Fraction is built.
    """
    rows, _ = cleared(rows)
    if len(set(map(len, rows))) > 1:
        raise DimensionMismatch("rref: rows of different lengths")
    mat, pivots = echelon(rows)
    den = lcm(*(row[p] for row, p in zip(mat, pivots)))
    return [[x * (den // row[p]) for x in row] for row, p in zip(mat, pivots)], den, pivots


def solve(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(X, den): integer X over one den > 0 with a (X / den) = b, for rational a
    and b, b of any width, zero included.

    The rref of [a | b] is [I | X / den], in lowest terms, exactly when a is
    invertible, else SingularMatrix.
    """
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise DimensionMismatch(f"solve: need a square a and {n} rows of b")
    ints, den, pivots = rref([*x, *y] for x, y in zip(a, b))
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return [row[n:] for row in ints], den


# ---------------------------------------------------------------------------
# number field
# ---------------------------------------------------------------------------

class NumberField:
    """A real number field Q(alpha) with alpha pinned by an isolating interval.

    The stored interval only ever shrinks (monotone refinement cache) and is
    replaced as one (A, B, D) tuple, so concurrent readers are safe: any
    refinement is itself a valid isolating interval and all derived answers
    are unchanged.
    """

    __slots__ = ("min_poly", "degree", "isolating", "_interval")

    def __init__(self, min_poly: Sequence[int], isolating, assert_irreducible: bool = False):
        try:
            min_poly = tuple(min_poly)
            coeffs = tuple(map(int, min_poly))
        except (TypeError, ValueError, OverflowError):
            coeffs = ()
        if coeffs != min_poly:  # not a sequence, or a value int() cannot read or changes
            raise InvalidField("min_poly coefficients must be integers")
        if len(coeffs) < 2:
            raise InvalidField("min_poly must have degree >= 1")
        if coeffs[-1] != 1:
            raise InvalidField("min_poly must be monic")
        deg = len(coeffs) - 1
        if deg > 4 and not assert_irreducible:
            # only a library caller can vouch for irreducibility (assert_irreducible)
            raise UnsupportedDegree(f"degree {deg} > 4: irreducibility is verified only up to "
                                    "degree 4, so a field given as JSON stops there")
        if deg <= 4 and not _is_irreducible_leq4(coeffs):
            raise InvalidField("min_poly is reducible over Q")
        try:
            interval = isolating[:2]
        except TypeError:
            raise RangeError(f"{isolating!r} is not an interval") from None
        (a, b), den = rational_vector(interval, 2)
        if not a < b:
            raise InvalidField("isolating interval must satisfy lo < hi")
        if 0 in (_int_interval_eval(coeffs, x, x, den)[0] for x in (a, b)):
            raise InvalidField("isolating interval endpoints must not be roots")
        chain = _sturm_chain(coeffs)
        if _variations(chain, a, den) - _variations(chain, b, den) != 1:
            raise InvalidField("isolating interval must contain exactly one real root")
        self.min_poly = coeffs
        self.degree = deg
        self.isolating = (Q(a, den), Q(b, den))
        self._interval = (a, b, den)

    @classmethod
    def rational(cls) -> "NumberField":
        """The degree-1 field Q itself (alpha = 0, never referenced)."""
        return cls((0, 1), (-1, 1))

    def __eq__(self, other):
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.min_poly == other.min_poly and self.isolating == other.isolating

    def __hash__(self):
        return hash((self.min_poly, self.isolating))

    def __repr__(self):
        return f"NumberField(min_poly={list(self.min_poly)}, isolating={self.isolating})"

    # element construction -------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        """sum c_i alpha^i for rationals c_i: where they are cleared to integers."""
        (ints,), den = cleared([coeffs])
        return FieldElement(self, ints, den)

    def from_rational(self, value) -> "FieldElement":
        return self.element((value,) + (0,) * (self.degree - 1))

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def alpha(self) -> "FieldElement":
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2))

    def mul_matrix(self, coeffs: Sequence[int]) -> list[list[int]]:
        """The matrix of x -> c x in the basis 1, alpha, ..., alpha^(d-1), c = sum c_i alpha^i
        for d integers c_i (else FieldMismatch).

        Column 0 is c, and column k is column k - 1 times alpha: shifted up one
        place, with alpha^d replaced by -sum f_i alpha^i for the monic minimal
        polynomial f.  No field products are taken.
        """
        if len(coeffs) != self.degree:
            raise FieldMismatch(f"expected {self.degree} coefficients, got {len(coeffs)}")
        f = self.min_poly
        col = list(coeffs)
        columns = [col]
        for _ in range(self.degree - 1):
            top = col[-1]
            col = [-top * f[0]] + [c - top * fi for c, fi in zip(col, f[1:-1])]
            columns.append(col)
        return [list(row) for row in zip(*columns)]

    def divide(self, layers: Sequence[Sequence[int]],
               coeffs: Sequence[int]) -> tuple[list[list[int]], int]:
        """(adj(M) L, N) for M = mul_matrix(c), x = sum c_i alpha^i, N = det M its norm
        and d integer layers L of one length (else DimensionMismatch): adj(M) L / N is
        L divided by x.

        One fraction-free Gauss-Jordan elimination of [M | L] (Bareiss; each division
        exact by Sylvester's identity) ends at [N I | adj(M) L], a swap negating the
        row it moves down; rows drop their columns as these are cleared.  Column 0 of M
        is c: no pivot there is DivisionByZero, none later a zero divisor, possible only
        under a false assert_irreducible (InvalidField).  Degree 1 returns L, over c.
        """
        d = self.degree
        if d == 1 and len(layers) == len(coeffs) == 1 and coeffs[0]:  # else the checks below
            return layers, coeffs[0]
        if len(layers) != d or len(set(map(len, layers))) > 1:
            raise DimensionMismatch(f"divide: need {d} layers of one length")
        mat = [row + list(layer) for row, layer in zip(self.mul_matrix(coeffs), layers)]
        prev = 1
        for k in range(d):  # the rows hold columns k.. of the elimination
            prow = mat[k]
            if not prow[0]:
                r = next((r for r in range(k + 1, d) if mat[r][0]), None)
                if r is None:
                    if k == 0:
                        raise DivisionByZero("division by a zero field element")
                    raise InvalidField("min_poly shares a factor with an element; not irreducible")
                prow, mat[r] = mat[r], [-x for x in prow]
            a, tail = prow[0], prow[1:]
            for r in range(d):
                if r != k:
                    row = mat[r]
                    b = row[0]
                    mat[r] = [(a * x - b * y) // prev for x, y in zip(row[1:], tail)]
            mat[k] = tail
            prev = a
        return mat, prev

    # sign machinery --------------------------------------------------------

    def _refine(self) -> None:
        """Bisect the interval: (A, B, D) becomes (2A, A+B, 2D) or (A+B, 2B, 2D)."""
        lo, hi, den = self._interval
        mid = lo + hi
        fm, _ = _int_interval_eval(self.min_poly, mid, mid, 2 * den)
        if fm == 0:
            # impossible for verified-irreducible deg >= 2; a lying
            # assert_irreducible flag can land here
            raise InvalidField("min_poly has a rational root; not irreducible")
        flo, _ = _int_interval_eval(self.min_poly, lo, lo, den)
        if (fm > 0) == (flo > 0):
            self._interval = (mid, 2 * hi, 2 * den)
        else:
            self._interval = (2 * lo, mid, 2 * den)

    def enclosure(self, layers: Sequence[Sequence[int]], cached=None):
        """(D, mids, rads) for the integer columns of layers, cached if it is current.

        Column i, read as the polynomial c_i(x) = sum_j layers[j][i] x^j, has
        D^(d-1) c_i(alpha) in [a_i, b_i], the integer interval Horner over the
        current interval [A/D, B/D]; mids[i] = a_i + b_i and rads[i] = b_i - a_i.
        So for an integer u, 2 D^(d-1) sum_i u_i c_i(alpha) lies within
        sum_i |u_i| rads[i] of sum_i u_i mids[i].  Refinement doubles D, so D
        names the interval; a cached enclosure over an older interval stays
        valid, since the interval only shrinks, but is recomputed to be tight.
        """
        lo, hi, den = self._interval
        if cached is not None and cached[0] == den:
            return cached
        bounds = [_int_interval_eval(col, lo, hi, den) for col in zip(*layers)]
        return den, tuple(a + b for a, b in bounds), tuple(b - a for a, b in bounds)

    def sign_of_coeffs(self, coeffs: Sequence[int]) -> int:
        """Exact sign of sum c_i alpha^i for integer c_i; zero iff all are zero."""
        if not any(coeffs[1:]):
            c0 = coeffs[0]
            return 0 if c0 == 0 else (1 if c0 > 0 else -1)
        rounds = 0
        while True:
            lo, hi = _int_interval_eval(coeffs, *self._interval)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            rounds += 1
            if rounds == SIGN_BISECTION_CAP + 1:
                self.divide([()] * self.degree, coeffs)  # InvalidField for a zero divisor
            self._refine()

    # serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        lo, hi = self.isolating
        return {"min_poly": list(self.min_poly), "isolating": [str(lo), str(hi)]}

    @classmethod
    def from_json(cls, obj: dict) -> "NumberField":
        obj = parse_object(obj, "min_poly", "isolating")
        interval = parse_list(obj["isolating"])
        if len(interval) != 2:
            raise ParseError(f"isolating interval needs two endpoints, got {len(interval)}")
        return cls(parse_list(obj["min_poly"], parse_integer), interval)


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

def ratio_str(x: int, den: int) -> str:
    """str(Fraction(x, den)) for den > 0, by one gcd."""
    g = gcd(x, den)
    return f"{x // g}" if g == den else f"{x // g}/{den // g}"


def coeffs_str(ints: Sequence[int], den: int = 1) -> str:
    """The text of sum c_i a^i for c = ints / den, den > 0, as elements and the
    columns of a row's layers print: each c_i as str(Fraction) prints it."""
    parts = []
    for i, x in enumerate(ints):
        if not x:
            continue
        if i == 0:
            parts.append(ratio_str(x, den))
        else:
            mag = "" if abs(x) == den else ratio_str(abs(x), den) + "*"
            var = "a" if i == 1 else f"a^{i}"
            parts.append(("-" if x < 0 else ("+" if parts else "")) + mag + var)
    return "".join(parts) or "0"


def coeffs_json(ints: Sequence[int], den: int = 1):
    """The JSON of sum c_i a^i for c = ints / den, den > 0: one rational string
    in degree 1, else a list of them."""
    if len(ints) == 1:
        return ratio_str(ints[0], den)
    return [ratio_str(x, den) for x in ints]


class FieldElement:
    """An element of a fixed NumberField: coefficients ints / den (reduced)."""

    __slots__ = ("field", "ints", "den")

    def __init__(self, field: NumberField, ints: Sequence[int], den: int = 1):
        if len(ints) != field.degree:
            raise FieldMismatch(f"expected {field.degree} coefficients, got {len(ints)}")
        self.field = field
        (self.ints,), self.den = reduced((ints,), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Q(x, self.den) for x in self.ints)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("operands from different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        raise TypeError(f"cannot coerce {type(other).__name__} to FieldElement")

    def __add__(self, other):
        other = self._coerce(other)
        a, b = other.den, self.den
        return FieldElement(self.field, [a * x + b * y for x, y in zip(self.ints, other.ints)],
                            a * b)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return FieldElement(self.field, [-x for x in self.ints], self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, [sum(map(mul, row, other.ints))
                                         for row in self.field.mul_matrix(self.ints)],
                            self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """The y with self * y = 1: one, e_0, divided by self."""
        return FieldElement(self.field, (1,) + (0,) * (self.field.degree - 1)) / self

    def __truediv__(self, other):
        other = self._coerce(other)
        z, norm = self.field.divide([[other.den * x] for x in self.ints], other.ints)
        return FieldElement(self.field, [row[0] for row in z], self.den * norm)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and (self.ints, self.den) == (other.ints, other.den)

    def __hash__(self):
        return hash((self.field.min_poly, self.ints, self.den))

    def is_zero(self) -> bool:
        return not any(self.ints)

    def sign(self) -> int:
        return self.field.sign_of_coeffs(self.ints)

    def abs(self) -> "FieldElement":
        return -self if self.sign() < 0 else self

    def __str__(self):
        return coeffs_str(self.ints, self.den)

    def __repr__(self):
        return f"FieldElement({self})"

    def to_json(self):
        return coeffs_json(self.ints, self.den)

    @classmethod
    def from_json(cls, field: NumberField, obj) -> "FieldElement":
        if not isinstance(obj, list):
            return field.from_rational(parse_rational(obj))
        coeffs = parse_list(obj)
        return field.element(coeffs + [0] * (field.degree - len(coeffs)))
