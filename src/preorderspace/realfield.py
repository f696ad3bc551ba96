"""Exact arithmetic and sign determination in a real number field Q(alpha).

A field is described by a monic irreducible integer polynomial together with
a rational interval isolating one real root alpha.  Elements are stored as
rational coefficient vectors of length deg(alpha); multiplication reduces
modulo the minimal polynomial, so the representation is canonical and
equality is coefficient-wise.

Sign determination is exact: zero is decided syntactically (all coefficients
zero), and a nonzero element's sign is obtained by refining the isolating
interval with exact interval arithmetic until the evaluated interval excludes
zero.  The arithmetic is on integers only.  The field keeps its interval as
two integer numerators A < B over one positive denominator D, and bisection
doubles D.  A sign query clears the denominators of the coefficients (a
positive factor) and runs interval Horner on the numerators,
V <- V*[A, B] + c_i*D^(d-1-i), whose result is exactly D^(d-1) times the
rational interval Horner enclosure of sum c_i x^i over [A/D, B/D]; so it
excludes zero exactly when the rational enclosure does.  The loop ends whenever the
element is nonzero.  After a fixed number of bisections it checks once that
the element's polynomial is coprime to the minimal polynomial: a common
factor proves the minimal polynomial reducible (possible only under a false
assert_irreducible) and raises InvalidField, which is the one case where the
element could vanish at alpha.  The answer is never interval-approximate.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence

from .errors import DivisionByZero, FieldMismatch, InvalidField, ParseError, UnsupportedDegree

SIGN_BISECTION_CAP = 64

Q = Fraction


# ---------------------------------------------------------------------------
# JSON literals
# ---------------------------------------------------------------------------

def parse_rational(obj) -> Fraction:
    """A JSON rational literal: an integer, or a string such as "-3/4".

    A float, a boolean or a string that is not a rational raises ParseError,
    so a binary double never passes for the decimal it was written as.
    """
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ParseError(f"not a rational literal: {obj!r}")
    try:
        return Q(obj)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_integer(obj) -> int:
    """A JSON rational literal whose value is an integer."""
    value = parse_rational(obj)
    if value.denominator != 1:
        raise ParseError(f"not an integer literal: {obj!r}")
    return int(value)


def parse_list(obj, parse=parse_rational) -> list:
    """A JSON array, each item read by parse."""
    if not isinstance(obj, list):
        raise ParseError(f"not a JSON array: {obj!r}")
    return [parse(x) for x in obj]


# ---------------------------------------------------------------------------
# rational polynomial helpers (coefficients ascending, trailing zeros trimmed)
# ---------------------------------------------------------------------------

def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Q(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deriv(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    num = list(num)
    den = _trim(list(den))
    if not den:
        raise DivisionByZero("polynomial division by zero")
    quo = [Q(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(num) - len(den), -1, -1):
        factor = num[shift + len(den) - 1] / lead
        if factor:
            quo[shift] = factor
            for i, c in enumerate(den):
                num[shift + i] -= factor * c
    return _trim(quo), _trim(num[: len(den) - 1])


def _poly_ext_gcd(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Extended Euclid: returns (g, u) with u*a = g modulo b."""
    r0, r1 = _trim(list(a)), _trim(list(b))
    u0, u1 = [Q(1)], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _trim([x - y for x, y in _zip_pad(u0, _poly_mul(q, u1))])
    return r0, u0


def _zip_pad(a: Sequence[Fraction], b: Sequence[Fraction]):
    la, lb = len(a), len(b)
    for i in range(max(la, lb)):
        yield (a[i] if i < la else Q(0)), (b[i] if i < lb else Q(0))


def _sturm_chain(f: Sequence[Fraction]) -> list[list[Fraction]]:
    chain = [_trim(list(f)), _poly_deriv(f)]
    while chain[-1]:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _variations(chain: Sequence[Sequence[Fraction]], x: Fraction) -> int:
    """Sign changes along a Sturm chain evaluated at x."""
    signs = [v > 0 for v in (_poly_eval(p, x) for p in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count_roots(f: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of f in (lo, hi); endpoints must not be roots."""
    chain = _sturm_chain(f)
    return _variations(chain, lo) - _variations(chain, hi)


def _integer_roots(coeffs: Sequence[int]) -> list[int]:
    """The integer roots of a monic integer polynomial of degree >= 1.

    Its rational roots are integers, so half-integers are never roots: Sturm
    counts at half-integers inside the Cauchy bound bisect down to unit
    intervals around single integer candidates.
    """
    f = [Q(c) for c in coeffs]
    chain = _sturm_chain(f)

    def at_half(k: int) -> int:
        return _variations(chain, k + Q(1, 2))

    bound = 1 + max(abs(c) for c in coeffs[:-1])
    roots = []
    # (a, va, b, vb): the candidates a+1..b, with va = at_half(a) and vb = at_half(b)
    stack = [(-bound - 1, at_half(-bound - 1), bound, at_half(bound))]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            if _poly_eval(f, Q(b)) == 0:
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
# number field
# ---------------------------------------------------------------------------

class NumberField:
    """A real number field Q(alpha) with alpha pinned by an isolating interval.

    The stored interval only ever shrinks (monotone refinement cache) and is
    replaced as one (A, B, D) tuple, so concurrent readers are safe: any
    refinement is itself a valid isolating interval and all derived answers
    are unchanged.
    """

    __slots__ = ("min_poly", "degree", "isolating", "_interval", "_fpoly")

    def __init__(self, min_poly: Sequence[int], isolating, assert_irreducible: bool = False):
        coeffs = tuple(int(c) for c in min_poly)
        if len(coeffs) < 2:
            raise InvalidField("min_poly must have degree >= 1")
        if any(c != int(c) for c in min_poly):
            raise InvalidField("min_poly coefficients must be integers")
        if coeffs[-1] != 1:
            raise InvalidField("min_poly must be monic")
        deg = len(coeffs) - 1
        if deg > 4 and not assert_irreducible:
            raise UnsupportedDegree(
                f"degree {deg} > 4: pass assert_irreducible=True to skip factorization checks"
            )
        if deg <= 4 and not _is_irreducible_leq4(coeffs):
            raise InvalidField("min_poly is reducible over Q")
        lo, hi = (Q(isolating[0]), Q(isolating[1]))
        if not lo < hi:
            raise InvalidField("isolating interval must satisfy lo < hi")
        fpoly = [Q(c) for c in coeffs]
        if _poly_eval(fpoly, lo) == 0 or _poly_eval(fpoly, hi) == 0:
            raise InvalidField("isolating interval endpoints must not be roots")
        if deg == 1:
            root = -Q(coeffs[0])
            if not (lo < root < hi):
                raise InvalidField("isolating interval does not contain the root")
        elif _count_roots(fpoly, lo, hi) != 1:
            raise InvalidField("isolating interval must contain exactly one real root")
        self.min_poly = coeffs
        self.degree = deg
        self.isolating = (lo, hi)
        self._fpoly = fpoly
        den = lcm(lo.denominator, hi.denominator)
        self._interval = (lo.numerator * (den // lo.denominator),
                          hi.numerator * (den // hi.denominator), den)

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
        return FieldElement(self, coeffs)

    def from_rational(self, value) -> "FieldElement":
        return FieldElement(self, (Q(value),) + (Q(0),) * (self.degree - 1))

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def alpha(self) -> "FieldElement":
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        return FieldElement(self, (Q(0), Q(1)) + (Q(0),) * (self.degree - 2))

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

    def sign_of_coeffs(self, coeffs: Sequence[int | Fraction]) -> int:
        """Exact sign of sum c_i alpha^i; zero iff all coefficients are zero.

        The coefficients may be ints or Fractions; they are cleared to
        integers by their positive common denominator.
        """
        nonconst = any(coeffs[1:])
        if not nonconst:
            c0 = coeffs[0]
            return 0 if c0 == 0 else (1 if c0 > 0 else -1)
        den = lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        rounds = 0
        while True:
            lo, hi = _int_interval_eval(ints, *self._interval)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            rounds += 1
            if rounds == SIGN_BISECTION_CAP + 1:
                g, _ = _poly_ext_gcd([Q(c) for c in ints], self._fpoly)
                if len(g) > 1:
                    raise InvalidField("min_poly shares a factor with an element; not irreducible")
            self._refine()

    # serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        lo, hi = self.isolating
        return {"min_poly": list(self.min_poly), "isolating": [str(lo), str(hi)]}

    @classmethod
    def from_json(cls, obj: dict, assert_irreducible: bool = False) -> "NumberField":
        interval = parse_list(obj["isolating"])
        if len(interval) != 2:
            raise ParseError(f"isolating interval needs two endpoints, got {len(interval)}")
        return cls(parse_list(obj["min_poly"], parse_integer), interval,
                   assert_irreducible=assert_irreducible)


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of a fixed NumberField, as a rational coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        coeffs = tuple(Q(c) for c in coeffs)
        if len(coeffs) != field.degree:
            raise FieldMismatch(
                f"expected {field.degree} coefficients, got {len(coeffs)}"
            )
        self.field = field
        self.coeffs = coeffs

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
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        prod = _poly_mul(list(self.coeffs), list(other.coeffs))
        _, rem = _poly_divmod(prod, self.field._fpoly)
        rem = rem + [Q(0)] * (self.field.degree - len(rem))
        return FieldElement(self.field, rem)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero field element")
        g, u = _poly_ext_gcd(list(self.coeffs), self.field._fpoly)
        # gcd is a nonzero constant since min_poly is irreducible
        scale = 1 / g[0]
        inv = [c * scale for c in u]
        inv = inv + [Q(0)] * (self.field.degree - len(inv))
        return FieldElement(self.field, inv[: self.field.degree])

    def mul_matrix(self) -> list[list[Fraction]]:
        """The rational matrix of x -> self * x in the basis 1, alpha, ..., alpha^(d-1).

        Column k holds the coefficients of self * alpha^k: d - 1 field products.
        """
        alpha = self.field.alpha()
        columns = [self]
        for _ in range(self.field.degree - 1):
            columns.append(columns[-1] * alpha)
        return [list(row) for row in zip(*(c.coeffs for c in columns))]

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.min_poly, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def sign(self) -> int:
        return self.field.sign_of_coeffs(self.coeffs)

    def abs(self) -> "FieldElement":
        return -self if self.sign() < 0 else self

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "a" if i == 1 else f"a^{i}"
                parts.append(("-" if c < 0 else ("+" if parts else "")) + mag + var)
        return "".join(parts)

    def __repr__(self):
        return f"FieldElement({self})"

    def to_json(self):
        if self.field.degree == 1:
            return str(self.coeffs[0])
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field: NumberField, obj) -> "FieldElement":
        if not isinstance(obj, list):
            return field.from_rational(parse_rational(obj))
        coeffs = parse_list(obj)
        if len(coeffs) < field.degree:
            coeffs += [Q(0)] * (field.degree - len(coeffs))
        return cls(field, coeffs)
