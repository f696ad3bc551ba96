"""Monomial valuations on Laurent polynomials induced by preorders.

A preorder p sends the monomial x^g to the class of g modulo the residue
group, ordered by p: v(x^g) < v(x^h) exactly when p.sign_of(g - h) is NEG,
the one lexicographic comparison.  A polynomial's value is the minimum over
its support, and the zero polynomial maps to infinity.  A coefficient is
reduced once, by the LaurentPolynomial constructor (CoefficientField.coerce,
zeros dropped), so sums and products pass it plain numbers.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    InvalidField,
    RangeError,
    ZeroPolynomial,
)
from .lattice import decompose
from .preorder import Preorder, Sign, check_preorders
from .realfield import (FieldElement, check_level, dimension, integer_point, integer_value,
                        parse_integer, parse_list, parse_object, parse_rational, rational_vector)

Q = Fraction


def _is_prime(p: int) -> bool:
    """Trial division; callers pass p < 2^31, so at most 46,341 divisors."""
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


class CoefficientField:
    """Q or a prime field F_p (p < 2^31) for Laurent coefficients: coerce is its one arithmetic."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "Q":
            self.kind, self.p = "Q", None
        elif kind == "F_p":
            p = None if p is None else integer_value(p, "modulus")
            if p is None or p >= 2**31 or not _is_prime(p):
                raise InvalidField(f"modulus must be a prime below 2^31, got {p}")
            self.kind, self.p = "F_p", p
        else:
            raise InvalidField(f"unknown coefficient field kind {kind!r}")

    @classmethod
    def rationals(cls) -> "CoefficientField":
        return cls("Q")

    @classmethod
    def prime(cls, p: int) -> "CoefficientField":
        return cls("F_p", p)

    def coerce(self, c):
        """c (anything realfield.cleared reads, else RangeError) as a coefficient."""
        (num,), den = rational_vector((c,), 1)
        if self.kind == "Q":
            return Q(num, den)
        if den % self.p == 0:
            raise DivisionByZero(f"{Q(num, den)} has no value in F_{self.p}")
        return num * pow(den, -1, self.p) % self.p

    def __eq__(self, other):
        if not isinstance(other, CoefficientField):
            return NotImplemented
        return (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "CoefficientField(Q)" if self.kind == "Q" else f"CoefficientField(F_{self.p})"

    def name(self) -> str:
        return "Q" if self.kind == "Q" else f"F_{self.p}"

    @classmethod
    def from_name(cls, name: str) -> "CoefficientField":
        if name == "Q":
            return cls.rationals()
        if isinstance(name, str) and name.startswith("F_") and name[2:].isdecimal():
            try:
                p = int(name[2:])
            except ValueError as exc:  # more digits than int() converts
                raise InvalidField("modulus must be a prime below 2^31") from exc
            return cls.prime(p)
        raise InvalidField(f"unknown coefficient field {name!r}")


class LaurentPolynomial:
    """Finite Z^n-supported map to nonzero coefficients, canonically stored."""

    __slots__ = ("cf", "n", "terms")

    def __init__(self, cf: CoefficientField, n: int, terms: dict):
        n = dimension(n)
        if not isinstance(terms, Mapping):
            raise RangeError(f"{terms!r} is not a mapping of exponents to coefficients")
        clean = {}
        for exp, c in terms.items():
            exp = integer_point(exp, n, "exponent")
            c = cf.coerce(c)
            if c:
                clean[exp] = c
        self.cf = cf
        self.n = n
        self.terms = clean

    @classmethod
    def zero(cls, cf: CoefficientField, n: int) -> "LaurentPolynomial":
        return cls(cf, n, {})

    @classmethod
    def monomial(cls, cf: CoefficientField, n: int, exp, coeff=1) -> "LaurentPolynomial":
        return cls(cf, n, {integer_point(exp, dimension(n), "exponent"): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.terms)

    def _same(self, other: "LaurentPolynomial"):
        if self.cf != other.cf:
            raise FieldMismatch("coefficient fields differ")
        if self.n != other.n:
            raise DimensionMismatch("exponent dimensions differ")

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._same(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPolynomial(self.cf, self.n, out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.cf, self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._same(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(self.cf, self.n, out)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return (self.cf, self.n, self.terms) == (other.cf, other.n, other.terms)

    def __hash__(self):
        return hash((self.cf, self.n, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if self.is_zero():
            return "LaurentPolynomial(0)"
        parts = [f"{c}*x^{list(e)}" for e, c in sorted(self.terms.items())]
        return "LaurentPolynomial(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        terms = []
        for e in self.support():
            c = self.terms[e]
            terms.append({"e": list(e), "c": str(c) if self.cf.kind == "Q" else int(c)})
        return {"n": self.n, "field": self.cf.name(), "terms": terms}

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPolynomial":
        obj = parse_object(obj, "field", "n")
        cf = CoefficientField.from_name(obj["field"])
        n = parse_integer(obj["n"])
        terms = {}
        for t in parse_list(obj.get("terms", []), lambda t: parse_object(t, "e", "c")):
            exp = tuple(parse_list(t["e"], parse_integer))
            c = parse_rational(t["c"]) if cf.kind == "Q" else parse_integer(t["c"])
            terms[exp] = terms.get(exp, 0) + c
        return cls(cf, n, terms)


class Value:
    """The class of an exponent g modulo the residue group, or infinity (None):
    classes compare by p.sign_of(g - h) and add by exponents, and the tuple
    (g.r_1, ..., g.r_s) that names a class is built only when read."""

    __slots__ = ("preorder", "exponent")

    def __init__(self, preorder: Preorder, exponent: tuple[int, ...] | None):
        self.preorder = preorder
        self.exponent = exponent

    @classmethod
    def infinity(cls, p: Preorder) -> "Value":
        return cls(p, None)

    @classmethod
    def of_exponent(cls, p: Preorder, g: Sequence[int]) -> "Value":
        return cls(p, integer_point(g, p.n, "exponent"))

    @property
    def infinite(self) -> bool:
        return self.exponent is None

    @property
    def entries(self) -> tuple[FieldElement, ...] | None:
        return None if self.infinite else tuple(r.dot(self.exponent) for r in self.preorder.rows)

    def _sign(self, other: "Value") -> Sign:
        return self.preorder.sign_of([a - b for a, b in zip(self.exponent, other.exponent)])

    def is_zero_tuple(self) -> bool:
        return not self.infinite and self.preorder.sign_of(self.exponent) == Sign.ZERO

    def __eq__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        if self.preorder is not other.preorder and not self.preorder.equals(other.preorder):
            return False
        if self.infinite or other.infinite:
            return self.infinite == other.infinite
        return self._sign(other) == Sign.ZERO

    def __hash__(self):
        if self.infinite:
            return hash("inf")
        return hash(self.entries)

    def __lt__(self, other: "Value") -> bool:
        return not self.infinite and (other.infinite or self._sign(other) == Sign.NEG)

    def __le__(self, other: "Value") -> bool:
        return not other < self

    def __add__(self, other: "Value") -> "Value":
        if self.infinite or other.infinite:
            return Value.infinity(self.preorder)
        return Value(self.preorder, tuple(a + b for a, b in zip(self.exponent, other.exponent)))

    def __sub__(self, other: "Value") -> "Value":
        if other.infinite:
            raise DivisionByZero("cannot subtract an infinite value")
        if self.infinite:
            return Value.infinity(self.preorder)
        return Value(self.preorder, tuple(a - b for a, b in zip(self.exponent, other.exponent)))

    def __repr__(self):
        if self.infinite:
            return "Value(inf)"
        return "Value(" + ", ".join(str(e) for e in self.entries) + ")"

    def to_json(self) -> dict:
        if self.infinite:
            return {"infinite": True}
        return {"infinite": False, "tuple": [e.to_json() for e in self.entries]}


def valuate(p: Preorder, f: LaurentPolynomial) -> Value:
    """Minimum of the exponent classes over the support; infinity at zero."""
    _check_polynomial(p, f)
    if f.is_zero():
        return Value.infinity(p)
    return _min_support(p, f)[0]


def _check_polynomial(p: Preorder, f: LaurentPolynomial) -> None:
    """RangeError unless p is a Preorder and f a LaurentPolynomial, then
    DimensionMismatch unless f is on p's Z^n."""
    check_preorders(p)
    if not isinstance(f, LaurentPolynomial):
        raise RangeError(f"{f!r} is not a LaurentPolynomial")
    if f.n != p.n:
        raise DimensionMismatch(f"polynomial on Z^{f.n}, preorder on Q^{p.n}")


def _min_support(p: Preorder, f: LaurentPolynomial) -> tuple[Value, list[tuple[int, ...]]]:
    """(min value, achieving exponents in lex order); the first is the value's exponent."""
    support = f.support()
    achievers = support[:1]
    for g in support[1:]:
        s = p.sign_of([a - b for a, b in zip(g, achievers[0])])
        if s == Sign.NEG:
            achievers = [g]
        elif s == Sign.ZERO:
            achievers.append(g)
    return Value(p, achievers[0]), achievers


def initial_form(p: Preorder, f: LaurentPolynomial) -> LaurentPolynomial:
    """Sub-polynomial of the terms achieving the valuation."""
    _check_polynomial(p, f)
    if f.is_zero():
        raise ZeroPolynomial("initial form of the zero polynomial")
    achievers = _min_support(p, f)[1]
    return LaurentPolynomial(f.cf, f.n, {g: f.terms[g] for g in achievers})


def valuate_ratio(p: Preorder, f: LaurentPolynomial, g: LaurentPolynomial) -> Value:
    """Value of the formal ratio f/g (difference of values)."""
    vg = valuate(p, g)
    if vg.infinite:
        raise DivisionByZero("valuation of a ratio with zero denominator")
    vf = valuate(p, f)
    return vf if vf.infinite else vf - vg


class CompositionReport(NamedTuple):
    """Exact comparison of a valuation against its two-step composite.

    The coarse preorder (first k rows) values f; the initial form is pushed
    into residue coordinates relative to its lex-least exponent and valued by
    the residue preorder.  The prefix check compares the coarse value with the
    coarse class of the direct minimizer; the residue check compares classes,
    reference-point independent once both sides use the same base exponent.
    """

    level: int
    value_direct: Value
    value_coarse: Value
    value_residue: Value
    expected_residue: Value
    prefix_ok: bool
    residue_ok: bool

    @property
    def passed(self) -> bool:
        return self.prefix_ok and self.residue_ok


def check_composition(p1: Preorder, k: int, f: LaurentPolynomial) -> CompositionReport:
    """Verify that valuing by p1 equals valuing coarsely then on the residue."""
    _check_polynomial(p1, f)
    check_level(k, "level", 0, p1.rank)
    if f.is_zero():
        raise ZeroPolynomial("composition check needs a nonzero polynomial")
    p2, p3, basis = decompose(p1, k)
    direct = _min_support(p1, f)[0]
    coarse, achievers = _min_support(p2, f)
    # an achiever minus the first has sign ZERO under p2, so it lies in the residue
    # group; its coordinates in the basis are its pivot entries over the basis's one
    # positive scale, which p3 does not see, each vector's pivot its first nonzero index
    pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
    g0 = coarse.exponent

    def coords(g):
        return tuple(g[c] - g0[c] for c in pivots)

    residue_value = valuate(p3, LaurentPolynomial(f.cf, len(basis),
                                                  {coords(g): f.terms[g] for g in achievers}))
    expected = Value(p3, coords(direct.exponent))
    prefix_ok = Value.of_exponent(p2, direct.exponent) == coarse
    residue_ok = residue_value == expected
    return CompositionReport(k, direct, coarse, residue_value, expected, prefix_ok, residue_ok)
