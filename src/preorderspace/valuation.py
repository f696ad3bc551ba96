"""Monomial valuations on Laurent polynomials induced by preorders.

A preorder with rows r_1..r_s sends the monomial x^g to the tuple
(g.r_1, ..., g.r_s), which represents the class of g modulo the residue
group; tuples compare lexicographically and the valuation of a polynomial is
the minimum over its support, with the zero polynomial mapping to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    InvalidField,
    RangeError,
    ZeroPolynomial,
)
from .lattice import decompose
from .preorder import Preorder
from .realfield import FieldElement, parse_integer, parse_list, parse_rational

Q = Fraction


def _is_prime(p: int) -> bool:
    """Trial division; callers pass p < 2^31, so at most 46,341 divisors."""
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


class CoefficientField:
    """Q or a prime field F_p (p < 2^31) for Laurent coefficients."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "Q":
            self.kind, self.p = "Q", None
        elif kind == "F_p":
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
        q = Q(c)
        if self.kind == "Q":
            return q
        if q.denominator % self.p == 0:
            raise DivisionByZero(f"{q} has no value in F_{self.p}")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def is_zero(self, c) -> bool:
        return c == 0

    def add(self, a, b):
        return a + b if self.kind == "Q" else (a + b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "Q" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "Q" else (-a) % self.p

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
            return cls.prime(int(name[2:]))
        raise InvalidField(f"unknown coefficient field {name!r}")


class LaurentPolynomial:
    """Finite Z^n-supported map to nonzero coefficients, canonically stored."""

    __slots__ = ("cf", "n", "terms")

    def __init__(self, cf: CoefficientField, n: int, terms: dict):
        clean = {}
        for exp, c in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n:
                raise DimensionMismatch(f"exponent length {len(exp)} != {n}")
            c = cf.coerce(c)
            if not cf.is_zero(c):
                clean[exp] = c
        self.cf = cf
        self.n = n
        self.terms = clean

    @classmethod
    def zero(cls, cf: CoefficientField, n: int) -> "LaurentPolynomial":
        return cls(cf, n, {})

    @classmethod
    def monomial(cls, cf: CoefficientField, n: int, exp, coeff=1) -> "LaurentPolynomial":
        return cls(cf, n, {tuple(exp): coeff})

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
            out[exp] = self.cf.add(out.get(exp, self.cf.coerce(0)), c)
        return LaurentPolynomial(self.cf, self.n, out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.cf, self.n,
                                 {e: self.cf.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._same(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = self.cf.mul(c1, c2)
                if e in out:
                    out[e] = self.cf.add(out[e], prod)
                else:
                    out[e] = prod
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
        cf = CoefficientField.from_name(obj["field"])
        n = parse_integer(obj["n"])
        terms = {}
        for t in obj.get("terms", []):
            exp = tuple(parse_list(t["e"], parse_integer))
            c = parse_rational(t["c"]) if cf.kind == "Q" else parse_integer(t["c"])
            terms[exp] = cf.add(terms.get(exp, cf.coerce(0)), cf.coerce(c))
        return cls(cf, n, terms)


class Value:
    """Lex-ordered tuple (g.r_1, ..., g.r_s) for a class of exponents, or infinity."""

    __slots__ = ("preorder", "entries", "infinite")

    def __init__(self, preorder: Preorder, entries: tuple[FieldElement, ...] | None,
                 infinite: bool = False):
        self.preorder = preorder
        self.infinite = infinite
        self.entries = None if infinite else tuple(entries)

    @classmethod
    def infinity(cls, p: Preorder) -> "Value":
        return cls(p, None, infinite=True)

    @classmethod
    def of_exponent(cls, p: Preorder, g: Sequence[int]) -> "Value":
        vec = [Q(x) for x in g]
        if len(vec) != p.n:
            raise DimensionMismatch(f"exponent length {len(vec)} != ambient {p.n}")
        return cls(p, tuple(row.dot(vec) for row in p.rows))

    def is_zero_tuple(self) -> bool:
        return not self.infinite and all(e.is_zero() for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        if self.infinite or other.infinite:
            return self.infinite == other.infinite
        return self.entries == other.entries

    def __hash__(self):
        if self.infinite:
            return hash("inf")
        return hash(tuple(e.coeffs for e in self.entries))

    def __lt__(self, other: "Value") -> bool:
        if self.infinite:
            return False
        if other.infinite:
            return True
        for a, b in zip(self.entries, other.entries):
            s = (a - b).sign()
            if s:
                return s < 0
        return False

    def __le__(self, other: "Value") -> bool:
        return self == other or self < other

    def __add__(self, other: "Value") -> "Value":
        if self.infinite or other.infinite:
            return Value.infinity(self.preorder)
        return Value(self.preorder, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Value") -> "Value":
        if other.infinite:
            raise DivisionByZero("cannot subtract an infinite value")
        if self.infinite:
            return Value.infinity(self.preorder)
        return Value(self.preorder, tuple(a - b for a, b in zip(self.entries, other.entries)))

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
    if f.n != p.n:
        raise DimensionMismatch(f"polynomial on Z^{f.n}, preorder on Q^{p.n}")
    if f.is_zero():
        return Value.infinity(p)
    return _min_support(p, f)[0]


def _min_support(p: Preorder, f: LaurentPolynomial):
    """(min value, lex-least achieving exponent, all achieving exponents)."""
    best = None
    achievers: list[tuple[int, ...]] = []
    for g in f.support():
        v = Value.of_exponent(p, g)
        if best is None or v < best:
            best, achievers = v, [g]
        elif v == best:
            achievers.append(g)
    return best, achievers[0], achievers


def initial_form(p: Preorder, f: LaurentPolynomial) -> LaurentPolynomial:
    """Sub-polynomial of the terms achieving the valuation."""
    if f.is_zero():
        raise ZeroPolynomial("initial form of the zero polynomial")
    if f.n != p.n:
        raise DimensionMismatch(f"polynomial on Z^{f.n}, preorder on Q^{p.n}")
    _, _, achievers = _min_support(p, f)
    return LaurentPolynomial(f.cf, f.n, {g: f.terms[g] for g in achievers})


def valuate_ratio(p: Preorder, f: LaurentPolynomial, g: LaurentPolynomial) -> Value:
    """Value of the formal ratio f/g (difference of values)."""
    if g.is_zero():
        raise DivisionByZero("valuation of a ratio with zero denominator")
    vf = valuate(p, f)
    if vf.infinite:
        return vf
    return vf - valuate(p, g)


@dataclass(frozen=True)
class CompositionReport:
    """Exact comparison of a valuation against its two-step composite.

    The coarse preorder (first k rows) values f; the initial form is pushed
    into residue coordinates relative to its lex-least exponent and valued by
    the residue preorder.  The prefix check compares the first k components
    directly; the residue check compares classes, which is reference-point
    independent once the same base exponent is used on both sides.
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

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "direct": self.value_direct.to_json(),
            "coarse": self.value_coarse.to_json(),
            "residue": self.value_residue.to_json(),
            "expected_residue": self.expected_residue.to_json(),
            "prefix_ok": self.prefix_ok,
            "residue_ok": self.residue_ok,
            "passed": self.passed,
        }


def check_composition(p1: Preorder, k: int, f: LaurentPolynomial) -> CompositionReport:
    """Verify that valuing by p1 equals valuing coarsely then on the residue."""
    if not 0 <= k <= p1.rank:
        raise RangeError(f"level {k} outside 0..{p1.rank}")
    if f.is_zero():
        raise ZeroPolynomial("composition check needs a nonzero polynomial")
    if f.n != p1.n:
        raise DimensionMismatch(f"polynomial on Z^{f.n}, preorder on Q^{p1.n}")
    p2, p3, basis = decompose(p1, k)
    direct, g_star, _ = _min_support(p1, f)
    coarse = valuate(p2, f)
    init2 = initial_form(p2, f)
    g0 = min(init2.support())
    w = p2.residue_group()
    pushed_terms = {}
    for g, c in init2.terms.items():
        delta = tuple(a - b for a, b in zip(g, g0))
        coords = w.coords([Q(x) for x in delta])
        if any(x.denominator != 1 for x in coords):
            raise AssertionError("integer exponent with non-integer residue coordinates")
        exp = tuple(int(x) for x in coords)
        pushed_terms[exp] = c
    pushed = LaurentPolynomial(f.cf, len(basis), pushed_terms)
    residue_value = valuate(p3, pushed)
    delta_star = tuple(a - b for a, b in zip(g_star, g0))
    expected = Value.of_exponent(p3, [int(x) for x in w.coords([Q(x) for x in delta_star])])
    prefix_ok = direct.entries[:k] == coarse.entries
    residue_ok = residue_value == expected
    return CompositionReport(k, direct, coarse, residue_value, expected, prefix_ok, residue_ok)
