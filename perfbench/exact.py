"""Plain-data inputs and an independent exact sign oracle.

Every field the benchmark uses is Q(2^(1/d)) for d = 1..4, so an element
sum c_i alpha^i can be signed without the library: bracket alpha between
consecutive multiples of 2^-k (an integer d-th root of 2^(dk+1) gives them),
evaluate the terms, monotone since alpha > 0, at both ends, and double k
until the bracket excludes zero.
Since x^d - 2 is irreducible and the element has degree < d, a nonzero
coefficient vector never evaluates to zero, so the loop ends.

Rows are tuples of entries; an entry is a tuple of d Fractions (its
coefficients in 1, alpha, ..., alpha^(d-1)).  Generation uses only ints and
Fractions drawn from a random.Random, so the workloads do not depend on the
package's own samplers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

Q = Fraction

# name -> (min_poly ascending, isolating interval); alpha = 2^(1/degree)
FIELDS = {
    "Q": ((0, 1), (-1, 1)),
    "Q(sqrt2)": ((-2, 0, 1), (1, 2)),
    "Q(cbrt2)": ((-2, 0, 0, 1), (1, 2)),
    "Q(2^1/4)": ((-2, 0, 0, 0, 1), (1, 2)),
}


def degree(field: str) -> int:
    return len(FIELDS[field][0]) - 1


def field_json(field: str) -> dict:
    poly, (lo, hi) = FIELDS[field]
    return {"min_poly": list(poly), "isolating": [str(lo), str(hi)]}


def iroot(m: int, d: int) -> int:
    """Largest r >= 0 with r**d <= m."""
    if m < 2:
        return m
    r = 1 << ((m.bit_length() + d - 1) // d)
    while True:
        s = ((d - 1) * r + m // r ** (d - 1)) // d
        if s >= r:
            break
        r = s
    while r ** d > m:
        r -= 1
    while (r + 1) ** d <= m:
        r += 1
    return r


def sign(coeffs) -> int:
    """Exact sign of sum coeffs[i] * 2^(i/d), d = len(coeffs)."""
    d = len(coeffs)
    if not any(coeffs[1:]):
        c0 = coeffs[0]
        return (c0 > 0) - (c0 < 0)
    den = lcm(*(Q(c).denominator for c in coeffs))
    ints = [int(Q(c) * den) for c in coeffs]
    bits = 8
    while True:
        # alpha in (r / 2^bits, (r + 1) / 2^bits); scale terms by 2^(bits*(d-1))
        r = iroot(2 << (d * bits), d)
        lo = hi = 0
        for i, c in enumerate(ints):
            shift = bits * (d - 1 - i)
            small, big = (r ** i) << shift, ((r + 1) ** i) << shift
            lo += c * (small if c >= 0 else big)
            hi += c * (big if c >= 0 else small)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def convergents(d: int, limit: int) -> list:
    """Continued-fraction convergents (a, b) of 2^(1/d) with a <= limit."""
    bits = 4 * limit.bit_length() + 16  # far more precision than the terms need
    x = Q(iroot(2 << (d * bits), d), 1 << bits)
    out, (a0, a1), (b0, b1) = [], (1, 0), (0, 1)
    while True:
        t = x.numerator // x.denominator
        a0, a1 = t * a0 + a1, a0
        b0, b1 = t * b0 + b1, b0
        if a0 > limit:
            return out
        out.append((a0, b0))
        x = 1 / (x - t)


def dot(row, u) -> tuple:
    """Coefficient vector of u . row for an integer vector u."""
    d = len(row[0])
    return tuple(sum((ui * e[j] for ui, e in zip(u, row) if ui), Q(0)) for j in range(d))


def lex_sign(rows, u) -> int:
    """Sign of the first row with nonzero dot product (the defining relation)."""
    for row in rows:
        s = sign(dot(row, u))
        if s:
            return s
    return 0


def lex_compare(a, b) -> int:
    """Compare two tuples of field coefficient vectors lexicographically."""
    for x, y in zip(a, b):
        s = sign(tuple(p - q for p, q in zip(x, y)))
        if s:
            return s
    return 0


# ---------------------------------------------------------------------------
# random plain data
# ---------------------------------------------------------------------------

def rand_fraction(rng: random.Random, num: int = 3, den: int = 2) -> Fraction:
    return Q(rng.randint(-num, num), rng.randint(1, den))


def rand_entry(rng: random.Random, d: int, sparsity: float = 0.4) -> tuple:
    return tuple(Q(0) if rng.random() < sparsity else rand_fraction(rng) for _ in range(d))


def rand_row(rng: random.Random, d: int, n: int, sparsity: float = 0.4) -> tuple:
    return tuple(rand_entry(rng, d, sparsity) for _ in range(n))


def rational(*values, d: int = 1) -> tuple:
    """A row with rational entries, padded to d coefficients."""
    return tuple((Q(v),) + (Q(0),) * (d - 1) for v in values)


def combine(rows, weights) -> tuple:
    """Rational linear combination of rows (redundant once they are accepted)."""
    n, d = len(rows[0]), len(rows[0][0])
    return tuple(
        tuple(sum((w * r[i][j] for w, r in zip(weights, rows)), Q(0)) for j in range(d))
        for i in range(n)
    )


def rand_int_vector(rng: random.Random, n: int, bound: int = 3) -> tuple:
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def rand_unimodular(rng: random.Random, n: int, steps: int = 6) -> list:
    """Integer matrix of determinant +-1 from elementary row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 1 or n == 1:
            m[i] = [-x for x in m[i]]
            continue
        while j == i:
            j = rng.randrange(n)
        if op == 0:
            m[i], m[j] = m[j], m[i]
        else:
            k = rng.choice((-2, -1, 1, 2))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return m


def rand_gl(rng: random.Random, n: int) -> list:
    """Invertible rational matrix: a unimodular one with nonzero row scalings."""
    out = []
    for row in rand_unimodular(rng, n):
        c = Q(0)
        while c == 0:
            c = rand_fraction(rng)
        out.append([c * x for x in row])
    return out


def rand_laurent(rng: random.Random, n: int, max_terms: int = 4, emax: int = 3) -> dict:
    """Nonzero exponent -> integer coefficient map (valid over Q and F_p, p > 3)."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(-emax, emax) for _ in range(n))
        terms[exp] = rng.choice((-3, -2, -1, 1, 2, 3))
    return terms
