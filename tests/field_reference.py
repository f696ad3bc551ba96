"""Polynomial arithmetic in Q(alpha), kept as the reference for realfield.

The package multiplies and inverts through the multiplication matrix of an
element.  This module does both the older way: a product is the polynomial
product reduced modulo the minimal polynomial, and an inverse comes from the
extended Euclidean algorithm.  Both assume an irreducible minimal polynomial.
It also builds Sturm chains the textbook way, by Fraction polynomial division,
as the reference for the package's integer pseudo-division.  It shares no
polynomial code with the package; only adjugate, a helper for the tests of
NumberField.divide, calls it.
"""

from fractions import Fraction as Q


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod(num, den):
    """(quotient, remainder) of Fraction polynomials, coefficients ascending."""
    num = list(num)
    den = _trim(list(den))
    quo = [Q(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(num) - len(den), -1, -1):
        factor = num[shift + len(den) - 1] / lead
        if factor:
            quo[shift] = factor
            for i, c in enumerate(den):
                num[shift + i] -= factor * c
    return _trim(quo), _trim(num[: len(den) - 1])


def fraction_sturm_chain(f):
    """The Sturm chain f, f', -rem(f, f'), ... of a polynomial, in Fractions."""
    chain = [_trim([Q(c) for c in f]), _trim([Q(i * c) for i, c in enumerate(f)][1:])]
    while chain[-1]:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _pad(coeffs, d):
    return list(coeffs) + [Q(0)] * (d - len(coeffs))


def poly_mul(a, b):
    """The product of two polynomials, coefficients ascending, trailing zeros trimmed."""
    if not a or not b:
        return []
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def poly_ext_gcd(a, b):
    """Extended Euclid: returns (g, u) with u*a = g modulo b."""
    r0, r1 = _trim(list(a)), _trim(list(b))
    u0, u1 = [Q(1)], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        qu = poly_mul(q, u1)
        n = max(len(u0), len(qu))
        u0, u1 = u1, _trim([x - y for x, y in zip(_pad(u0, n), _pad(qu, n))])
    return r0, u0


def reference_mul(field, a, b):
    """Coefficients of a * b: the polynomial product reduced by the minimal polynomial."""
    _, rem = _poly_divmod(poly_mul(list(a), list(b)), [Q(c) for c in field.min_poly])
    return _pad(rem, field.degree)


def reference_inverse(field, a):
    """Coefficients of 1 / a, by extended Euclid against the minimal polynomial."""
    g, u = poly_ext_gcd(list(a), [Q(c) for c in field.min_poly])
    return _pad([c / g[0] for c in u], field.degree)[: field.degree]


def adjugate(field, coeffs):
    """(adj(M), N) for M = field.mul_matrix(coeffs) and N = det M: the package's
    divide of the identity by x, so adj(M) = N M^-1 is the matrix of N / x."""
    return field.divide(field.mul_matrix((1,) + (0,) * (field.degree - 1)), coeffs)
