"""The Gram-inverse projection, kept as the reference for canonical forms.

The package projects by subtracting components along orthogonal bases of the
rows' layers.  This module projects the older way, through the dual basis of
a subspace's echelon basis (its Gram matrix solved against it), and folds
canonical rows and the kernel flag from it.  It also keeps the sequential
fraction-free Gram-Schmidt rejection (Erlingsson, Kaltofen and Musser, ISSAC
1996), one joint gcd per basis vector met, against which the package's
one-pass reject is checked.
"""

from fractions import Fraction as Q
from math import gcd

from preorderspace import FieldVector, RationalSubspace, rational_kernel
from preorderspace.realfield import solve


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Q(0))


def _joint_primitive(layers):
    g = gcd(*map(gcd, *layers))
    return layers if g < 2 else [[x // g for x in layer] for layer in layers]


def sequential_reject(layers, basis):
    """Jointly primitive integer layers, a positive multiple of the layers
    projected off the span of mutually orthogonal integer vectors: each e met
    makes every layer (e.e) layer - (layer.e) e, then all lose their joint gcd."""
    out = _joint_primitive(layers)
    for e in basis:
        cs = [sum(x * y for x, y in zip(layer, e)) for layer in out]
        if any(cs):
            ee = sum(x * x for x in e)
            out = _joint_primitive([[ee * x - c * y for x, y in zip(layer, e)]
                                    for layer, c in zip(out, cs)])
    return out


def dual_basis(basis):
    """Vectors d_j in span(basis) with d_j . b_i = delta_ij: the rows of
    G^-1 B for the Gram matrix G and the basis rows B, one solve of G D = B.

    Raises SingularMatrix when the basis vectors are linearly dependent.
    """
    gram = [[_dot(bi, bj) for bj in basis] for bi in basis]
    x, den = solve(gram, basis)
    return [tuple(Q(v, den) for v in row) for row in x]


def gram_project(v, w):
    """proj_w(v) = sum_j (v . b_j) d_j over w's echelon basis b_j and its dual basis d_j."""
    duals = dual_basis(w.basis)
    layers = [tuple(sum((_dot(layer, b) * d[t] for b, d in zip(w.basis, duals)), Q(0))
                    for t in range(w.n))
              for layer in v.layers()]
    return FieldVector.from_layers(v.field, layers)


def gram_from_rows(raw_rows, n, field):
    """(canonical rows, kernel flag) by the fold that projects through the Gram inverse."""
    rows, flag = [], [RationalSubspace.full(n)]
    for raw in raw_rows:
        row = gram_project(raw, flag[-1])
        if row.is_zero():
            continue
        lead = field.element(next(c for c in zip(*row.layers()) if any(c)))
        rows.append(row.scale(lead.abs().inverse()))
        flag.append(rational_kernel(rows, n))
    return tuple(rows), tuple(flag)
