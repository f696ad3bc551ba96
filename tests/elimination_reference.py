"""The Fraction Gauss-Jordan elimination, kept as the reference for linalg.

The package eliminates on primitive integer rows and reads a kernel's echelon
basis off one right-to-left elimination.  This module does both the older
way: row operations on Fractions, and a kernel built from a left-to-right
elimination and then reduced again.
"""

from fractions import Fraction as Q


def fraction_rref(rows):
    """(nonzero RREF rows, pivot columns) by Gauss-Jordan elimination on Fractions."""
    mat = [[Q(x) for x in r] for r in rows]
    mat = [r for r in mat if any(r)]
    if not mat:
        return [], []
    pivots = []
    piv_r = 0
    for col in range(len(mat[0])):
        sel = next((r for r in range(piv_r, len(mat)) if mat[r][col] != 0), None)
        if sel is None:
            continue
        mat[piv_r], mat[sel] = mat[sel], mat[piv_r]
        inv = 1 / mat[piv_r][col]
        mat[piv_r] = [c * inv for c in mat[piv_r]]
        for r in range(len(mat)):
            if r != piv_r and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[piv_r])]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(mat):
            break
    return mat[:piv_r], pivots


def two_pass_nullspace(constraints, n):
    """RREF kernel basis: one vector per free column of the constraints' RREF,
    then a second elimination of those vectors."""
    red, pivots = fraction_rref(constraints)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Q(0)] * n
        v[f] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return [tuple(r) for r in fraction_rref(basis)[0]]


def fraction_inverse(m):
    """The inverse through the RREF of [m | I]; None when m is singular."""
    n = len(m)
    aug = [list(row) + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    red, pivots = fraction_rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]
