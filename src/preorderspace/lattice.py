"""Order structure of the space of preorders: refinement, meet, truncation,
composition along isolated subgroups, and quotients.

Coarsenings of a preorder are exactly its row-prefix truncations, and the
level-k truncation determines every coarser level, so refinement and meet
reduce to truncation comparisons on canonical forms.  A basis crosses this
API as rows of Q^n: decompose hands out the integer rows it stores, and compose
and quotient read theirs once, through the realfield readers.
"""

from __future__ import annotations

from functools import reduce

from .errors import BasisError, FieldMismatch, NotContained, SingularMatrix
from .linalg import FieldVector, RationalSubspace, map_layers
from .preorder import Preorder, check_peers, check_preorders, extend, from_rows
from .realfield import check_level, cleared, solve


def truncate(p: Preorder, k: int) -> Preorder:
    """The preorder defined by the first k canonical rows."""
    check_preorders(p)
    check_level(k, "truncation level", 0, p.rank)
    if k == p.rank:
        return p
    return Preorder(p.field, p.n, p.rows[:k], p.bases[:k])


def refines(coarse: Preorder, fine: Preorder) -> bool:
    """True iff fine refines coarse, i.e. coarse is a truncation of fine."""
    check_peers(coarse, fine)
    return coarse.rank <= fine.rank and truncate(fine, coarse.rank).equals(coarse)


def meet(p: Preorder, q: Preorder) -> Preorder:
    """Greatest lower bound: the deepest common truncation.

    Canonical truncations agree exactly when their rows do, so the meet keeps
    the leading rows that p and q share.
    """
    check_peers(p, q)
    k = 0
    for a, b in zip(p.rows, q.rows):
        if a != b:
            break
        k += 1
    return truncate(p, k)


def compose(p: Preorder, r: Preorder, basis) -> Preorder:
    """Lexicographic composition: p first, then r on the residue group of p.

    Each row of r, read as a functional in the coordinates given by `basis`,
    is lifted to an ambient row with the same values on `basis`: the lift is
    supported on the pivot columns of the residue group's echelon basis,
    where one solve, for all layers of r's rows at once, inverts the square
    block of `basis` on those columns.  p is extended by the lifted rows, and
    extend() projects each onto the residue group, so only the values on
    `basis` matter, read once as integer rows: their one positive scale
    scales the lifts by its inverse, which changes no canonical row.
    """
    check_preorders(p, r)
    if p.field != r.field:
        raise FieldMismatch("preorders over different number fields")
    residue = p.residue_group()
    basis, _ = cleared(basis)
    if len(basis) != residue.dim:
        raise BasisError(f"expected {residue.dim} basis vectors, got {len(basis)}")
    if any(map(p.sign_of, basis)):
        raise BasisError("basis vector outside the residue group")
    if r.n != residue.dim:
        raise BasisError(f"residue preorder must live on Q^{residue.dim}")
    d = p.field.degree
    layers = [layer for row in r.rows for layer in row.int_layers()]
    try:
        y, den = solve([[b[c] for c in residue.pivots] for b in basis],
                       [[layer[i] for layer in layers] for i in range(r.n)])
    except SingularMatrix as exc:
        raise BasisError("basis vectors are not linearly independent") from exc
    at_pivot = dict(zip(residue.pivots, y))
    lifted = list(zip(*(at_pivot.get(c, [0] * len(layers)) for c in range(p.n))))
    rows = [FieldVector.from_int_layers(p.field, lifted[i:i + d], den)
            for i in range(0, len(lifted), d)]
    return reduce(extend, rows, p)


def decompose(p: Preorder, k: int) -> tuple[Preorder, Preorder, list[tuple[int, ...]]]:
    """Split p into (truncation at k, restriction to its residue group, basis).

    The basis is the level-k kernel's reduced-echelon basis as stored: integer
    rows over one positive scale, whose dot products with the deeper rows are
    the restricted row entries.  compose() inverts the split exactly.
    """
    check_preorders(p)
    check_level(k, "decomposition level", 0, p.rank)
    head = truncate(p, k)
    w = head.residue_group()
    rest = from_rows(map_layers(p.rows[k:], w.ints), w.dim, field=p.field)
    return head, rest, list(w.ints)


def quotient(p: Preorder, basis) -> Preorder:
    """The induced preorder on Q^n / H, for H spanned by basis inside the residue group.

    The basis is read as compose() reads one, rows of Q^n (a RationalSubspace
    passes its ints); output coordinates are the non-pivot columns of H's
    echelon basis, and rows vanish on H, so selecting those columns realizes
    the quotient relation.
    """
    check_preorders(p)
    h = RationalSubspace(p.n, basis)
    for b in h.ints:
        if p.sign_of(b):
            raise NotContained("subgroup is not contained in the residue group")
    keep = h.complement_coords()
    rows = [FieldVector.from_int_layers(p.field, [[layer[i] for i in keep]
                                                  for layer in r.int_layers()])
            for r in p.rows]
    return from_rows(rows, len(keep), field=p.field)
