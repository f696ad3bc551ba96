"""The point-by-point box scan, kept as the reference for first_disagreement_level.

The package compares two preorders one product of coordinate ranges at a
time, with one sign table per row.  This module scans the way it did before:
every lex-positive point of each shell, in lexicographic order, one sign_of
call per preorder per point.
"""

from preorderspace.topology import half_shell


def first_disagreement_level_by_points(p, q, level_max):
    """Smallest box level with a sign mismatch, or None up to level_max."""
    for level in range(1, level_max + 1):
        for u in half_shell(p.n, level):
            if p.sign_of(u) != q.sign_of(u):
                return level
    return None
