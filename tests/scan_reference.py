"""The point-by-point box scan, kept as the reference for first_disagreement_level
and for the sign tables of shells.

The package compares two preorders shell by shell, with one sign table per
row per shell, built over the shell's coordinate columns.  This module scans
the way it did before those tables: every lex-positive point of each shell,
in lexicographic order, one sign_of call per preorder per point.
"""

from preorderspace.topology import half_shell


def first_disagreement_level_by_points(p, q, level_max):
    """Smallest box level with a sign mismatch, or None up to level_max."""
    for level in range(1, level_max + 1):
        for u in half_shell(p.n, level):
            if p.sign_of(u) != q.sign_of(u):
                return level
    return None


def shell_signs_by_points(p, level):
    """{u: sign_of(u) as an int} for the lex-positive points u of shell level."""
    return {u: int(p.sign_of(u)) for u in half_shell(p.n, level)}
