"""Patch-topology machinery: box fingerprints, the ultrametric distance,
isolation tests, perturbation witnesses, sphere projection, and finite
fragments of the refinement tree with DOT export.

A fragment is grown breadth-first by rank, extending each node by each
candidate row one row at a time; since coarsenings are row-prefix
truncations, the cover edge into a node q is the one from its truncation
to rank - 1, the node q was first grown from, recorded when q is first seen.

The filtration is fixed as the max-norm boxes G_k = {-k..k}^n.  Restrictions
of two preorders to G_k agree as binary relations exactly when their sign
functions agree on G_{2k}, because differences of box points fill the doubled
box.  Two preorders are therefore compared on a box only through
first_disagreement_level, which scans box shells in order and stops at the
first shell with a sign mismatch: distance reads its level off that mismatch,
and a perturbation candidate is accepted only when there is none.
Fingerprints, the whole sign table of one box, serve only callers who want
the table.  A box larger than MAX_BOX_POINTS is refused with RangeError
before it is scanned.

A scan never visits points one by one.  The lex-positive half of a shell is
split into O(n^2) disjoint products of coordinate ranges (_shell_products,
cached per (n, k)), and of the half box into n (_half_box_products).  Each
preorder gets one sign table per row per shell, product by product inside
(Preorder.sign_table), from the row's integer enclosure summed one axis at a
time (Moore, Kearfott and Cloud, Introduction to Interval Analysis, 2009);
only the points it leaves undecided go to the exact sign.  Two preorders are
compared shell by shell as plain integer lists, and a witness search builds
the centre's table of each shell once for all its candidates.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import (DimensionMismatch, FieldMismatch, Isolated, RangeError, TrivialPreorder,
                     WitnessNotFound)
from .linalg import Axes, FieldVector, RationalSubspace
from .preorder import _SIGNS, Preorder, Sign, extend, from_rows

Q = Fraction

# A box scan (fingerprint, distance, and the perturbation searches) refuses
# with RangeError a box G_k whose (2k+1)^n points exceed MAX_BOX_POINTS,
# instead of running for minutes or hours.
MAX_BOX_POINTS = 100_000
# A fragment search refuses with RangeError, before it starts, c candidates
# whose extend() calls up to depth min(max_rank, n) could exceed
# MAX_FRAGMENT_EXTENDS: a rank-k node comes from k distinct candidates, so at
# most c(c-1)...(c-k+1) rank-k nodes are each extended by all c candidates.
MAX_FRAGMENT_EXTENDS = 5_000
# A perturbation search tries eps = 1/2, ..., 1/2^MAX_EPS_EXP along each of at
# most MAX_DIRECTIONS directions.
MAX_EPS_EXP = 40
MAX_DIRECTIONS = 8


# ---------------------------------------------------------------------------
# box enumeration
# ---------------------------------------------------------------------------

def _lex_positive(u: tuple[int, ...]) -> bool:
    for x in u:
        if x:
            return x > 0
    return False


def _check_box(n: int, k: int) -> None:
    """RangeError if (2k+1)^n > MAX_BOX_POINTS, multiplied up only to the budget."""
    points, budget = 1, MAX_BOX_POINTS
    for _ in range(n if k else 0):
        points *= 2 * k + 1
        if points > budget:
            raise RangeError(f"box G_{k} of Z^{n} has more than MAX_BOX_POINTS = {budget} points")


def _check_level(value, name: str, low: int) -> None:
    """RangeError unless value is an int (a bool is not one) of at least low."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise RangeError(f"{name} must be an integer, not {type(value).__name__}")
    if value < low:
        raise RangeError(f"{name} must be >= {low}")


def _box_coordinate(x) -> int:
    """x as a coordinate of a point of Z^n: an int (a bool is not one) or a
    Fraction with denominator 1; RangeError for anything else, which no box holds."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    if not isinstance(x, int) or isinstance(x, bool):
        raise RangeError(f"{x!r} is not an integer coordinate of a box point")
    return x


def half_box(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Lex-positive representatives of G_k \\ {0}, shell by shell; signs at -u follow by negation."""
    for level in range(1, k + 1):
        yield from half_shell(n, level)


def half_shell(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Lex-positive points with max-norm exactly k, in lexicographic order: the
    points of the shell products, sorted."""
    yield from sorted(itertools.chain.from_iterable(
        itertools.product(*axes) for axes in _shell_products(n, k)))


@functools.lru_cache(maxsize=256)  # bounded: at n = 1 a scan may reach level MAX_BOX_POINTS/2
def _shell_products(n: int, k: int) -> tuple[Axes, ...]:
    """The lex-positive points of Z^n with max-norm exactly k, as disjoint
    products of coordinate ranges, split by z, the first nonzero coordinate
    (positive), and j, the first coordinate with |x_j| = k:

        j = z:  0^z x {k} x full^(n-z-1)
        j > z:  0^z x (1..k-1) x inner^(j-z-1) x {-k, k} x full^(n-j-1)

    where full is -k..k and inner is -(k-1)..k-1; O(n^2) products in all.
    """
    if k < 1:
        return ()
    full, inner, ends = range(-k, k + 1), range(1 - k, k), (-k, k)
    out = []
    for z in range(n):
        zeros = ((0,),) * z
        out.append(zeros + ((k,),) + (full,) * (n - z - 1))
        if k > 1:
            out += [zeros + (range(1, k),) + (inner,) * (j - z - 1) + (ends,)
                    + (full,) * (n - j - 1) for j in range(z + 1, n)]
    return tuple(out)


def _half_box_products(n: int, k: int) -> list[Axes]:
    """The lex-positive points of G_k as the n products 0^z x (1..k) x (-k..k)^(n-z-1)."""
    full = range(-k, k + 1)
    return [((0,),) * z + (range(1, k + 1),) + (full,) * (n - z - 1) for z in range(n if k else 0)]


class Fingerprint:
    """Sign classification of a preorder on the box G_k.

    Only lex-positive representatives are stored; the sign at -u is the
    negation of the sign at u and the origin is always ZERO.
    """

    __slots__ = ("n", "level", "signs")

    def __init__(self, n: int, level: int, signs: dict[tuple[int, ...], Sign]):
        self.n = n
        self.level = level
        self.signs = signs

    def sign(self, u: Sequence[int]) -> Sign:
        u = tuple(map(_box_coordinate, u))
        if len(u) != self.n:
            raise DimensionMismatch(f"vector length {len(u)} != ambient {self.n}")
        if any(abs(x) > self.level for x in u):
            raise RangeError(f"{list(u)} lies outside the box G_{self.level}")
        if not any(u):
            return Sign.ZERO
        if _lex_positive(u):
            return self.signs[u]
        return self.signs[tuple(-x for x in u)].flip()

    def __eq__(self, other):
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return (self.n, self.level, self.signs) == (other.n, other.level, other.signs)

    def __hash__(self):
        return hash((self.n, self.level, tuple(sorted(self.signs.items()))))

    def restrict(self, level: int) -> "Fingerprint":
        _check_level(level, "restriction level", 0)
        if level > self.level:
            raise RangeError(f"restriction level {level} outside 0..{self.level}")
        kept = {u: s for u, s in self.signs.items() if max(abs(x) for x in u) <= level}
        return Fingerprint(self.n, level, kept)

    def to_json(self) -> dict:
        entries = [{"u": list(u), "s": s.symbol} for u, s in sorted(self.signs.items())]
        return {"level": self.level, "signs": entries}


def fingerprint(p: Preorder, k: int) -> Fingerprint:
    """The sign of every stored representative of G_k, in one table over the half-box products."""
    _check_level(k, "fingerprint level", 0)
    _check_box(p.n, k)
    products = _half_box_products(p.n, k)
    points = itertools.chain.from_iterable(itertools.product(*axes) for axes in products)
    return Fingerprint(p.n, k, dict(zip(points, map(_SIGNS.__getitem__, p.sign_table(products)))))


# ---------------------------------------------------------------------------
# ultrametric distance
# ---------------------------------------------------------------------------

class Distance(NamedTuple):
    """Exact 1/m, exact zero, or a verified upper bound 1/bound_m.

    The metric is only semi-decidable from finite boxes, so callers pick a
    resolution m_max and distances beyond it are reported as AtMost values
    rather than guessed.
    """

    kind: str  # "zero" | "exact" | "at_most"
    m: int

    @classmethod
    def zero(cls) -> "Distance":
        return cls("zero", 0)

    @classmethod
    def exact(cls, m: int) -> "Distance":
        return cls("exact", m)

    @classmethod
    def at_most(cls, bound_m: int) -> "Distance":
        return cls("at_most", bound_m)

    @property
    def upper_bound(self) -> Fraction:
        return Q(0) if self.kind == "zero" else Q(1, self.m)

    def __str__(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "exact":
            return f"1/{self.m}"
        return f"≤1/{self.m}"


def distance(p: Preorder, q: Preorder, m_max: int) -> Distance:
    """Ultrametric patch distance resolved down to 1/m_max.

    d = 1/m where m is minimal with the G_m restrictions differing; the first
    sign mismatch on shell l gives m = ceil(l/2).  Shells are scanned in
    order, so the reported level is the exact first mismatch.
    """
    if p.field != q.field:
        raise FieldMismatch("preorders over different number fields")
    if p.n != q.n:
        raise DimensionMismatch("preorders on different ambient dimensions")
    _check_level(m_max, "m_max", 1)
    _check_box(p.n, 2 * m_max)
    if p.equals(q):
        return Distance.zero()
    level = first_disagreement_level(p, q, 2 * m_max)
    if level is None:
        return Distance.at_most(m_max + 1)
    return Distance.exact((level + 1) // 2)


def first_disagreement_level(p: Preorder, q: Preorder, level_max: int) -> int | None:
    """Smallest box level with a sign mismatch, or None up to level_max."""
    return _first_disagreement(functools.partial(_shell_table, p), q, level_max)


def _shell_table(p: Preorder, level: int) -> list[int]:
    """p's signs on the lex-positive half of shell level, in one table."""
    return p.sign_table(_shell_products(p.n, level))


def _first_disagreement(centre_table, q: Preorder, level_max: int) -> int | None:
    """first_disagreement_level, with p's table of each shell read from
    centre_table(level) and compared with q's, shell by shell."""
    for level in range(1, level_max + 1):
        if centre_table(level) != _shell_table(q, level):
            return level
    return None


# ---------------------------------------------------------------------------
# isolation and perturbation witnesses
# ---------------------------------------------------------------------------

def is_isolated(p: Preorder) -> bool:
    """Isolated in the patch topology iff degree >= n - 1."""
    return p.degree >= p.n - 1


def sphere_point(p: Preorder) -> FieldVector:
    """Projective representative of the rank-one coarsening's direction."""
    if p.rank == 0:
        raise TrivialPreorder("the trivial preorder has no sphere direction")
    return p.rows[0]


def _perturbation_directions(p: Preorder) -> list[FieldVector]:
    """Deterministic candidate directions for first-row perturbation.

    Rational vectors orthogonal to the level-1 kernel (the span of the first
    row's layers) keep the kernel (hence the deeper rows' behavior) intact,
    so they come first; the second row itself reproduces the tie-breaking of
    level 2 on any fixed box and covers the case of a rational first row.
    When that span is one-dimensional (type_vec[0] == 1) its vectors are
    parallel to the first row and perturb nothing, so none are used.
    """
    w1perp = RationalSubspace(p.n, p.rows[0].int_layers()).basis if p.type_vec[0] > 1 else ()
    out = [FieldVector.from_rationals(p.field, b) for b in w1perp]
    if p.rank >= 2:
        out.append(p.rows[1])
    out += [FieldVector.from_rationals(p.field, tuple(-x for x in b)) for b in w1perp]
    return out[:MAX_DIRECTIONS]


def perturb_in_ball(p: Preorder, m: int, want_same_type: bool = False) -> Preorder:
    """A different preorder agreeing with p on the box G_{2m}.

    Searches candidate rows (row_1 + eps z, row_2, ..., row_s) over the
    deterministic direction list with eps = 1/2, 1/4, ...; every candidate is
    verified exactly before being returned: it must agree with p in sign on
    every point of G_{2m} (the box scan stops at the first mismatch), and keep
    p's type when requested.
    """
    _check_level(m, "m", 1)
    for cand in _perturbation_candidates(p, m, want_same_type):
        return cand
    raise WitnessNotFound("perturbation search budget exhausted")


def same_type_neighbors(p: Preorder, m: int, count: int) -> list[Preorder]:
    """count pairwise distinct same-type preorders in the 1/(m+1) ball."""
    _check_level(count, "count", 1)
    _check_level(m, "m", 1)
    found: list[Preorder] = []
    for cand in _perturbation_candidates(p, m, want_same_type=True):
        if all(not cand.equals(w) for w in found):
            found.append(cand)
            if len(found) == count:
                return found
    raise WitnessNotFound(
        f"found only {len(found)} of {count} same-type neighbors within budget"
    )


def _perturbation_candidates(p: Preorder, m: int, want_same_type: bool) -> Iterator[Preorder]:
    if is_isolated(p):
        raise Isolated(f"degree {p.degree} >= n-1 = {p.n - 1}: isolated point")
    _check_box(p.n, 2 * m)
    centre = functools.cache(functools.partial(_shell_table, p))  # once for all candidates
    for z in _perturbation_directions(p):
        eps = Q(1, 2)
        for _ in range(MAX_EPS_EXP):
            candidate_rows = [p.rows[0].add(z.scale(eps))] + list(p.rows[1:])
            cand = from_rows(candidate_rows, p.n, field=p.field)
            eps = eps / 2
            if cand.equals(p):
                continue
            if want_same_type and cand.type_vec != p.type_vec:
                continue
            if _first_disagreement(centre, cand, 2 * m) is None:
                yield cand


# ---------------------------------------------------------------------------
# finite fragments of the refinement tree
# ---------------------------------------------------------------------------

class FragmentGraph(NamedTuple):
    """Deduplicated preorders with the cover relation of refinement.

    Edges are covers within the enumerated node set; covers in the full
    infinite tree are not computable from a fragment.  labels[i] is
    nodes[i].matrix_str(), built once by enumerate_fragment.
    """

    nodes: tuple[Preorder, ...]
    edges: tuple[tuple[int, int], ...]
    root: int
    labels: tuple[str, ...]


def enumerate_fragment(candidate_rows: Sequence[FieldVector], n: int, max_rank: int,
                       field=None) -> FragmentGraph:
    """All preorders from ordered tuples of at most max_rank candidate rows.

    Breadth-first by rank: every rank-k node is extended by every candidate,
    and a candidate that is redundant after a node adds nothing.  Every
    truncation of a node is a node, so each non-root node q has exactly one
    cover edge, from its truncation to rank - 1: the node extend() grew q from
    when q was first seen, which is recorded then.  Each node's key() is
    computed once.
    """
    if max_rank < 0:
        raise RangeError(f"max_rank {max_rank} < 0")
    c, depth = len(candidate_rows), min(max_rank, n)
    calls, width = 0, 1  # width bounds the size of the rank-k frontier
    for k in range(depth):
        calls += c * width
        if calls > MAX_FRAGMENT_EXTENDS:
            raise RangeError(f"{c} candidates to depth {depth} may take more than "
                             f"MAX_FRAGMENT_EXTENDS = {MAX_FRAGMENT_EXTENDS} extend calls")
        width *= c - k
        if not width:
            break
    if field is None and candidate_rows:
        field = candidate_rows[0].field
    trivial = from_rows([], n, field=field)
    root = trivial.key()
    seen = {root: (trivial, None)}  # key -> (node, key of the node it was first grown from)
    frontier = [(root, trivial)]
    for _ in range(depth):  # a rank-n node has no residue left to refine
        grown = []
        for key, p in frontier:
            for row in candidate_rows:
                q = extend(p, row)
                if q is not p and (k := q.key()) not in seen:
                    seen[k] = (q, key)
                    grown.append((k, q))
        frontier = grown
    ranked = sorted((q.rank, q.matrix_str(), k) for k, (q, _) in seen.items())
    idx = {k: i for i, (_, _, k) in enumerate(ranked)}
    nodes = tuple(seen[k][0] for _, _, k in ranked)
    labels = tuple(label for _, label, _ in ranked)
    edges = sorted((idx[up], idx[k]) for k, (_, up) in seen.items() if up is not None)
    return FragmentGraph(nodes, tuple(edges), idx[root], labels)


def to_dot(g: FragmentGraph) -> str:
    """Deterministic Graphviz digraph; byte-identical for identical inputs."""
    lines = ["digraph fragment {", "  node [shape=box];"]
    for i, (p, matrix) in enumerate(zip(g.nodes, g.labels)):
        label = f"{matrix} rank={p.rank} degree={p.degree} type=({','.join(map(str, p.type_vec))})"
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in g.edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
