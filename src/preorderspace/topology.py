"""Patch-topology machinery: box fingerprints, the ultrametric distance,
isolation tests, perturbation witnesses, sphere projection, and finite
fragments of the refinement tree with DOT export.

A fragment is grown breadth-first by rank from candidate residues: each node
keeps its candidates' integer layers rejected off its rows (reject), without
the redundant ones and the repeats, and takes one row step (row_of) per
residue; a child's residues are its parent's rejected off the child's new row
alone.  Since coarsenings are row-prefix truncations, equal nodes have equal
parents, so each node's children are deduplicated by their new rows before any
is built, the cover edge into a node is the one from its parent, and a node's
label is its parent's with the new row printed after it.

The filtration is fixed as the max-norm boxes G_k = {-k..k}^n.  Restrictions
of two preorders to G_k agree as binary relations exactly when their sign
functions agree on G_{2k}, because differences of box points fill the doubled
box.  Two preorders are therefore compared on a box only by scanning its
shells in order and stopping at the first shell with a sign mismatch
(_first_disagreement): distance reads its level off that mismatch, and a
perturbation candidate is accepted only when there is none.  Fingerprints,
the whole sign table of one box, serve only callers who want the table.  A
box larger than MAX_BOX_POINTS is refused with RangeError before it is
scanned.

A scan never visits points one by one.  The lex-positive half of a shell is
split into O(n^2) disjoint products of coordinate ranges (_shell_products),
and stored once, product after product, as n integer coordinate columns in
the box G_k (_shell_columns, the products' only reader, cached per (n, k) in a
bounded LRU cache); a fingerprint reads the half box G_k as n products, split
the same way by the first nonzero coordinate, and caches nothing.  Each
preorder gets one sign table per row per region (Preorder.sign_table) from the
row's integer enclosure, summed over the region one coordinate column at a
time and tested against one radius, k sum_i rads_i >= sum_i rads_i |u_i| on
G_k (Moore, Kearfott and Cloud, Introduction to Interval Analysis, 2009); only
the points within it go to the exact sign.  Two preorders are compared shell
by shell as plain integer lists, and a witness search builds the centre's
table of each shell once for all its candidates.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import Isolated, RangeError, TrivialPreorder, WitnessNotFound
from .linalg import Axes, Columns, FieldVector, RationalSubspace, reject
from .preorder import _SIGNS, Preorder, Sign, append, from_rows, row_of
from .realfield import check_level, integer_point, sequence

# A box scan (fingerprint, distance, and the perturbation searches) refuses
# with RangeError a box G_k whose (2k+1)^n points exceed MAX_BOX_POINTS,
# instead of running for minutes or hours.  Every shell a scan reads lies in
# an admitted box, so the shell column cache holds at most MAX_BOX_POINTS/2
# points per ambient dimension.
MAX_BOX_POINTS = 100_000
# A fragment search refuses with RangeError, before it starts, c candidates
# whose row steps up to depth min(max_rank, n) could exceed MAX_FRAGMENT_EXTENDS:
# a rank-k node comes from k distinct candidates, so at most c(c-1)...(c-k+1)
# rank-k nodes each take a step with at most c candidate residues.  This is an
# upper bound on the search's row_of calls, which skip redundant and repeated
# residues.
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


def half_box(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Lex-positive representatives of G_k \\ {0}, shell by shell; signs at -u follow by negation."""
    for level in range(1, k + 1):
        yield from half_shell(n, level)


def half_shell(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Lex-positive points with max-norm exactly k, in lexicographic order: the
    points of the shell columns, sorted."""
    yield from sorted(zip(*_shell_columns(n, k).cols))


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


@functools.lru_cache(maxsize=256)  # bounded: at n = 1 a scan may reach level MAX_BOX_POINTS/2
def _shell_columns(n: int, k: int) -> Columns:
    """The points of _shell_products(n, k), product after product, as coordinate columns."""
    return Columns.of(itertools.chain.from_iterable(
        itertools.product(*axes) for axes in _shell_products(n, k)), n, k)


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
        u = integer_point(u, self.n, "coordinate of a box point")
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
        check_level(level, "restriction level", 0, self.level)
        kept = {u: s for u, s in self.signs.items() if max(abs(x) for x in u) <= level}
        return Fingerprint(self.n, level, kept)

    def to_json(self) -> dict:
        entries = [{"u": list(u), "s": s.symbol} for u, s in sorted(self.signs.items())]
        return {"level": self.level, "signs": entries}


def fingerprint(p: Preorder, k: int) -> Fingerprint:
    """The sign of every stored representative of G_k, in one table over the half
    box as n products 0^z x (1..k) x (-k..k)^(n-z-1), split by z as shells are."""
    check_level(k, "fingerprint level", 0)
    _check_box(p.n, k)
    points = list(itertools.chain.from_iterable(itertools.product(
        *[(0,)] * z, range(1, k + 1), *[range(-k, k + 1)] * (p.n - z - 1)) for z in range(p.n)))
    signs = map(_SIGNS.__getitem__, p.sign_table(Columns.of(points, p.n, k)))
    return Fingerprint(p.n, k, dict(zip(points, signs)))


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
        return Fraction(0) if self.kind == "zero" else Fraction(1, self.m)

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
    p.check_peer(q)
    check_level(m_max, "m_max", 1)
    _check_box(p.n, 2 * m_max)
    if p.equals(q):
        return Distance.zero()
    level = _first_disagreement(functools.partial(_shell_table, p), q, 2 * m_max)
    if level is None:
        return Distance.at_most(m_max + 1)
    return Distance.exact((level + 1) // 2)


def first_disagreement_level(p: Preorder, q: Preorder, level_max: int) -> int | None:
    """Smallest box level with a sign mismatch, or None up to level_max.

    FieldMismatch or DimensionMismatch unless p and q are peers, and
    RangeError for a level_max that is not an int >= 0 or whose box
    G_level_max exceeds MAX_BOX_POINTS.
    """
    p.check_peer(q)
    check_level(level_max, "level_max", 0)
    _check_box(p.n, level_max)
    return _first_disagreement(functools.partial(_shell_table, p), q, level_max)


def _shell_table(p: Preorder, level: int) -> list[int]:
    """p's signs on the lex-positive half of shell level, in one table."""
    return p.sign_table(_shell_columns(p.n, level))


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
    w1perp = RationalSubspace(p.n, p.rows[0].int_layers() if p.type_vec[0] > 1 else ())
    zeros = [(0,) * p.n] * (p.field.degree - 1)
    out = [FieldVector.from_int_layers(p.field, [b] + zeros, w1perp.den) for b in w1perp.ints]
    if p.rank >= 2:
        out.append(p.rows[1])
    out += [FieldVector.from_int_layers(p.field, [b] + zeros, -w1perp.den) for b in w1perp.ints]
    return out[:MAX_DIRECTIONS]


def perturb_in_ball(p: Preorder, m: int, want_same_type: bool = False) -> Preorder:
    """A different preorder agreeing with p on the box G_{2m}.

    Searches candidate rows (row_1 + eps z, row_2, ..., row_s) over the
    deterministic direction list with eps = 1/2, 1/4, ...; every candidate is
    verified exactly before being returned: it must agree with p in sign on
    every point of G_{2m} (the box scan stops at the first mismatch), and keep
    p's type when requested.
    """
    check_level(m, "m", 1)
    for cand in _perturbation_candidates(p, m, want_same_type):
        return cand
    raise WitnessNotFound("perturbation search budget exhausted")


def same_type_neighbors(p: Preorder, m: int, count: int) -> list[Preorder]:
    """count pairwise distinct same-type preorders in the 1/(m+1) ball."""
    check_level(count, "count", 1)
    check_level(m, "m", 1)
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
        for e in range(1, MAX_EPS_EXP + 1):  # the step eps z for eps = 1/2^e
            step = FieldVector.from_int_layers(p.field, z.int_layers(), z.den << e)
            cand = from_rows([p.rows[0].add(step)] + list(p.rows[1:]), p.n, field=p.field)
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
    nodes[i].matrix_str(), built by enumerate_fragment from the parent's
    label and the one new row, so each row is printed once.
    """

    nodes: tuple[Preorder, ...]
    edges: tuple[tuple[int, int], ...]
    root: int
    labels: tuple[str, ...]


def _residues(layers: Iterable[Sequence[Sequence[int]]]) -> list[tuple[tuple[int, ...], ...]]:
    """The distinct nonzero ones among residue layers, as integer tuples, in order."""
    return list(dict.fromkeys(tuple(map(tuple, r)) for r in layers if any(map(any, r))))


def enumerate_fragment(candidate_rows: Sequence[FieldVector], n: int, max_rank: int,
                       field=None) -> FragmentGraph:
    """All preorders from ordered tuples of at most max_rank candidate rows.

    Breadth-first by rank, from residues: the root's are the candidates'
    jointly primitive integer layers, and a node's children are the distinct
    rows row_of gives its residues.  A child's residues are its parent's
    rejected off the child's new row alone (reject of reject is reject off
    both bases, exactly), less the zero ones, since a redundant candidate
    stays redundant in every refinement, and less repeats; they are kept only
    for nodes still to be expanded, until they are.  Every truncation of a
    node is a node, so each non-root node has one cover edge, from its
    parent, the truncation to rank - 1.  Equal nodes have equal parents, so a
    node's children are deduplicated by their new rows before each is built
    once; no key() is computed, and a child's label is its parent's plus its
    row.  The candidates are checked once, before any step.
    """
    check_level(max_rank, "max_rank", 0)
    candidate_rows = tuple(sequence(candidate_rows, "rows"))
    if field is None and candidate_rows:
        field = getattr(candidate_rows[0], "field", None)
    root = from_rows([], n, field=field)
    c, depth = len(candidate_rows), min(max_rank, root.n)
    calls, width = 0, 1  # width bounds the size of the rank-k frontier
    for k in range(depth):
        calls += c * width
        if calls > MAX_FRAGMENT_EXTENDS:
            raise RangeError(f"{c} candidates to depth {depth} may take more than "
                             f"MAX_FRAGMENT_EXTENDS = {MAX_FRAGMENT_EXTENDS} extend calls")
        width *= c - k
        if not width:
            break
    for row in candidate_rows:  # each once, in order, whatever the depth
        root.check_row(row)
    # (node, index of its parent, its label less "lex[" and "]" after a ";");
    # the loop reaches the children it appends
    nodes: list[tuple[Preorder, int | None, str]] = [(root, None, "")]
    residues = [_residues(reject(row.int_layers(), ()) for row in candidate_rows)
                if depth else None]
    for i, (p, _, body) in enumerate(nodes):
        if p.rank < depth:  # a rank-n node has no residue left to refine
            groups: dict[FieldVector, list] = {}  # the residues of each new row
            for r in residues[i]:
                groups.setdefault(row_of(p.field, r), []).append(r)
            residues[i] = None
            for row in groups:
                q = append(p, row)
                nodes.append((q, i, f"{body};{row}"))
                # a row's own residues lie in its layers' span and vanish
                residues.append(_residues(reject(r, q.bases[-1]) for other, rs in groups.items()
                                          if other is not row for r in rs)
                                if q.rank < depth else None)
    ranked = sorted((q.rank, f"lex[{body[1:]}]", i) for i, (q, _, body) in enumerate(nodes))
    idx = {i: k for k, (_, _, i) in enumerate(ranked)}
    edges = sorted((idx[up], idx[i]) for i, (_, up, _) in enumerate(nodes) if up is not None)
    return FragmentGraph(tuple(nodes[i][0] for *_, i in ranked), tuple(edges), idx[0],
                         tuple(label for _, label, _ in ranked))


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
