"""The four benchmark workloads: request streams, requests and oracles.

A workload turns a seed into an endless, deterministic stream of plain-data
request specs (ints, Fractions, field names).  Each spec is `prepare`d
untimed (scan canonicalizes its pairs here), answered by `call` under the
timer, and judged by `check` after the timer stops.  Specs follow a fixed
cycle of slots, each slot a request shape with its size drawn from a narrow
range, so every run sees the same mix of cheap and expensive requests and
only the numbers change with the seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import preorderspace as ps
from preorderspace import checks

import clock
import exact
from exact import FIELDS, Q, degree

NOT_FOUND = (ps.Isolated, ps.WitnessNotFound)
ALGEBRAIC = ("Q(sqrt2)", "Q(cbrt2)", "Q(2^1/4)")


@dataclass
class Verdict:
    """Oracle outcome: problems found, canonical answer bytes, typed not-found."""

    problems: list
    record: bytes
    not_found: bool = False


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False).encode()


def _plain_rows(p) -> list:
    """Canonical rows of a preorder as plain coefficient tuples."""
    return [tuple(e.coeffs for e in r.entries) for r in p.rows]


class Workload:
    name = ""
    field_names: tuple = ()
    slots: tuple = ()
    probe = clock.FRACTION  # brackets each timed request (clock.py)

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.fields = {f: ps.NumberField(*FIELDS[f]) for f in self.field_names}

    def stream(self, tag: str = "run"):
        rng = random.Random(f"{self.name}:{self.seed}:{tag}")
        for i in itertools.count():
            yield self.make(rng, self.slots[i % len(self.slots)], i // len(self.slots))

    def vector(self, field: str, row):
        f = self.fields[field]
        return ps.FieldVector(f, tuple(f.element(e) for e in row))

    def make(self, rng, slot, cycle: int):
        raise NotImplementedError

    def prepare(self, spec):
        return spec


# ---------------------------------------------------------------------------
# canon: fresh algebra requests, no topology
# ---------------------------------------------------------------------------

class Canon(Workload):
    name = "canon"
    field_names = ("Q",) + ALGEBRAIC
    # n = 3 twice, so the median request falls inside the n = 3 group
    slots = tuple((f, n) for n in (2, 3, 3, 4, 5) for f in ("Q",) + ALGEBRAIC)

    def make(self, rng, slot, cycle):
        field, n = slot
        d = degree(field)
        rows = [exact.rand_row(rng, d, n) for _ in range(rng.randint(n - 1, n))]
        if rng.random() < 0.3:
            k = rng.randint(1, len(rows))
            weights = [Q(rng.randint(-2, 2)) for _ in range(k)]
            weights[-1] = Q(rng.randint(1, 3))
            rows.insert(k, exact.combine(rows[:k], weights))
        shared = rows[:rng.randint(0, len(rows))]
        q_rows = shared + [exact.rand_row(rng, d, n) for _ in range(rng.randint(0, n - 1))]
        return {
            "kind": f"{field} n={n}", "field": field, "n": n, "rows": rows, "q_rows": q_rows,
            "vectors": [exact.rand_int_vector(rng, n) for _ in range(4)],
            "level": rng.randrange(1 << 16),
            "phi": exact.rand_unimodular(rng, n),
            "rat_rows": [exact.rand_row(rng, 1, n) for _ in range(rng.randint(n - 1, n))],
            "psi": exact.rand_gl(rng, n),
            "laurent": (exact.rand_laurent(rng, n), exact.rand_laurent(rng, n)),
        }

    def call(self, s):
        f, n = self.fields[s["field"]], s["n"]
        p = ps.from_rows([self.vector(s["field"], r) for r in s["rows"]], n, field=f)
        signs = [p.sign_of(u) for u in s["vectors"]]
        q = ps.from_rows([self.vector(s["field"], r) for r in s["q_rows"]], n, field=f)
        low = ps.meet(p, q)
        refines = (ps.refines(low, p), ps.refines(low, q), ps.refines(p, q))
        head, rest, basis = ps.decompose(p, s["level"] % (p.rank + 1))
        back = ps.compose(head, rest, basis)
        applied = ps.apply(ps.Automorphism(s["phi"]), p)
        qf = self.fields["Q"]
        p_rat = ps.from_rows([self.vector("Q", r) for r in s["rat_rows"]], n, field=qf)
        q_rat = ps.apply(ps.Automorphism(s["psi"]), p_rat)
        try:
            witness = ps.orbit_witness(p_rat, q_rat)
        except ps.WitnessNotFound as exc:
            witness = exc
        over_q, over_f5 = s["laurent"]
        values = (
            ps.valuate(p, ps.LaurentPolynomial(ps.CoefficientField.rationals(), n, over_q)),
            ps.valuate(p, ps.LaurentPolynomial(ps.CoefficientField.prime(5), n, over_f5)),
        )
        return p, signs, q, low, refines, back, applied, p_rat, q_rat, witness, values

    def check(self, s, answer, error) -> Verdict:
        p, signs, q, low, refines, back, applied, p_rat, q_rat, witness, values = answer
        f, n = self.fields[s["field"]], s["n"]
        bad = []
        if not ps.from_rows(p.rows, n, field=f).equals(p):
            bad.append("canonical form not idempotent")
        for u, got in zip(s["vectors"], signs):
            if int(got) != exact.lex_sign(s["rows"], u):
                bad.append(f"sign_of{u} differs from lex evaluation of the raw rows")
        if low.rows != p.rows[:low.rank] or low.rows != q.rows[:low.rank]:
            bad.append("meet is not a common truncation")
        expect_pq = p.rank <= q.rank and q.rows[:p.rank] == p.rows
        if refines != (True, True, expect_pq):
            bad.append(f"refines gave {refines}")
        if not back.equals(p):
            bad.append("compose(decompose(p)) != p")
        if (applied.rank, applied.degree, applied.type_vec) != (p.rank, p.degree, p.type_vec):
            bad.append("apply changed rank, degree or type")
        image = [sum(Q(a) * b for a, b in zip(row, s["vectors"][0])) for row in s["phi"]]
        if int(applied.sign_of(s["vectors"][0])) != exact.lex_sign(_plain_rows(p), image):
            bad.append("apply breaks the pullback sign law")
        found = not isinstance(witness, ps.WitnessNotFound)
        if found and not ps.apply(witness, p_rat).equals(q_rat):
            bad.append("orbit witness does not carry p to q")
        rows = _plain_rows(p)
        for poly, value in zip(s["laurent"], values):
            tuples = [tuple(exact.dot(r, g) for r in rows) for g in sorted(poly)]
            best = tuples[0]
            for t in tuples[1:]:
                if exact.lex_compare(t, best) < 0:
                    best = t
            if exact.lex_compare(tuple(e.coeffs for e in value.entries), best) != 0:
                bad.append("valuate is not the minimum over the support")
        record = _json_bytes({
            "p": p.to_json(), "signs": [int(x) for x in signs], "meet": low.to_json(),
            "refines": list(refines), "compose": back.to_json(), "apply": applied.to_json(),
            "witness": witness.to_json() if found else "witness-not-found",
            "values": [v.to_json() for v in values],
        })
        return Verdict(bad, record, not_found=not found)


# ---------------------------------------------------------------------------
# scan: box scans on prebuilt near and far pairs
# ---------------------------------------------------------------------------

def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((-1, 1)) for _ in range(n)]


def _permute(rows, perm_signs):
    perm, signs = perm_signs
    return [tuple(tuple(s * c for c in row[i]) for i, s in zip(perm, signs)) for row in rows]


def _limit_pair(rng, field, n, lo, hi):
    """Row (1, beta, 0, ...), then e_3 when n = 3, against the rank-n lex order.

    This is criterion 02's rank-one sequence converging to a rank-two limit.
    With beta = alpha / K the first sign mismatch lies on box shell
    floor(K / alpha) + 1; K is drawn so that shell is in [lo, hi].  The same
    signed permutation of coordinates, which keeps every box, hits both sides.
    """
    d = degree(field)
    alpha = 2 ** (1 / d)
    k = rng.randint(int((lo - 1) * alpha) + 1, int(hi * alpha))
    level = exact.iroot(k ** d // 2, d) + 1
    zero, one = (Q(0),) * d, (Q(1),) + (Q(0),) * (d - 1)
    beta = (Q(0), Q(1, k)) + (Q(0),) * (d - 2)
    p = [(one, beta) + (zero,) * (n - 2)]
    if n > 2:
        p.append((zero, zero, one) + (zero,) * (n - 3))
    lex = [tuple(one if j == i else zero for j in range(n)) for i in range(n)]
    ps_ = _signed_permutation(rng, n)
    return _permute(p, ps_), _permute(lex, ps_), level


def _approx_pair(rng, field, lo, hi):
    """Slope alpha against a convergent a/b of it with lo <= a <= hi (criterion 03).

    A convergent is a best approximation, so the first sign mismatch lies on
    box shell a, the convergent's numerator.
    """
    d = degree(field)
    a, b = rng.choice([c for c in exact.convergents(d, hi) if c[0] >= lo])
    one = (Q(1),) + (Q(0),) * (d - 1)
    slope = (Q(0), Q(1)) + (Q(0),) * (d - 2)
    approx = (Q(a, b),) + (Q(0),) * (d - 1)
    ps_ = _signed_permutation(rng, 2)
    return _permute([(one, slope)], ps_), _permute([(one, approx)], ps_), a


def _irrational_centre(rng, field):
    d = degree(field)
    c = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    row = ((Q(1),) + (Q(0),) * (d - 1), (Q(0), c) + (Q(0),) * (d - 2))
    return _permute([row], _signed_permutation(rng, 2))


class Scan(Workload):
    name = "scan"
    field_names = ("Q",) + ALGEBRAIC
    # Cost groups: 4 cheap, 2 short witness searches, 6 medium requests of
    # fixed size (about 50 ms) and 4 heavy scans (about 100 ms), so p50 falls
    # inside the medium group and p90 inside the heavy one; algebraic fields
    # rotate per cycle
    slots = (
        ("distance", "far", 2, 24),
        ("distance", "far", 3, 3),
        ("isolated",),
        ("distance", "equal", 3, 4),
        ("witness", 2),
        ("neighbors", 2),
        ("fingerprint", 2, 14),
        ("fingerprint", 3, 4),
        ("distance", "limit", 2, 24, 12, 13),
        ("fingerprint", 2, 14),
        ("fingerprint", 3, 4),
        ("distance", "limit", 2, 24, 12, 13),
        ("distance", "limit", 3, 2, 5, 7),
        ("distance", "limit", 2, 12, 16, 17),
        ("distance", "limit", 2, 8, 17, 24),
        ("distance", "approx", 2, 8, 17, 45),
    )

    def make(self, rng, slot, cycle):
        kind = slot[0]
        field = ALGEBRAIC[cycle % len(ALGEBRAIC)]
        spec = {"kind": kind, "field": field, "expect": None}
        if kind == "distance":
            family, n, m_max = slot[1:4]
            spec.update(kind=f"distance/{family}", n=n, m_max=m_max)
            if family == "far":
                spec["field"] = field = rng.choice(("Q", "Q(sqrt2)"))
                d = degree(field)
                spec["p"] = [exact.rand_row(rng, d, n) for _ in range(rng.randint(1, n))]
                spec["q"] = [exact.rand_row(rng, d, n) for _ in range(rng.randint(1, n))]
            elif family == "limit":
                spec["p"], spec["q"], spec["expect"] = _limit_pair(rng, field, n, *slot[4:])
            elif family == "approx":
                spec["p"], spec["q"], spec["expect"] = _approx_pair(rng, field, *slot[4:])
            else:  # equal: a rescaled row plus a redundant one
                d = degree(field)
                rows = [exact.rand_row(rng, d, n) for _ in range(2)]
                spec["p"] = rows
                spec["q"] = [exact.combine(rows[:1], [Q(rng.randint(1, 4))]), rows[0],
                             rows[1], exact.combine(rows, [Q(1), Q(-1)])]
        elif kind == "fingerprint":
            n, level = slot[1:]
            spec.update(n=n, level=level)
            spec["p"] = _limit_pair(rng, field, n, 4, 8)[0] if rng.random() < 0.5 else \
                [exact.rand_row(rng, degree(field), n) for _ in range(n)]
        elif kind in ("witness", "neighbors"):
            spec.update(n=2, p=_irrational_centre(rng, field), m=slot[1],
                        same_type=rng.random() < 0.5, count=2)
        else:  # isolated: a rational rank-one row leaves degree n - 1
            n = rng.choice((2, 3))
            spec["field"] = field = rng.choice(("Q", "Q(sqrt2)"))
            row = [rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(n - 1)]
            spec.update(n=n, p=_permute([exact.rational(*row, d=degree(field))],
                                        _signed_permutation(rng, n)), m=rng.randint(1, 4))
        return spec

    def _preorder(self, s, rows):
        return ps.from_rows([self.vector(s["field"], r) for r in rows], s["n"],
                            field=self.fields[s["field"]])

    def prepare(self, spec):
        prepared = dict(spec)
        prepared["P"] = self._preorder(spec, spec["p"])
        if "q" in spec:
            prepared["Q"] = self._preorder(spec, spec["q"])
        return prepared

    def call(self, s):
        kind = s["kind"]
        if kind.startswith("distance"):
            return ps.distance(s["P"], s["Q"], s["m_max"])
        if kind == "fingerprint":
            return ps.fingerprint(s["P"], s["level"])
        if kind == "neighbors":
            return ps.same_type_neighbors(s["P"], s["m"], s["count"])
        return ps.perturb_in_ball(s["P"], s["m"], want_same_type=s.get("same_type", False))

    def check(self, s, answer, error) -> Verdict:
        kind, p = s["kind"], s["P"]
        if kind == "isolated":
            ok = isinstance(error, ps.Isolated) and p.degree >= p.n - 1
            return Verdict([] if ok else [f"isolated centre gave {answer or error!r}"],
                           b"isolated", not_found=True)
        if error is not None:
            ok = isinstance(error, ps.WitnessNotFound) and kind in ("witness", "neighbors")
            return Verdict([] if ok else [f"{kind} raised {error!r}"],
                           b"witness-not-found", not_found=True)
        if kind.startswith("distance"):
            return Verdict(self._check_distance(s, answer), str(answer).encode())
        if kind == "fingerprint":
            bad = []
            n, level = s["n"], s["level"]
            if answer.level != level or len(answer.signs) != ((2 * level + 1) ** n - 1) // 2:
                bad.append("fingerprint does not cover the half box")
            for u, sgn in answer.signs.items():
                if int(sgn) != exact.lex_sign(s["p"], u):
                    bad.append(f"fingerprint sign at {u} differs from lex evaluation")
                    break
            return Verdict(bad, _json_bytes(answer.to_json()))
        witnesses = answer if kind == "neighbors" else [answer]
        bad = []
        reference = ps.fingerprint(p, 2 * s["m"])
        for i, w in enumerate(witnesses):
            if w.equals(p) or any(w.equals(v) for v in witnesses[:i]):
                bad.append("witness repeats the centre or another witness")
            if ps.fingerprint(w, 2 * s["m"]) != reference:
                bad.append("witness fingerprint differs from the centre's")
            if (kind == "neighbors" or s["same_type"]) and w.type_vec != p.type_vec:
                bad.append("witness changed type")
        if kind == "neighbors" and len(witnesses) != s["count"]:
            bad.append("wrong neighbor count")
        return Verdict(bad, _json_bytes([w.to_json() for w in witnesses]))

    @staticmethod
    def _check_distance(s, d) -> list:
        p, q, m_max = s["P"], s["Q"], s["m_max"]
        bad = []
        if ps.distance(q, p, m_max) != d:
            bad.append("distance not symmetric")
        if (d.kind == "zero") != p.equals(q):
            bad.append("zero distance does not match equality")
        if d.kind == "exact":
            top = ps.fingerprint(p, 2 * d.m), ps.fingerprint(q, 2 * d.m)
            if top[0] == top[1]:
                bad.append(f"{d} but fingerprints agree on G_{2 * d.m}")
            if top[0].restrict(2 * d.m - 2) != top[1].restrict(2 * d.m - 2):
                bad.append(f"{d} but fingerprints differ on G_{2 * d.m - 2}")
        elif d.kind == "at_most":
            if d.m != m_max + 1 or ps.fingerprint(p, 2 * m_max) != ps.fingerprint(q, 2 * m_max):
                bad.append(f"{d} but fingerprints differ on G_{2 * m_max}")
        if s["expect"] is not None:
            m = (s["expect"] + 1) // 2
            want = f"1/{m}" if m <= m_max else f"≤1/{m_max + 1}"
            if str(d) != want:
                bad.append(f"distance {d}, expected {want}")
        return bad


# ---------------------------------------------------------------------------
# fragment: refinement-tree fragments from shared-prefix candidate sets
# ---------------------------------------------------------------------------

class Fragment(Workload):
    name = "fragment"
    field_names = ("Q", "Q(sqrt2)")
    # (n, candidates, max_rank); the four slowest shapes cost about the same,
    # so p90 falls inside that group
    slots = tuple((f, n, c, r) for n, c, r in ((2, 4, 2), (2, 6, 2), (2, 8, 2), (2, 4, 3),
                                               (2, 5, 3), (3, 4, 2), (3, 6, 2), (3, 8, 2))
                  for f in ("Q", "Q(sqrt2)"))

    def make(self, rng, slot, cycle):
        field, n, count, max_rank = slot
        # dense, nonzero candidates keep a slot's cost from swinging with the seed
        rows = []
        while len(rows) < count:
            row = exact.rand_row(rng, degree(field), n, sparsity=0.1)
            if any(any(e) for e in row):
                rows.append(row)
        return {"kind": f"{count} rows rank {max_rank}", "field": field, "n": n,
                "rows": rows, "max_rank": max_rank}

    def call(self, s):
        cands = [self.vector(s["field"], r) for r in s["rows"]]
        graph = ps.enumerate_fragment(cands, s["n"], s["max_rank"], field=self.fields[s["field"]])
        return graph, ps.to_dot(graph)

    def check(self, s, answer, error) -> Verdict:
        graph, dot = answer
        nodes, bad = graph.nodes, []
        keys = {p.key() for p in nodes}
        if not nodes[graph.root].is_trivial():
            bad.append("root is not the trivial preorder")
        for i, j in graph.edges:
            if nodes[j].rank != nodes[i].rank + 1 or not ps.refines(nodes[i], nodes[j]):
                bad.append(f"edge n{i} -> n{j} is not a rank-one refinement step")
        for p in nodes:
            if p.rank > s["max_rank"]:
                bad.append("node above max_rank")
            if p.rank and ps.truncate(p, p.rank - 1).key() not in keys:
                bad.append("node set not closed under truncation")
        if ps.to_dot(graph) != dot:
            bad.append("to_dot is not byte-identical on a repeat")
        return Verdict(bad, dot.encode())


# ---------------------------------------------------------------------------
# cli: one `python -m preorderspace` process per request
# ---------------------------------------------------------------------------

SUBCOMMANDS = ("canon", "compare", "meet", "refines", "distance", "witness", "fragment",
               "act", "valuate", "check")
SUITES = ("axioms", "lattice", "metric", "action", "valuation")


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _entry_json(entry):
    return str(entry[0]) if len(entry) == 1 else [str(c) for c in entry]


def _preorder_json(n, rows):
    return {"n": n, "rows": [[_entry_json(e) for e in r] for r in rows]}


class Cli(Workload):
    name = "cli"
    field_names = ("Q", "Q(sqrt2)")
    slots = SUBCOMMANDS
    probe = clock.PROCESS

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.env = child_env(os.path.join(root, "src"))

    def make(self, rng, sub, cycle):
        # odd cycles run in Q(sqrt2) through --field
        field = "Q(sqrt2)" if cycle % 2 else "Q"
        d = degree(field)
        n = rng.choice((2, 3))
        rows = [exact.rand_row(rng, d, n) for _ in range(rng.randint(1, n))]
        spec = {"kind": sub, "field": field, "n": n, "rows": rows, "args": []}
        if sub in ("meet", "refines"):
            spec["q"] = rows[:rng.randint(0, len(rows))] + \
                [exact.rand_row(rng, d, n) for _ in range(rng.randint(0, 1))]
        elif sub == "compare":
            spec["u"], spec["v"] = exact.rand_int_vector(rng, n), exact.rand_int_vector(rng, n)
        elif sub == "distance":
            spec["n"] = 2
            if d > 1 and rng.random() < 0.5:
                spec["rows"], spec["q"], _ = _limit_pair(rng, field, 2, 2, 9)
            else:
                spec["rows"] = [exact.rand_row(rng, d, 2) for _ in range(rng.randint(1, 2))]
                spec["q"] = [exact.rand_row(rng, d, 2) for _ in range(rng.randint(1, 2))]
            spec["m_max"] = 4
            spec["args"] = ["--m-max", "4"]
        elif sub == "witness":
            if d > 1:
                spec["n"], spec["rows"] = 2, _irrational_centre(rng, field)
            else:  # two independent rational rows in Q^3 leave degree 1
                spec["n"], spec["rows"] = 3, [exact.rational(1, 0, 0), exact.rational(0, 1, 0)]
                spec["rows"] = _permute([exact.combine(spec["rows"], [Q(1), Q(rng.randint(-3, 3))]),
                                         spec["rows"][1]], _signed_permutation(rng, 3))
            spec["m"], spec["count"] = 1, rng.choice((1, 2))
            spec["same_type"] = spec["count"] > 1 or rng.random() < 0.5
            spec["args"] = ["--m", "1", "--count", str(spec["count"])] + \
                (["--same-type"] if spec["same_type"] else [])
        elif sub == "fragment":
            spec["n"] = 2
            spec["rows"] = [exact.rand_row(rng, d, 2) for _ in range(3)]
            spec["args"] = ["--max-rank", "2"]
        elif sub == "act":
            spec["phi"] = exact.rand_unimodular(rng, n)
        elif sub == "valuate":
            spec["laurent"] = exact.rand_laurent(rng, n)
            spec["cf"] = rng.choice(("Q", "F_5"))
        elif sub == "check":
            spec["suite"] = SUITES[cycle % len(SUITES)]
            spec["args"] = [spec["suite"], "--cases", "2", "--seed", str(rng.randrange(1000))]
        return spec

    def prepare(self, s):
        n = s["n"]
        p = _preorder_json(n, s["rows"])
        sub = s["kind"]
        if sub in ("canon", "witness"):
            payload = p
        elif sub in ("meet", "refines", "distance"):
            payload = {"p": p, "q": _preorder_json(n, s["q"])}
        elif sub == "compare":
            payload = {"p": p, "u": list(s["u"]), "v": list(s["v"])}
        elif sub == "fragment":
            payload = {"n": n, "candidates": [[_entry_json(e) for e in r] for r in s["rows"]]}
        elif sub == "act":
            payload = {"phi": {"matrix": [[str(x) for x in r] for r in s["phi"]]}, "p": p}
        elif sub == "valuate":
            terms = [{"e": list(e), "c": str(c)} for e, c in sorted(s["laurent"].items())]
            payload = {"p": p, "f": {"n": n, "field": s["cf"], "terms": terms}}
        else:
            payload = {}
        args = [sub] + s["args"]
        if s["field"] != "Q":
            args += ["--field", json.dumps(exact.field_json(s["field"]))]
        prepared = dict(s)
        prepared["argv"] = [sys.executable, "-m", "preorderspace"] + args
        prepared["stdin"] = json.dumps(payload).encode() if payload else b""
        return prepared

    def call(self, s):
        proc = subprocess.run(s["argv"], input=s["stdin"], capture_output=True,
                              env=self.env, cwd=self.root, timeout=120)
        return proc.returncode, proc.stdout

    def expected(self, s) -> tuple[int, str]:
        """The same request answered in-process by the library."""
        sub, n, fname = s["kind"], s["n"], s["field"]
        f = self.fields[fname]

        def pre(rows):
            return ps.from_rows([self.vector(fname, r) for r in rows], n, field=f)

        if sub == "check":
            report = checks.run_suite(s["suite"], int(s["args"][-1]), 2)
            return (0 if report["passed"] else 4), _dump(report)
        if sub == "fragment":
            cands = [self.vector(fname, r) for r in s["rows"]]
            return 0, ps.to_dot(ps.enumerate_fragment(cands, n, 2, field=f))
        p = pre(s["rows"])
        if sub == "canon":
            return 0, _dump(p.to_json())
        if sub == "compare":
            sign = p.compare(s["u"], s["v"])
            return 0, _dump({"result": {-1: "<", 0: "~", 1: ">"}[int(sign)]})
        if sub == "meet":
            return 0, _dump(ps.meet(p, pre(s["q"])).to_json())
        if sub == "refines":
            return 0, _dump({"refines": ps.refines(p, pre(s["q"]))})
        if sub == "distance":
            return 0, _dump({"distance": str(ps.distance(p, pre(s["q"]), s["m_max"]))})
        if sub == "witness":
            try:
                if s["count"] == 1:
                    return 0, _dump(ps.perturb_in_ball(p, s["m"], s["same_type"]).to_json())
                found = ps.same_type_neighbors(p, s["m"], s["count"])
                return 0, _dump({"neighbors": [w.to_json() for w in found]})
            except NOT_FOUND as exc:
                name = "isolated" if isinstance(exc, ps.Isolated) else "witness-not-found"
                return 3, _dump({"error": name, "detail": str(exc)})
        if sub == "act":
            return 0, _dump(ps.apply(ps.Automorphism(s["phi"]), p).to_json())
        cf = ps.CoefficientField.from_name(s["cf"])
        return 0, _dump({"value": ps.valuate(p, ps.LaurentPolynomial(cf, n, s["laurent"]))
                         .to_json()})

    def check(self, s, answer, error) -> Verdict:
        code, out = answer
        want_code, want = self.expected(s)
        bad = []
        if out != want.encode():
            bad.append(f"{s['kind']}: stdout differs from the in-process answer")
        if code != want_code:
            bad.append(f"{s['kind']}: exit {code}, want {want_code}")
        if code not in (0, 3):
            bad.append(f"{s['kind']}: nonzero exit {code}")
        return Verdict(bad, str(code).encode() + b"\n" + out, not_found=code == 3)


WORKLOADS = {"canon": Canon, "scan": Scan, "fragment": Fragment, "cli": Cli}
