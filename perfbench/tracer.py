"""Span tracing of the package from outside, by patching its public callables.

Nothing in the package changes: `Tracer.install` replaces selected functions
and methods with wrappers that record a span (name, start, end, parent span,
request id) and `uninstall` puts the originals back.  A function imported
with `from .x import y` is bound in every module that imported it, so each
module attribute that *is* the original object is patched, and methods are
patched on their class.  Box enumerators and the witness candidate generator
are generators, whose bodies run interleaved with their consumer; they are
counted, not timed.

Only calls made inside a root opened by `Tracer.root` are recorded, so the
benchmark's own oracle and preparation calls into the package stay out of
the per-layer numbers.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.  Spans are kept in flat arrays and written out once, at the
end of the run.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module, attribute) or (module, class, attribute) targets
SPANS = {
    "realfield.sign": [("realfield", "NumberField", "sign_of_coeffs")],
    "realfield.refine": [("realfield", "NumberField", "_refine")],
    "realfield.mul": [("realfield", "FieldElement", "__mul__")],
    "realfield.inverse": [("realfield", "FieldElement", "inverse")],
    "realfield.field_init": [("realfield", "NumberField", "__init__")],
    "linalg.rref": [("linalg", "rref")],
    "linalg.nullspace": [("linalg", "nullspace_basis")],
    "linalg.kernel": [("linalg", "rational_kernel")],
    "linalg.intersect": [("linalg", "RationalSubspace", "intersect")],
    "linalg.project": [("linalg", "project")],
    "linalg.dot": [("linalg", "FieldVector", "dot")],
    "preorder.from_rows": [("preorder", "from_rows")],
    "preorder.sign_of": [("preorder", "Preorder", "sign_of")],
    "lattice.refines": [("lattice", "refines")],
    "lattice.compose_decompose": [("lattice", "compose"), ("lattice", "decompose")],
    "lattice.meet": [("lattice", "meet")],
    "topology.distance": [("topology", "distance")],
    "topology.fingerprint": [("topology", "fingerprint")],
    "topology.witness": [("topology", "perturb_in_ball"), ("topology", "same_type_neighbors")],
    "topology.fragment": [("topology", "enumerate_fragment")],
    "action.apply": [("action", "apply")],
    "action.orbit_witness": [("action", "orbit_witness")],
    "valuation.valuate": [("valuation", "valuate")],
}

# counter name -> generator function whose yields are counted
YIELD_COUNTERS = {
    "topology.box_points": [("topology", "half_shell"), ("topology", "half_box")],
    "topology.witness.accepted": [("topology", "_perturbation_candidates")],
}

PACKAGE = "preorderspace"
SPAN_LOG_LIMIT = 500_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # flat span log: name id, start, end, parent index, request id
        self.log_name = array("i")
        self.log_start = array("d")
        self.log_end = array("d")
        self.log_parent = array("i")
        self.log_request = array("i")
        self.dropped = 0
        self.request_id = 0
        self.active = False
        self._stack: list[list] = []  # [log index, name id, child seconds]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.counters: Counter = Counter()
        self.fragment_nodes = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is not None:
                self.edges[parent[1], nid] += 1
            if len(self.log_name) < SPAN_LOG_LIMIT:
                idx = len(self.log_name)
                self.log_name.append(nid)
                self.log_parent.append(parent[0] if parent is not None else -1)
                self.log_request.append(self.request_id)
                self.log_end.append(0.0)
                self.log_start.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, nid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = end - start
                if stack:
                    stack[-1][2] += span
                self.calls[nid] += 1
                self.self_s[nid] += span - frame[2]
                if idx >= 0:
                    self.log_start[idx] = start
                    self.log_end[idx] = end

        return traced

    def root(self, fn, name: str):
        """`fn` as the root span of a new request; tracing is on only inside it."""
        traced = self.wrap(fn, name)

        def request(*args, **kwargs):
            self.request_id += 1
            self.active = True
            try:
                return traced(*args, **kwargs)
            finally:
                self.active = False

        return request

    def _count_yields(self, gen_fn, name: str):
        counters = self.counters

        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                if self.active:
                    counters[name] += 1
                yield item

        return counted

    # -- patching -------------------------------------------------------------

    def _modules(self):
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def _replace(self, original, replacement) -> None:
        """Rebind every module attribute and class attribute that is `original`."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement)
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._patched.append((value, cattr, cvalue))
                            setattr(value, cattr, replacement)

    def _lookup(self, target):
        obj = sys.modules[f"{PACKAGE}.{target[0]}"]
        for part in target[1:]:
            obj = getattr(obj, part)
        return obj

    def install(self) -> None:
        for name, targets in SPANS.items():
            for target in targets:
                original = self._lookup(target)
                self._replace(original, self.wrap(original, name))
        for name, targets in YIELD_COUNTERS.items():
            for target in targets:
                original = self._lookup(target)
                self._replace(original, self._count_yields(original, name))
        enumerate_fragment = self._lookup(("topology", "enumerate_fragment"))

        def count_nodes(*args, **kwargs):
            graph = enumerate_fragment(*args, **kwargs)
            if self.active:
                self.fragment_nodes += len(graph.nodes)
            return graph

        self._replace(enumerate_fragment, count_nodes)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def self_of(self, name: str) -> float:
        return self.self_s[self._ids[name]] if name in self._ids else 0.0

    def edge(self, parent: str, child: str) -> int:
        if parent not in self._ids or child not in self._ids:
            return 0
        return self.edges[self._ids[parent], self._ids[child]]

    def write(self, path) -> None:
        """Span log as gzipped TSV: name, start, end, parent index, request id."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(f"# spans={len(self.log_name)} dropped={self.dropped}\n")
            fh.write("name\tstart\tend\tparent\trequest\n")
            names = self.names
            for i in range(len(self.log_name)):
                fh.write(f"{names[self.log_name[i]]}\t{self.log_start[i]:.9f}\t"
                         f"{self.log_end[i]:.9f}\t{self.log_parent[i]}\t{self.log_request[i]}\n")
