"""Coset graphs over any group-element interface.

Vertices are right cosets Hg of a subgroup H, identified by their canonical
representative (the minimum of {h*g} under the element type's total order);
Hg and Hag are adjacent.  The builder BFS is deterministic: fresh vertex ids
are assigned in (parent id, canonical representative) order, so vertex
numbering is bit-for-bit reproducible across runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from tetrasym.permgrp import Permutation

__all__ = [
    "Graph", "VertexAction", "GroupIface", "CosetGraphBuild",
    "build_coset_graph", "validate_sabidussi", "validate_corefree",
    "SabidussiReport", "sphere", "max_vertex_guard", "check_vertex_guard",
    "edge_list_text", "to_dot", "to_json_obj",
]

def max_vertex_guard() -> int:
    """Global vertex-count guard; override with TETRASYM_MAX_VERTICES."""
    return int(os.environ.get("TETRASYM_MAX_VERTICES", 100_000))


def check_vertex_guard(what: str, n: int, max_vertices: int | None = None) -> None:
    """Raise if a graph of n vertices exceeds max_vertices, or the global
    guard when max_vertices is None."""
    guard = max_vertices if max_vertices is not None else max_vertex_guard()
    if n > guard:
        raise ValueError(
            "%s has %d vertices, above the size guard %d "
            "(raise TETRASYM_MAX_VERTICES or pass max_vertices)" % (what, n, guard))


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph as indexed adjacency lists."""

    n: int
    adj: tuple
    labels: tuple | None = None

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ValueError("adjacency length != n")
        for u, nbrs in enumerate(self.adj):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError("neighbour list of %d not sorted/duplicate-free" % u)
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise ValueError("neighbour %d out of range" % v)
                if v == u:
                    raise ValueError("loop at vertex %d" % u)
                if u not in self.adj[v]:
                    raise ValueError("edge %d-%d not symmetric" % (u, v))
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length != n")

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError("loop at vertex %d" % u)
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs),
                   tuple(labels) if labels is not None else None)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_regular(self, d: int) -> bool:
        return all(len(nbrs) == d for nbrs in self.adj)

    def edges(self) -> list:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def relabelled(self, perm: Permutation) -> "Graph":
        """The isomorphic copy with vertex v renamed perm(v)."""
        if perm.degree != self.n:
            raise ValueError("degree mismatch")
        new_adj = [None] * self.n
        for u in range(self.n):
            new_adj[perm(u)] = tuple(sorted(perm(v) for v in self.adj[u]))
        labels = None
        if self.labels is not None:
            lab = [None] * self.n
            for u in range(self.n):
                lab[perm(u)] = self.labels[u]
            labels = tuple(lab)
        return Graph(self.n, tuple(new_adj), labels)


@dataclass(frozen=True)
class VertexAction:
    """A group's designated generators realized as automorphisms of a graph."""

    graph: Graph
    gen_perms: tuple

    def __post_init__(self):
        nbr_sets = [set(nbrs) for nbrs in self.graph.adj]
        for p in self.gen_perms:
            if p.degree != self.graph.n:
                raise ValueError("generator degree != vertex count")
            for u in range(self.graph.n):
                pu = p(u)
                for v in self.graph.adj[u]:
                    if p(v) not in nbr_sets[pu]:
                        raise ValueError("generator is not a graph automorphism")


@dataclass(frozen=True)
class GroupIface:
    """Capability bundle handed to the coset-graph builder.

    Elements must support *, .inverse(), ==, hash and <.  ``subgroup`` is the
    full element list of H (closure is checked here, once); ``order`` is |G|.
    """

    generators: tuple
    subgroup: tuple
    identity: object
    order: int
    label: object = None  # element -> str, used for vertex labels

    def __post_init__(self):
        hset = set(self.subgroup)
        if len(hset) != len(self.subgroup):
            raise ValueError("subgroup list has duplicates")
        if self.identity not in hset:
            raise ValueError("subgroup must contain the identity")
        for h1 in self.subgroup:
            for h2 in self.subgroup:
                if h1 * h2 not in hset:
                    raise ValueError("subgroup is not closed under multiplication")
        if self.order % len(self.subgroup):
            raise ValueError("|H| does not divide |G|")


@dataclass(frozen=True)
class SabidussiReport:
    """Outcome of the three coset-graph hypotheses for a triple (G, H, a)."""

    connected: bool
    symmetric: bool
    valency: int

    @property
    def tetravalent(self) -> bool:
        return self.valency == 4

    @property
    def ok(self) -> bool:
        return self.connected and self.symmetric and self.tetravalent


class CosetGraphBuild:
    """Result of build_coset_graph: the graph, the generators' vertex action,
    canonical coset representatives and coset-lookup helpers."""

    def __init__(self, graph: Graph, action: VertexAction, reps: tuple,
                 iface: GroupIface, a_elt, lookup):
        self.graph = graph
        self.action = action
        self.reps = reps
        self.iface = iface
        self.a_elt = a_elt
        self._lookup = lookup

    def vertex_of(self, elt) -> int:
        """The vertex holding the coset H*elt."""
        vid = self._lookup(elt)
        if vid is None:
            raise ValueError("element does not belong to any registered coset")
        return vid

    def perm_of(self, elt) -> Permutation:
        """The vertex permutation induced by right multiplication with elt."""
        return Permutation._unchecked(
            tuple(self.vertex_of(rep * elt) for rep in self.reps))


# Above this many group elements the explorer keeps one representative per
# coset instead of a map from every element, and the builder makes no vertex
# action: gamma t=10 (84M elements) stays dense, delta m=3 (12! = 479M) not.
_ELEMENT_MAP_MAX = 10 ** 8


def _canon(subgroup, x):
    """The canonical representative of the coset H*x."""
    return min(h * x for h in subgroup)


def _arc_transversal(iface: GroupIface, a_elt) -> list:
    """One h per class of the arc stabiliser in H: the probes a*h*g fall into
    the same coset for h, h' exactly when h*h'^-1 lies in a^-1 H a, so the
    split does not depend on g and its length is the valency |HaH|/|H|."""
    hreps, seen = [], set()
    for h in iface.subgroup:
        key = _canon(iface.subgroup, a_elt * h)
        if key not in seen:
            seen.add(key)
            hreps.append(h)
    return hreps


def _explore(iface: GroupIface, a_elt, require_valency: int | None,
             max_vertices: int | None):
    """Deterministic coset BFS shared by the builder and the validator.

    Each vertex Hr is probed once per arc-stabiliser class, at a*h*r.  Up to
    _ELEMENT_MAP_MAX group elements every member of a registered coset is a
    key of the vertex map, so a probe into a known coset is one lookup;
    above it only the representatives are, and a probe costs |H|
    multiplications.  Returns (reps, lookup, adjacency lists), where
    lookup(elt) is the vertex of H*elt or None.  With require_valency=None
    the exploration tolerates any neighbour count (used for validation).
    """
    subgroup = iface.subgroup
    check_vertex_guard("coset space", iface.order // len(subgroup), max_vertices)
    dense = iface.order <= _ELEMENT_MAP_MAX
    hreps = _arc_transversal(iface, a_elt)

    vid_of: dict = {}
    reps: list = []

    def register(rep, coset) -> int:
        vid = len(reps)
        reps.append(rep)
        keys = coset if dense else (rep,)
        size = len(vid_of)
        vid_of.update(dict.fromkeys(keys, vid))
        if len(vid_of) != size + len(keys):
            raise ValueError("canonicalization collision: broken element "
                             "equality/hash or non-coset overlap")
        return vid

    register(min(subgroup), subgroup)
    adj: list = []
    v = 0
    while v < len(reps):
        r = reps[v]
        hits: list = []
        staged: dict = {}
        for h in hreps:
            y = a_elt * (h * r)
            vid = vid_of.get(y)
            if vid is None:
                coset = [k * y for k in subgroup]
                rep = min(coset)
                vid = vid_of.get(rep)
                if vid is None:
                    staged[rep] = coset
                    continue
            hits.append(vid)
        hits += [register(rep, staged[rep]) for rep in sorted(staged)]
        nbrs = sorted(set(hits))
        if require_valency is not None and len(nbrs) != require_valency:
            raise ValueError("neighbour count %d != %d at vertex %d: "
                             "bad (G, H, a) triple" % (len(nbrs), require_valency, v))
        adj.append(tuple(nbrs))
        v += 1

    if dense:
        lookup = vid_of.get
    else:
        def lookup(elt):
            return vid_of.get(_canon(subgroup, elt))
    return reps, lookup, adj


# bench/spans.py wraps this name on every benchmark run; it stays an alias
# until the benchmark stops looking it up.
_explore_compact = _explore


def build_coset_graph(iface: GroupIface, a_elt, *,
                      max_vertices: int | None = None) -> CosetGraphBuild:
    """Construct the coset graph of (G, H, a) and the generators' action.

    Raises if any vertex ends up with a neighbour count other than 4 or if
    the explored vertex count differs from |G|/|H| (either one signals a bad
    triple).  Above _ELEMENT_MAP_MAX group elements the build keeps one
    representative per coset and has no vertex action (``action`` is None);
    the vertex numbering is the same in both modes."""
    reps, lookup, adj = _explore(iface, a_elt, 4, max_vertices)
    n_expected = iface.order // len(iface.subgroup)
    if len(reps) != n_expected:
        raise ValueError("reached %d cosets but |G|/|H| = %d: <H, a> is a "
                         "proper subgroup" % (len(reps), n_expected))
    labels = None
    if iface.label is not None:
        labels = tuple(iface.label(r) for r in reps)
    graph = Graph(len(reps), tuple(adj), labels)
    reps_t = tuple(reps)

    action = None
    if iface.order <= _ELEMENT_MAP_MAX:
        action = VertexAction(graph, tuple(
            Permutation._unchecked(tuple(lookup(rep * g) for rep in reps_t))
            for g in iface.generators))
    return CosetGraphBuild(graph, action, reps_t, iface, a_elt, lookup)


def validate_sabidussi(iface: GroupIface, a_elt,
                       max_vertices: int | None = None) -> SabidussiReport:
    """Check the three coset-graph hypotheses: <H,a> = G (via the explored
    vertex count), a^(-1) in HaH, and |HaH|/|H| = 4."""
    subgroup = iface.subgroup
    a_inv = a_elt.inverse()
    symmetric = any(h1 * a_elt * h2 == a_inv
                    for h1 in subgroup for h2 in subgroup)
    valency = len(_arc_transversal(iface, a_elt))
    reps, _, _ = _explore(iface, a_elt, None, max_vertices)
    connected = len(reps) == iface.order // len(subgroup)
    return SabidussiReport(connected=connected, symmetric=symmetric, valency=valency)


def validate_corefree(build: CosetGraphBuild) -> bool:
    """True iff no non-identity element of H fixes every coset, i.e. the
    action of G on the cosets of H is faithful."""
    for h in build.iface.subgroup:
        if h == build.iface.identity:
            continue
        if all(build.vertex_of(rep * h) == v
               for v, rep in enumerate(build.reps)):
            return False
    return True


def sphere(g: Graph, v: int, i: int) -> set:
    """The set of vertices at distance exactly i from v (BFS)."""
    if i < 0:
        raise ValueError("negative radius")
    dist = {v: 0}
    frontier = [v]
    d = 0
    while frontier and d < i:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = d + 1
                    nxt.append(w)
        frontier = nxt
        d += 1
    return set(frontier) if d == i else set()


# ---------------------------------------------------------------------------
# Graph export formats
# ---------------------------------------------------------------------------

def edge_list_text(g: Graph) -> str:
    """One "u v" line per edge, u < v, sorted."""
    return "".join("%d %d\n" % e for e in g.edges())


def to_dot(g: Graph, name: str = "g") -> str:
    lines = ["graph %s {" % name]
    if g.labels is not None:
        for v in range(g.n):
            lines.append('  %d [label="%s"];' % (v, g.labels[v]))
    for u, v in g.edges():
        lines.append("  %d -- %d;" % (u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_obj(g: Graph) -> dict:
    obj = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return obj


def graph_from_json_obj(obj: dict) -> Graph:
    return Graph.from_edges(obj["n"], obj["edges"], obj.get("labels"))
