"""Coset graphs over any group-element interface.

Vertices are right cosets Hg of a subgroup H, identified by their canonical
representative (the minimum of {h*g} under the element type's total order);
Hg and Hag are adjacent.  The builder BFS is deterministic: fresh vertex ids
are assigned in (parent id, canonical representative) order, so vertex
numbering is bit-for-bit reproducible across runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

from tetrasym.permgrp import PermGroup, Permutation

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
            "(raise the TETRASYM_MAX_VERTICES environment variable, or pass "
            "max_vertices= from Python)" % (what, n, guard))


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
        """The isomorphic copy with vertex v renamed perm(v), each label
        moving with its vertex.  Public: callers relabel a graph with it to
        check that an isomorphism-invariant computation ignores numbering."""
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
    """A group's designated generators realized as automorphisms of a graph.

    ``group`` is the permutation group they generate, made on first use and
    then kept, so every check on this action shares one stabiliser chain
    (point stabilisers are read off it by conjugation).
    """

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

    @cached_property
    def group(self) -> PermGroup:
        return PermGroup(self.gen_perms, degree=self.graph.n)


@dataclass(frozen=True)
class GroupIface:
    """Capability bundle handed to the coset-graph builder.

    Elements must support *, .inverse(), ==, hash and <.  H is given by its
    ``generators``; ``subgroup`` is their closure, computed here in sorted
    order, so H is a subgroup by construction.  ``order`` is |G|.
    ``canon`` maps x to the canonical representative of its coset,
    ``canon(x) == min(h*x for h in H)``, in closed form; None takes that
    minimum over H.

    G itself needs no generators: the builder acts with H's generators and
    a, and its check that all |G|/|H| cosets are reached proves that they
    generate G.
    """

    generators: tuple
    identity: object
    order: int
    label: object = None  # element -> str, used for vertex labels
    canon: object = None  # element -> min(H*element)
    subgroup: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "subgroup",
                           _closure(self.generators, self.identity))
        if self.order % len(self.subgroup):
            raise ValueError("|H| does not divide |G|")


def _closure(gens: tuple, identity) -> tuple:
    """The sorted elements of <gens>: a BFS from the identity by right
    multiplication, |<gens>| * |gens| products."""
    seen = {identity}
    queue = [identity]
    for h in queue:
        for s in gens:
            hs = h * s
            if hs not in seen:
                seen.add(hs)
                queue.append(hs)
    return tuple(sorted(seen))


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
    """Result of build_coset_graph: the graph, the vertex action of H's
    generators and a, canonical coset representatives and coset-lookup
    helpers."""

    def __init__(self, graph: Graph, reps: tuple, iface: GroupIface, a_elt,
                 vid_of: dict):
        self.graph = graph
        self.reps = reps
        self.iface = iface
        self.a_elt = a_elt
        self._vid_of = vid_of
        self._canon = _canon_of(iface)
        self.action = VertexAction(
            graph, tuple(map(self.perm_of, iface.generators + (a_elt,))))

    def vertex_of(self, elt) -> int:
        """The vertex holding the coset H*elt."""
        vid = self._vid_of.get(self._canon(elt))
        if vid is None:
            raise ValueError("element does not belong to any registered coset")
        return vid

    def sabidussi(self) -> SabidussiReport:
        """validate_sabidussi of this build's triple.  The build reached all
        |G|/|H| cosets (it raises otherwise), so <H, a> = G is known and the
        coset space is not explored again."""
        return _sabidussi_report(self.iface, self.a_elt, connected=True)

    def perm_of(self, elt) -> Permutation:
        """The vertex permutation induced by right multiplication with elt."""
        return Permutation._unchecked(
            tuple(self.vertex_of(rep * elt) for rep in self.reps))


def _canon_of(iface: GroupIface):
    """x -> min(H*x): the family's closed form, else the minimum over H."""
    subgroup = iface.subgroup
    return iface.canon or (lambda x: min(h * x for h in subgroup))


def _arc_transversal(iface: GroupIface, a_elt) -> dict:
    """canon(a*h) -> h, one h per class of the arc stabiliser in H: the
    probes a*h*g fall into the same coset for h, h' exactly when h*h'^-1
    lies in a^-1 H a, so the split does not depend on g and its length is
    the valency |HaH|/|H|.  The keys are the cosets H*a*h, whose union is
    HaH: x lies in HaH exactly when canon(x) is a key."""
    canon = _canon_of(iface)
    arcs: dict = {}
    for h in iface.subgroup:
        arcs.setdefault(canon(a_elt * h), h)
    return arcs


def _explore(iface: GroupIface, a_elt, require_valency: int | None,
             max_vertices: int | None):
    """Deterministic coset BFS shared by the builder and the validator.

    Each vertex Hr is probed once per arc-stabiliser class, at a*h*r, and a
    probe is one canonicalisation plus one lookup in a map from canonical
    representative to vertex (one entry per coset).  New vertices get ids in
    (parent id, canonical representative) order.  Returns (reps, vid_of,
    adjacency lists).  With require_valency=None the exploration tolerates
    any neighbour count (used for validation).
    """
    check_vertex_guard("coset space", iface.order // len(iface.subgroup),
                       max_vertices)
    canon = _canon_of(iface)
    hreps = _arc_transversal(iface, a_elt).values()

    reps: list = [canon(iface.identity)]
    vid_of: dict = {reps[0]: 0}
    adj: list = []
    for v, r in enumerate(reps):
        hits: list = []
        staged: set = set()
        for h in hreps:
            rep = canon(a_elt * (h * r))
            vid = vid_of.get(rep)
            if vid is None:
                staged.add(rep)
            else:
                hits.append(vid)
        for rep in sorted(staged):
            vid_of[rep] = len(reps)
            hits.append(len(reps))
            reps.append(rep)
        nbrs = sorted(set(hits))
        if require_valency is not None and len(nbrs) != require_valency:
            raise ValueError("neighbour count %d != %d at vertex %d: "
                             "bad (G, H, a) triple" % (len(nbrs), require_valency, v))
        adj.append(tuple(nbrs))
    return reps, vid_of, adj


# bench/spans.py wraps this name on every benchmark run; it stays an alias
# until the benchmark stops looking it up.
_explore_compact = _explore


def build_coset_graph(iface: GroupIface, a_elt, *,
                      max_vertices: int | None = None) -> CosetGraphBuild:
    """Construct the coset graph of (G, H, a) and the generators' action.

    Raises if any vertex ends up with a neighbour count other than 4 or if
    the explored vertex count differs from |G|/|H| (either one signals a bad
    triple, or an ``iface.canon`` that is not constant on cosets)."""
    reps, vid_of, adj = _explore(iface, a_elt, 4, max_vertices)
    n_expected = iface.order // len(iface.subgroup)
    if len(reps) != n_expected:
        raise ValueError("reached %d cosets but |G|/|H| = %d: <H, a> is a "
                         "proper subgroup, or canon is not constant on cosets"
                         % (len(reps), n_expected))
    labels = None
    if iface.label is not None:
        labels = tuple(iface.label(r) for r in reps)
    graph = Graph(len(reps), tuple(adj), labels)
    return CosetGraphBuild(graph, tuple(reps), iface, a_elt, vid_of)


def _sabidussi_report(iface: GroupIface, a_elt, connected: bool) -> SabidussiReport:
    arcs = _arc_transversal(iface, a_elt)
    symmetric = _canon_of(iface)(a_elt.inverse()) in arcs
    return SabidussiReport(connected=connected, symmetric=symmetric,
                           valency=len(arcs))


def validate_sabidussi(iface: GroupIface, a_elt,
                       max_vertices: int | None = None) -> SabidussiReport:
    """Check the three coset-graph hypotheses: <H,a> = G (via the explored
    vertex count), a^(-1) in HaH, and |HaH|/|H| = 4.  For a triple that has
    been built, CosetGraphBuild.sabidussi gives the same report without
    exploring again."""
    reps, _, _ = _explore(iface, a_elt, None, max_vertices)
    connected = len(reps) == iface.order // len(iface.subgroup)
    return _sabidussi_report(iface, a_elt, connected)


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
