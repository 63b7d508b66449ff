"""Coset graphs over GElt and Permutation elements.

Vertices are right cosets Hg of a subgroup H, identified by their canonical
representative (the minimum of {h*g} under the element type's total order);
Hg and Hag are adjacent.  The builder works on the array form of the
elements (GElt as int64 packed codes, Permutation as image rows) and
explores one BFS level at a time, in the manner of coset enumeration
(Butler, Fundamental Algorithms for Permutation Groups, LNCS 559, 1991).

The numbering is deterministic and equals that of a BFS that probes one
vertex at a time and gives the new cosets of each probed vertex the next
ids in key order.  That BFS registers a coset while probing the first of its
neighbours to be probed, which is its least neighbour on the level above:
probing a vertex of level L finds cosets of levels L-1, L and L+1, and all
of levels up to L are known by then.  So each level's new cosets get ids in
(least parent id, key) order, the order in which the batched BFS assigns
them.

A build makes no element object and no label per vertex.  H is closed,
the cosets are explored and the vertex action is formed on array forms;
the representatives as elements (``CosetGraphBuild.reps``) and the vertex
labels (``Graph.labels``) are made on their first read, and no check reads
either one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from tetrasym.extragrp import GElt
from tetrasym.permgrp import (PermGroup, Permutation, min_rows, mul_rows,
                              row_keys)

__all__ = [
    "Graph", "VertexAction", "GroupIface", "CosetGraphBuild",
    "build_coset_graph", "validate_sabidussi", "validate_corefree",
    "SabidussiReport", "sphere", "edge_list_text", "to_dot", "to_json_obj",
]

class Graph:
    """Finite simple undirected graph as indexed adjacency lists.

    ``labels`` names the vertices, or is None.  It may be given as a
    function of no arguments that returns the names: the function is called
    on the first read of ``labels`` and its tuple kept, which is how coset
    builds label their vertices.  Two graphs are equal when their vertex
    counts, adjacency lists and labels are; a graph is equal to itself
    without a read of its labels.  Graphs are immutable.
    """

    def __init__(self, n: int, adj: tuple, labels=None):
        self.__dict__.update(n=n, adj=adj, _labels=labels)
        # the validation keeps the name it had when Graph was a dataclass;
        # bench/spans.py times it under that name
        self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __post_init__(self):
        # Each check is an array mask over the arcs; the first vertex with an
        # offending arc is checked again one neighbour at a time, which
        # raises the message a vertex-by-vertex check raises first.
        if len(self.adj) != self.n:
            raise ValueError("adjacency length != n")
        n = self.n
        tails, heads = self.arcs
        inside = (heads >= 0) & (heads < n)
        bad = ~inside | (heads == tails)
        bad[1:] |= (tails[1:] == tails[:-1]) & (heads[1:] <= heads[:-1])
        codes = np.sort((tails * n + heads)[inside])
        reverse = heads[inside] * n + tails[inside]
        at = np.minimum(np.searchsorted(codes, reverse), len(codes) - 1)
        bad[inside] |= codes[at] != reverse
        if bad.any():
            self._check_vertex(int(tails[bad.argmax()]))
        if not callable(self._labels):
            self._check_labels(self._labels)

    def _check_labels(self, labels):
        if labels is not None and len(labels) != self.n:
            raise ValueError("labels length != n")

    @property
    def labels(self) -> tuple | None:
        labels = self._labels
        if callable(labels):
            labels = tuple(labels())
            self._check_labels(labels)
            self.__dict__["_labels"] = labels
        return labels

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.adj == other.adj
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.n, self.adj))

    def _check_vertex(self, u: int):
        nbrs = self.adj[u]
        if list(nbrs) != sorted(set(nbrs)):
            raise ValueError("neighbour list of %d not sorted/duplicate-free" % u)
        for v in nbrs:
            if not 0 <= v < self.n:
                raise ValueError("neighbour %d out of range" % v)
            if v == u:
                raise ValueError("loop at vertex %d" % u)
            if u not in self.adj[v]:
                raise ValueError("edge %d-%d not symmetric" % (u, v))

    @cached_property
    def arcs(self) -> tuple:
        """(tails, heads): the arcs u -> v as two int64 arrays, in adjacency
        order, which is (u, v) order."""
        heads = np.fromiter(chain.from_iterable(self.adj), np.int64)
        tails = np.repeat(np.arange(self.n, dtype=np.int64),
                          [len(nbrs) for nbrs in self.adj])
        return tails, heads

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
    (point stabilisers are read off it by conjugation).  ``order_bound``,
    when known, is an upper bound on that group's order; its chain stops as
    soon as it reaches it.
    """

    graph: Graph
    gen_perms: tuple
    order_bound: int | None = None

    def __post_init__(self):
        # a bijection of the vertices is an automorphism exactly when it
        # maps the arc set (u*n + v for each arc u -> v, in the sorted order
        # of the graph's adjacency lists) onto itself
        n = self.graph.n
        tails, heads = self.graph.arcs
        arcs = tails * n + heads
        for p in self.gen_perms:
            if p.degree != n:
                raise ValueError("generator degree != vertex count")
            images = np.array(p.images, dtype=np.int64)
            if not np.array_equal(np.sort(images[tails] * n + images[heads]), arcs):
                raise ValueError("generator is not a graph automorphism")

    @cached_property
    def group(self) -> PermGroup:
        return PermGroup(self.gen_perms, degree=self.graph.n,
                         order_bound=self.order_bound)


class _CodeForm:
    """GElt elements as int64 packed codes, ordered as GElt orders them."""

    def __init__(self, grp):
        self.grp = grp
        self.mul = grp.mul_codes

    @staticmethod
    def pack(elts) -> np.ndarray:
        return np.array([g.code for g in elts], dtype=np.int64)

    def unpack(self, codes: np.ndarray) -> list:
        grp = self.grp
        return [GElt(grp, c) for c in codes.tolist()]

    @staticmethod
    def keys(codes: np.ndarray) -> np.ndarray:
        return codes

    minimum = staticmethod(np.minimum)


class _RowForm:
    """Permutations as unsigned-byte image rows, ordered as Permutation
    orders them."""

    mul = staticmethod(mul_rows)
    keys = staticmethod(row_keys)
    minimum = staticmethod(min_rows)

    def __init__(self, degree: int):
        if degree > 256:
            raise ValueError("coset graphs over permutations of %d points: "
                             "image rows hold at most 256" % degree)

    @staticmethod
    def pack(perms) -> np.ndarray:
        return np.array([p.images for p in perms], dtype=np.uint8)

    @staticmethod
    def unpack(rows: np.ndarray) -> list:
        return [Permutation._unchecked(tuple(r)) for r in rows.tolist()]


@dataclass(frozen=True)
class GroupIface:
    """Capability bundle handed to the coset-graph builder.

    Elements are GElt or Permutation objects.  H is given by its
    ``generators``, and is their closure, so it is a subgroup by
    construction.  ``order`` is |G|.

    The builder works on ``form``, the array form of the elements: GElt as
    int64 packed codes, Permutation as image rows.  ``form`` packs and
    unpacks elements and multiplies, orders and compares array forms.
    ``subgroup_array`` holds the elements of H in array form, in sorted
    order, closed here by one level-synchronous BFS; ``subgroup`` is the
    same elements as objects, unpacked on first read and used by no build
    or check.  ``canon`` maps an array of elements to the array of the
    canonical representatives of their cosets, ``canon(X)[i] == min(h*X[i]
    for h in H)``, in closed form; None takes that minimum over H.

    G itself needs no generators: the builder acts with H's generators and
    a, and its check that all |G|/|H| cosets are reached proves that they
    generate G.
    """

    generators: tuple
    identity: object
    order: int
    label: object = None  # element -> str, used for vertex labels
    canon: object = None  # array form -> array form of min(H*element)
    form: object = field(init=False, repr=False, compare=False)
    subgroup_array: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        form = (_CodeForm(self.identity.group) if isinstance(self.identity, GElt)
                else _RowForm(self.identity.degree))
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "subgroup_array", _closure(
            form, form.pack(self.generators), form.pack([self.identity])))
        if self.order % len(self.subgroup_array):
            raise ValueError("|H| does not divide |G|")

    @cached_property
    def subgroup(self) -> tuple:
        """The sorted elements of H as GElt or Permutation objects."""
        return tuple(self.form.unpack(self.subgroup_array))


def _closure(form, gens: np.ndarray, identity: np.ndarray) -> np.ndarray:
    """The elements of <gens> in array form, sorted: a level-synchronous BFS
    from the identity by right multiplication, one array product per level
    and |<gens>| * |gens| in all."""
    levels = [identity]
    known = form.keys(identity)  # sorted
    while len(levels[-1]) and len(gens):
        frontier = levels[-1]
        products = form.mul(np.repeat(frontier, len(gens), axis=0),
                            gens[np.arange(len(frontier) * len(gens)) % len(gens)])
        keys, first = np.unique(form.keys(products), return_index=True)
        _, old = _find(known, keys)
        levels.append(products[first[~old]])
        known = np.sort(np.concatenate((known, keys[~old])))
    elts = np.concatenate(levels)
    return elts[np.argsort(form.keys(elts))]


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
    helpers.

    The representatives are kept in array form (``_reps``, in vertex order).
    ``reps``, the same representatives as GElt or Permutation objects, and
    the graph's labels, ``iface.label`` of each representative, are made on
    their first read; the build and the checks read neither."""

    def __init__(self, iface: GroupIface, a_elt, reps, index: tuple, adj):
        self.iface = iface
        self.a_elt = a_elt
        self._reps = reps  # array form, in vertex order
        self._index = index
        self._canon = _canon_of(iface)
        labels = None
        if iface.label is not None:
            def labels():
                return tuple(map(iface.label, iface.form.unpack(reps)))
        self.graph = Graph(len(reps), tuple(map(tuple, adj.tolist())), labels)
        # build_coset_graph reached |G|/|H| cosets, so <H, a> has order
        # iface.order, and the action is a homomorphic image of <H, a>
        self.action = VertexAction(
            self.graph, tuple(map(self.perm_of, iface.generators + (a_elt,))),
            order_bound=iface.order)

    @cached_property
    def reps(self) -> tuple:
        """The canonical coset representatives as elements, in vertex order."""
        return tuple(self.iface.form.unpack(self._reps))

    def _vertices(self, elts: np.ndarray) -> np.ndarray:
        """The vertices holding the cosets H*x of an array of elements."""
        return _lookup(self._index, self.iface.form.keys(self._canon(elts)))

    def vertices_of(self, elts) -> list:
        """The vertices holding the cosets H*x of a sequence of elements:
        one array canonicalisation and lookup for the whole sequence."""
        return self._vertices(self.iface.form.pack(elts)).tolist()

    def vertex_of(self, elt) -> int:
        """The vertex holding the coset H*elt."""
        return self.vertices_of([elt])[0]

    def sabidussi(self) -> SabidussiReport:
        """validate_sabidussi of this build's triple.  The build reached all
        |G|/|H| cosets (it raises otherwise), so <H, a> = G is known and the
        coset space is not explored again."""
        return _sabidussi_report(self.iface, self.a_elt, connected=True)

    def perm_of(self, elt) -> Permutation:
        """The vertex permutation induced by right multiplication with elt:
        one product, canonicalisation and lookup over all representatives."""
        form = self.iface.form
        images = self._vertices(form.mul(self._reps, form.pack([elt])[0]))
        return Permutation._unchecked(tuple(images.tolist()))


def _find(known: np.ndarray, keys: np.ndarray) -> tuple:
    """(pos, found): where each key is, or would be, in the sorted keys
    ``known``, clipped to the last one, and whether it is there."""
    pos = np.minimum(np.searchsorted(known, keys), len(known) - 1)
    return pos, known[pos] == keys


def _lookup(index: tuple, keys: np.ndarray) -> np.ndarray:
    """The vertices of coset keys, by binary search in ``index`` = (sorted
    keys of the known cosets, their vertices)."""
    known, vids = index
    pos, found = _find(known, keys)
    if not found.all():
        raise ValueError("element does not belong to any registered coset")
    return vids[pos]


def _canon_of(iface: GroupIface):
    """X -> min(H*X) on array forms: the family's closed form, else the
    minimum over H, one product per element of H."""
    if iface.canon is not None:
        return iface.canon
    form, subgroup = iface.form, iface.subgroup_array

    def canon(xs: np.ndarray) -> np.ndarray:
        best = form.mul(subgroup[0], xs)
        for h in subgroup[1:]:
            best = form.minimum(best, form.mul(h, xs))
        return best
    return canon


def _arc_transversal(iface: GroupIface, a_elt) -> tuple:
    """(keys, hs): the sorted keys of the cosets H*a*h and, for each, the
    least h giving it, one h per class of the arc stabiliser in H.  The
    probes a*h*g fall into the same coset for h, h' exactly when h*h'^-1
    lies in a^-1 H a, so the split does not depend on g and its length is
    the valency |HaH|/|H|.  The union of these cosets is HaH: x lies in HaH
    exactly when the key of canon(x) is one of the keys."""
    form, subgroup = iface.form, iface.subgroup_array
    a_hs = _canon_of(iface)(form.mul(form.pack([a_elt])[0], subgroup))
    keys, first = np.unique(form.keys(a_hs), return_index=True)
    return keys, subgroup[first]


def _explore(iface: GroupIface, a_elt, require_valency: int | None):
    """Deterministic coset BFS shared by the builder and the validator.

    One BFS level at a time: each frontier vertex Hr is probed once per
    arc-stabiliser class, at a*h*r, all probes of the level as one array
    product and one canonicalisation, and their keys are looked up by
    binary search in the sorted keys of the known cosets.  New vertices get
    ids in (least parent id, key) order (see the module docstring).
    Returns (reps, (sorted keys, their vertices), adj): the array form of
    the representatives and an (n, valency) array of sorted neighbour ids.
    With require_valency=None the exploration tolerates any neighbour count
    (used for validation).  It explores whatever it is given: the families
    decide what may be built.
    """
    form, canon = iface.form, _canon_of(iface)
    _, hs = _arc_transversal(iface, a_elt)
    steps = form.mul(form.pack([a_elt])[0], hs)  # a*h, one per class
    frontier = canon(form.pack([iface.identity]))
    known, vids = form.keys(frontier), np.zeros(1, dtype=np.int64)
    reps, adj = [frontier], []
    first_vid, n = 0, 1
    while len(frontier):
        probes = np.stack([form.mul(s, frontier) for s in steps], axis=1)
        probes = canon(probes.reshape((-1,) + probes.shape[2:]))
        keys = form.keys(probes)
        pos, old = _find(known, keys)
        nbrs = np.where(old, vids[pos], 0)
        fresh = np.flatnonzero(~old)
        new_keys, first, inverse = np.unique(keys[fresh], return_index=True,
                                             return_inverse=True)
        order = np.argsort(fresh[first] // len(steps), kind="stable")
        new_vids = np.empty(len(order), dtype=np.int64)
        new_vids[order] = np.arange(n, n + len(order))
        nbrs[fresh] = new_vids[inverse]
        rows = np.sort(nbrs.reshape(len(frontier), len(steps)), axis=1)
        if require_valency is not None:
            valency = 1 + (np.diff(rows, axis=1) != 0).sum(axis=1)
            bad = np.flatnonzero(valency != require_valency)
            if len(bad):
                raise ValueError("neighbour count %d != %d at vertex %d: "
                                 "bad (G, H, a) triple" % (
                                     valency[bad[0]], require_valency,
                                     first_vid + bad[0]))
        adj.append(rows)
        at = np.searchsorted(known, new_keys)
        known, vids = np.insert(known, at, new_keys), np.insert(vids, at, new_vids)
        frontier = probes[fresh[first[order]]]
        reps.append(frontier)
        first_vid, n = n, n + len(order)
    return np.concatenate(reps), (known, vids), np.concatenate(adj)


# bench/spans.py wraps this name on every benchmark run; it stays an alias
# until the benchmark stops looking it up.
_explore_compact = _explore


def build_coset_graph(iface: GroupIface, a_elt) -> CosetGraphBuild:
    """Construct the coset graph of (G, H, a) and the generators' action.

    Raises if any vertex ends up with a neighbour count other than 4 or if
    the explored vertex count differs from |G|/|H| (either one signals a bad
    triple, or an ``iface.canon`` that is not constant on cosets)."""
    reps, index, adj = _explore(iface, a_elt, 4)
    n_expected = iface.order // len(iface.subgroup_array)
    if len(reps) != n_expected:
        raise ValueError("reached %d cosets but |G|/|H| = %d: <H, a> is a "
                         "proper subgroup, or canon is not constant on cosets"
                         % (len(reps), n_expected))
    return CosetGraphBuild(iface, a_elt, reps, index, adj)


def _sabidussi_report(iface: GroupIface, a_elt, connected: bool) -> SabidussiReport:
    keys, _ = _arc_transversal(iface, a_elt)
    form = iface.form
    a_inv = form.keys(_canon_of(iface)(form.pack([a_elt.inverse()])))
    return SabidussiReport(connected=connected,
                           symmetric=bool(np.isin(a_inv, keys)[0]),
                           valency=len(keys))


def validate_sabidussi(iface: GroupIface, a_elt) -> SabidussiReport:
    """Check the three coset-graph hypotheses: <H,a> = G (via the explored
    vertex count), a^(-1) in HaH, and |HaH|/|H| = 4.  For a triple that has
    been built, CosetGraphBuild.sabidussi gives the same report without
    exploring again."""
    reps, _, _ = _explore(iface, a_elt, None)
    connected = len(reps) == iface.order // len(iface.subgroup_array)
    return _sabidussi_report(iface, a_elt, connected)


def validate_corefree(build: CosetGraphBuild) -> bool:
    """True iff no non-identity element of H fixes every coset, i.e. the
    action of G on the cosets of H is faithful.  One array product per
    vertex, over the elements of H that fix every vertex seen so far."""
    form = build.iface.form
    live = build.iface.subgroup_array
    for v, rep in enumerate(build._reps):
        live = live[build._vertices(form.mul(rep, live)) == v]
        if len(live) == 1:  # only the identity is left
            return True
    return False


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
