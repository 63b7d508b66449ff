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

A build makes no element object, no label and no tuple per vertex.  H is
closed, the cosets are explored, the graph is validated and the vertex
action is formed and checked on arrays: permutations of at most 16 points
are keyed by one int64 each (see ``_RowForm``), the graph keeps the BFS's
neighbour array, and the action one int32 image array per generator, all
made by one product, one canonicalisation and one key pass.  The vertex
labels (``Graph.labels``) and neighbour tuples (``Graph.adj``) are made on
their first read.

A vertex map, whether an automorphism, a relabelling or a quotient map, is
an int image array; a Permutation given in its place is read through
``np.asarray``.  ``_carries`` is the one test that a map sends each
neighbourhood onto the neighbourhood of the image.

``_levels`` is the one BFS over a graph's padded rows, one level at a time:
``sphere`` reads a level's vertices, and girth (``graphalg``) reads the
levels of each level's arcs.  The explorer's own BFS levels serve
bipartiteness: it numbers the vertices level by level from vertex 0, so the
sizes of its levels give every vertex's distance from vertex 0.  A build
hands the sizes to its graph (``Graph._take_levels``), and
``graphalg.is_bipartite`` reads them instead of running ``_levels``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import index

import numpy as np

from tetrasym.extragrp import GElt
from tetrasym.permgrp import (PermGroup, Permutation, _bijection, min_rows,
                              mul_rows, row_keys)

__all__ = [
    "Graph", "VertexAction", "GroupIface", "CosetGraphBuild",
    "build_coset_graph", "validate_corefree",
    "SabidussiReport", "sphere", "edge_list_text", "to_dot", "to_json_obj",
]

# Rows per pass of _in_chunks and of the graph and action checks: few
# enough for a chunk's intermediate arrays to stay in cache, which took
# delta:m=3's 7.5M-row passes to about two thirds of their time and peak
# memory
_CHUNK = 1 << 14


def _in_chunks(fn, xs: np.ndarray) -> np.ndarray:
    """fn(xs) for a row-wise fn, computed _CHUNK rows at a time, so that a
    chain of array operations over millions of rows runs in cache."""
    if len(xs) <= _CHUNK:
        return fn(xs)
    # fn gives the same number of rows per input row, so the first chunk's
    # result sizes the one output that every chunk is written into
    part = fn(xs[:_CHUNK])
    per_row = len(part) // _CHUNK
    out = np.empty((per_row * len(xs),) + part.shape[1:], dtype=part.dtype)
    out[:len(part)] = part
    for i in range(_CHUNK, len(xs), _CHUNK):
        out[i * per_row:(i + _CHUNK) * per_row] = fn(xs[i:i + _CHUNK])
    return out


def _row_tuples(adj) -> tuple:
    """The rows of an adjacency given as a sequence of sequences, as tuples;
    ValueError names the adjacency, or its first row, that is not one."""
    if not np.iterable(adj):
        raise ValueError("adjacency %r is not a sequence of rows" % (adj,))
    rows = tuple(adj)
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        for u, row in enumerate(rows):
            if not np.iterable(row):
                raise ValueError("row %d of the adjacency is not a sequence: %r"
                                 % (u, row)) from None
        raise


class Graph:
    """Finite simple undirected graph on the vertices 0..n-1.

    The adjacency is given as a tuple of neighbour tuples, or as an (n, d)
    integer array whose row u holds u's d neighbours (a d-regular graph, as
    the coset builder makes it).  Either way it is validated and kept as
    ``rows``, an (n, maximum degree) int64 array: row u holds u's neighbours
    in increasing order, padded on the right with n.  ``adj``, the neighbour
    tuples, is the given adjacency as tuples (not the caller's lists), or
    is made from ``rows`` on its first read; the checks read ``rows``, and
    the exports read ``edges()``.

    ``labels`` names the vertices, or is None.  It may be given as a
    function of no arguments that returns the names: the function is called
    on the first read of ``labels`` and its tuple kept, which is how coset
    builds label their vertices.  Two graphs are equal when their vertex
    counts, adjacency lists and labels are; a graph is equal to itself
    without a read of its labels.  Graphs are immutable.

    ``_level_sizes`` is None, or the sizes of the BFS levels from vertex 0
    of a graph whose vertices are numbered level by level, as a coset build
    numbers them and hands them over (``_take_levels``).  Equality and the
    hash ignore it.
    """

    def __init__(self, n: int, adj, labels=None):
        given = ({"rows": adj} if isinstance(adj, np.ndarray)
                 else {"adj": _row_tuples(adj)})
        self.__dict__.update(given, n=n, _labels=labels, _level_sizes=None)
        # the validation keeps the name it had when Graph was a dataclass;
        # bench/spans.py times it under that name
        self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __post_init__(self):
        # Each check is an array mask over the rows (symmetry is one gather
        # and compare per column), in chunks of vertices; the first vertex
        # with an offending entry is checked again one neighbour at a time,
        # which raises the message a vertex-by-vertex check raises first.
        n = self.n
        if "adj" in self.__dict__:
            adj = self.adj
            if len(adj) != n:
                raise ValueError("adjacency length != n")
            degree = np.fromiter(map(len, adj), np.int64, n)
            rows = np.full((n, int(degree.max(initial=0))), n, np.int64)
            real = np.arange(rows.shape[1]) < degree[:, None]
            try:
                rows[real] = np.fromiter(map(index, chain.from_iterable(adj)),
                                         np.int64, int(degree.sum()))
            except (TypeError, OverflowError):
                ids = list(chain.from_iterable(adj))
                bad = [v for v in ids if not hasattr(v, "__index__")]
                if bad:
                    raise ValueError("neighbour %s not an integer" % bad[0]) from None
                # ids beyond int64, clipped to -1 or n, fail the range check
                rows[real] = [min(max(index(v), -1), n) for v in ids]
        else:
            adj = rows = self.rows
            if rows.ndim != 2 or len(rows) != n:
                raise ValueError("adjacency length != n")
            if rows.size and rows.dtype.kind not in "iu":
                raise ValueError("neighbour %s not an integer" % rows[0, 0])
            real = np.broadcast_to(True, rows.shape)
        for start in range(0, n, _CHUNK):
            part, entry = rows[start:start + _CHUNK], real[start:start + _CHUNK]
            us = np.arange(start, start + len(part))[:, None]
            inside = (part >= 0) & (part < n)
            bad = entry & (~inside | (part == us))
            bad[:, 1:] |= entry[:, 1:] & (part[:, 1:] <= part[:, :-1])
            at = np.where(inside, part, 0)
            for j in range(rows.shape[1]):
                bad[:, j] |= entry[:, j] & ~(rows[at[:, j]] == us).any(axis=1)
            if bad.any():
                self._check_vertex(start + int(bad.any(axis=1).argmax()), adj)
        rows = rows.astype(np.int64, copy=False).view()
        rows.flags.writeable = False
        self.__dict__["rows"] = rows
        if not callable(self._labels):
            self._check_labels(self._labels)

    def _take_levels(self, sizes: tuple):
        """Take the vertices as numbered level by level in a BFS from vertex
        0, level d holding ``sizes[d]`` of them, which the caller has proved
        (a coset build's explorer numbers them so)."""
        if sum(sizes) != self.n:
            raise ValueError("level sizes sum to %d, not n = %d" % (sum(sizes), self.n))
        self.__dict__["_level_sizes"] = tuple(sizes)

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
        return (self.n == other.n and np.array_equal(self.rows, other.rows)
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.n, self.rows.tobytes()))

    def _check_vertex(self, u: int, adj):
        nbrs = [int(v) for v in adj[u]]
        if nbrs != sorted(set(nbrs)):
            raise ValueError("neighbour list of %d not sorted/duplicate-free" % u)
        for v in nbrs:
            if not 0 <= v < self.n:
                raise ValueError("neighbour %d out of range" % v)
            if v == u:
                raise ValueError("loop at vertex %d" % u)
            if u not in adj[v]:
                raise ValueError("edge %d-%d not symmetric" % (u, v))

    @cached_property
    def adj(self) -> tuple:
        """The neighbour tuples.  Made from ``rows`` only for a graph given
        as an array, whose rows have no padding."""
        return tuple(map(tuple, self.rows.tolist()))

    @cached_property
    def degrees(self) -> np.ndarray:
        """The degree of each vertex, as an int64 array."""
        return np.count_nonzero(self.rows < self.n, axis=1)

    @cached_property
    def arcs(self) -> tuple:
        """(tails, heads): the arcs u -> v as two int64 arrays, in adjacency
        order, which is (u, v) order."""
        rows = self.rows
        heads = rows[rows < self.n]
        tails = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return tails, heads

    def neighbours(self, u: int) -> list:
        """The neighbours of u, in increasing order."""
        if not 0 <= u < self.n:
            raise ValueError("vertex %d out of range" % u)
        row = self.rows[u]
        return row[row < self.n].tolist()

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            for end in (u, v):
                if not hasattr(end, "__index__"):
                    raise ValueError("neighbour %s not an integer" % end)
                if not 0 <= end < n:
                    raise ValueError("neighbour %d out of range" % end)
            if u == v:
                raise ValueError("loop at vertex %d" % u)
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs),
                   tuple(labels) if labels is not None else None)

    def is_regular(self, d: int) -> bool:
        return bool((self.degrees == d).all())

    def edges(self) -> list:
        """The edges (u, v), u < v, in (u, v) order."""
        tails, heads = self.arcs
        keep = tails < heads
        return list(zip(tails[keep].tolist(), heads[keep].tolist()))

    @property
    def num_edges(self) -> int:
        return int(self.degrees.sum()) // 2

    def relabelled(self, perm) -> "Graph":
        """The isomorphic copy with vertex v renamed perm[v], each label
        moving with its vertex; perm is an int image array or a
        Permutation.  Public: callers relabel a graph with it to check that
        an isomorphism-invariant computation ignores numbering."""
        n = self.n
        images = _bijection(perm, n)
        # row images[u] holds the images of row u, sorted; the pad n stays
        rows = np.empty_like(self.rows)
        rows[images] = np.sort(np.append(images, n)[self.rows], axis=1)
        adj = tuple(tuple(v for v in row if v < n) for row in rows.tolist())
        labels = self.labels
        if labels is not None:
            labels = tuple(labels[u] for u in np.argsort(images).tolist())
        return Graph(n, adj, labels)


class VertexAction:
    """A group's designated generators realized as automorphisms of a graph.

    The generators are given as int image arrays (or Permutation objects)
    and kept as int32 arrays, ``images``.  ``group`` is the permutation
    group they generate, which checks that each is a bijection of the
    vertices; every check on this action shares its one stabiliser chain
    (the stabiliser of vertex 0, its first base point, shares the chain's
    lower levels).  ``order_bound``, when known, is an upper bound on that
    group's order; its chain stops as soon as it reaches it.  The action of
    a coset build has its group take the build's proof that it is
    transitive, so its orbits are never labelled and its chain's first
    level grows its orbit only when read.  Actions are immutable.
    """

    def __init__(self, graph: Graph, gens, order_bound: int | None = None):
        self.__dict__.update(graph=graph, images=tuple(gens), order_bound=order_bound)
        # named as when VertexAction was a dataclass; bench/spans.py times it
        self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError("VertexAction is immutable")

    def __post_init__(self):
        # a map of the vertices is an automorphism exactly when it is a
        # bijection that carries each neighbourhood onto the neighbourhood
        # of the image
        rows = self.graph.rows
        group = PermGroup(self.images, self.graph.n, self.order_bound)
        for g in group.arrays():
            if not _carries(rows, rows, g):
                raise ValueError("generator is not a graph automorphism")
        self.__dict__.update(images=tuple(group.arrays()), group=group)


def _carries(rows1: np.ndarray, rows2: np.ndarray, mapping: np.ndarray) -> bool:
    """True iff the vertex map ``mapping`` (an int image array from graph 1
    to graph 2) carries the neighbours of each vertex u one to one onto the
    neighbours of mapping[u]: sorted, the images of row u of rows1 equal row
    mapping[u] of rows2.  The rows are the graphs' ``Graph.rows``, and graph
    1's pad maps to graph 2's.  A bijection of a graph onto itself that
    passes is an automorphism.  In _CHUNK-row slices, which stay in cache."""
    # int64, the dtype every other sort of neighbour ids uses (a sort's
    # first use per dtype costs memory)
    images = np.append(mapping, len(rows2)).astype(np.int64, copy=False)
    for start in range(0, len(rows1), _CHUNK):
        part = slice(start, start + _CHUNK)
        if not np.array_equal(np.sort(images[rows1[part]], axis=1),
                              rows2[mapping[part]]):
            return False
    return True


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

    def outer(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """The products p*q for each q of qs and, within it, each p of ps."""
        return self.mul(ps[None, :], qs[:, None]).ravel()

    @staticmethod
    def keys(codes: np.ndarray) -> np.ndarray:
        return codes

    minimum = staticmethod(np.minimum)


# 16**(15..0), the weights of the 4-bit images of a 16-point row
_NIBBLES = 16 ** np.arange(15, -1, -1, dtype=np.uint64)
_SIGN = np.int64(-1 << 63)


def _word_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row of at most 8 points, sorting as the rows do:
    its bytes as one big-endian word (a view of an 8-point row, a shorter
    one right-aligned in 8 zero bytes), non-negative as images are below 8."""
    if rows.shape[1] < 8:
        rows = np.pad(rows, ((0, 0), (8 - rows.shape[1], 0)))
    return np.ascontiguousarray(rows).view(">i8").ravel()


def _word_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``min_rows`` of rows of at most 8 points: the smaller word key of
    each pair, read back as its row."""
    least = np.minimum(_word_keys(a), _word_keys(b)).astype(">i8")
    return least.view(np.uint8).reshape(-1, 8)[:, 8 - a.shape[1]:]


def _nibble_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row of 9 to 16 points, sorting as the rows do: the
    row as a base-16 number, first image most significant, made by one
    integer product, ``rows @ 16**(d-1..0)``, which widens each image to 8
    bytes.  A 16-point row fills all 64 bits, so the product is unsigned and
    read as int64 with its sign bit flipped.  (Keys of the same dtype as the
    packed GElt codes share numpy's sorting code with them, whose first use
    costs resident memory.)"""
    return (rows @ _NIBBLES[16 - rows.shape[1]:]).view(np.int64) ^ _SIGN


class _RowForm:
    """Permutations as unsigned-byte image rows, ordered as Permutation
    orders them; the degree picks the int64 keys and the ``minimum`` of
    every canon.  Up to 8 points the row's bytes are its key and pick the
    smaller row; from 9 to 16 points ``_nibble_keys``, with ``min_rows``, as
    choosing by those keys slowed ``delta:m=3`` (31.0 and 32.0 s against
    30.0 and 29.4 s); longer rows, the bytewise void keys of ``row_keys``."""

    mul = staticmethod(mul_rows)

    def __init__(self, degree: int):
        if degree > 256:
            raise ValueError("coset graphs over permutations of %d points: "
                             "image rows hold at most 256" % degree)
        self.keys = (_word_keys if degree <= 8 else
                     _nibble_keys if degree <= 16 else row_keys)
        self.minimum = _word_min if degree <= 8 else min_rows

    @staticmethod
    def pack(perms) -> np.ndarray:
        return np.array([p.images for p in perms], dtype=np.uint8)

    @staticmethod
    def unpack(rows: np.ndarray) -> list:
        return [Permutation._unchecked(tuple(r)) for r in rows.tolist()]

    @staticmethod
    def outer(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """The products p*q for each q of qs and, within it, each p of ps:
        one gather, (p*q)(x) = q(p(x))."""
        return qs[:, ps].reshape(-1, qs.shape[1])


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
        products = form.outer(levels[-1], gens)
        keys = form.keys(products)
        by_key = keys.argsort()
        keys = keys[by_key]
        new = ~_find(known, keys)[1]
        new[1:] &= keys[1:] != keys[:-1]  # each new key once
        levels.append(products[by_key[new]])
        known = np.sort(np.concatenate((known, keys[new])))
    elts = np.concatenate(levels)
    return elts[np.argsort(form.keys(elts))]


@dataclass(frozen=True)
class SabidussiReport:
    """Outcome of the three coset-graph hypotheses for a triple (G, H, a)."""

    connected: bool
    symmetric: bool
    valency: int


class CosetGraphBuild:
    """Result of build_coset_graph: the graph, the vertex action of H's
    generators and a, the canonical coset representatives in array form
    only (``_reps``, in vertex order) and coset-lookup helpers.  The graph's
    labels, ``iface.label`` of each representative, are made on first read.

    The build has reached every coset from H, which proves the action
    transitive; the action's group takes that as given
    (``PermGroup._take_as_transitive``): its orbit labels are all zero and
    its chain's first level is the whole vertex set.  The explorer numbered
    the vertices one BFS level at a time from vertex 0, and the graph takes
    the sizes of those levels (``Graph._take_levels``), from which
    bipartiteness is read."""

    def __init__(self, iface: GroupIface, a_elt, reps, index: tuple, adj,
                 level_sizes: tuple, hah: np.ndarray):
        self.iface = iface
        self.a_elt = a_elt
        self._reps = reps  # array form, in vertex order
        self._index = index
        self._hah = hah  # the sorted keys of the cosets H*a*h
        self._canon = _canon_of(iface)
        labels = None
        if iface.label is not None:
            def labels():
                return tuple(map(iface.label, iface.form.unpack(reps)))
        self.graph = Graph(len(reps), adj, labels)
        self.graph._take_levels(level_sizes)
        # build_coset_graph reached |G|/|H| cosets, so <H, a> has order
        # iface.order, and the action is a homomorphic image of <H, a>; it
        # reached them all from H by right multiplication with H's
        # generators and a, so the action is transitive
        self.action = VertexAction(
            self.graph, self._images(iface.form.pack(iface.generators + (a_elt,))),
            order_bound=iface.order)
        self.action.group._take_as_transitive()

    def vertices_of(self, elts) -> list:
        """The vertices holding the cosets H*x of a sequence of elements:
        one array canonicalisation for the whole sequence, and one binary
        search of its keys in the sorted keys of the known cosets."""
        form, (known, vids) = self.iface.form, self._index
        pos, found = _find(known, form.keys(self._canon(form.pack(elts))))
        if not found.all():
            raise ValueError("element does not belong to any registered coset")
        return vids[pos].tolist()

    def _in_hah(self, elt) -> bool:
        """Whether elt lies in HaH, the union of the cosets H*a*h: one
        canonicalisation and one binary search in their sorted keys."""
        form = self.iface.form
        return bool(_find(self._hah, form.keys(self._canon(form.pack([elt]))))[1][0])

    def sabidussi(self) -> SabidussiReport:
        """The three coset-graph hypotheses of this build's triple: <H, a> =
        G, as the build reached all |G|/|H| cosets (it raises otherwise);
        a^-1 in HaH; and the valency, the number of cosets H*a*h."""
        return SabidussiReport(True, self._in_hah(self.a_elt.inverse()), len(self._hah))

    def _images(self, xs: np.ndarray) -> np.ndarray:
        """The vertex images under right multiplication with each element
        of ``xs`` (array form), as a (len(xs), n) int32 array.  As many
        elements as fit in _CHUNK products share a pass: one product, one
        canonicalisation and one key pass over all of them (past _CHUNK
        vertices, one element a pass, in chunks of representatives).  Right
        multiplication by an element of G permutes the cosets, so the
        sorted keys of its images equal the sorted keys of the known
        cosets, and one argsort per element matches them.  An element
        outside G takes no coset to a known one, so keys that differ from
        the known ones raise ValueError."""
        form, canon, reps = self.iface.form, self._canon, self._reps
        known, vids = self._index
        n = len(reps)
        images = np.empty((len(xs), n), dtype=np.int32)
        step = max(1, _CHUNK // n)
        for start in range(0, len(xs), step):
            batch = xs[start:start + step]
            keys = _in_chunks(lambda rs: form.keys(canon(form.outer(rs, batch))),
                              reps).reshape(len(batch), n)
            for i, row in enumerate(keys, start):
                order = row.argsort()
                # compared a chunk at a time: a full row[order] would be a
                # third n-long array beside row and order
                if not all(np.array_equal(row[order[j:j + _CHUNK]], known[j:j + _CHUNK])
                           for j in range(0, n, _CHUNK)):
                    raise ValueError("element does not belong to any registered coset")
                images[i][order] = vids
            # past _CHUNK vertices these are n long: free them before the
            # next pass forms its keys
            del keys, row, order
        return images

    def images_of(self, elt) -> np.ndarray:
        """The vertex images under right multiplication with elt, as an
        int32 array (``_images`` of the one element)."""
        return self._images(self.iface.form.pack([elt]))[0]


def _find(known: np.ndarray, keys: np.ndarray) -> tuple:
    """(pos, found): where each key is, or would be, in the sorted keys
    ``known``, clipped to the last one, and whether it is there."""
    pos = np.minimum(np.searchsorted(known, keys), len(known) - 1)
    return pos, known[pos] == keys


def _drain(parts: list) -> np.ndarray:
    """np.concatenate(parts), emptying the list part by part as it copies,
    so that a part's memory is freed once copied: the levels of a large
    exploration are not held twice."""
    out = np.empty((sum(map(len, parts)),) + parts[0].shape[1:], dtype=parts[0].dtype)
    end = len(out)
    while parts:
        part = parts.pop()
        out[end - len(part):end] = part
        end -= len(part)
    return out


def _merge(known: np.ndarray, vids: np.ndarray, at: np.ndarray,
           new_keys: np.ndarray, new_vids: np.ndarray) -> tuple:
    """The sorted keys ``known`` and their vertices ``vids`` with the sorted
    ``new_keys`` and their ``new_vids`` put in at their searchsorted
    positions ``at``, as np.insert puts them, in one O(n) pass: in the
    merged arrays a new key's place is its position plus the number of new
    keys before it."""
    at = at + np.arange(len(at))
    old = np.ones(len(known) + len(at), dtype=bool)
    old[at] = False
    keys = np.empty(len(old), dtype=known.dtype)
    ids = np.empty(len(old), dtype=vids.dtype)
    keys[at], ids[at] = new_keys, new_vids
    keys[old], ids[old] = known, vids
    return keys, ids


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


def _explore(iface: GroupIface, a_elt):
    """Deterministic coset BFS of the coset graph builder.

    One BFS level at a time: each frontier vertex Hr is probed once per
    arc-stabiliser class, at a*h*r, all probes of the level as one array
    product and one canonicalisation.  The probe keys are sorted, and each
    distinct key is looked up by binary search in the sorted keys of the
    known cosets; a new key's first probe is the least probe index of its
    run.  New vertices get ids in (least parent id, key) order (see the
    module docstring).  Once the BFS ends, one pass over the neighbour
    array, _CHUNK rows at a time, sorts each row and checks that it holds
    |HaH|/|H| distinct neighbours, so a bad triple raises at its least bad
    vertex.
    Returns (reps, (sorted keys, their vertices), adj, level_sizes, hah):
    the array form of the representatives, an (n, valency) array of sorted
    neighbour ids, the number of vertices of each BFS level, which hold
    consecutive ids from vertex 0 on, and the sorted keys of HaH's cosets.
    It explores whatever it is given: the families decide what may be built.
    """
    form, canon = iface.form, _canon_of(iface)
    hah, hs = _arc_transversal(iface, a_elt)
    steps = form.mul(form.pack([a_elt])[0], hs)  # a*h, one per class
    frontier = canon(form.pack([iface.identity]))
    known, vids = form.keys(frontier), np.zeros(1, dtype=np.int32)
    reps, adj = [frontier], []
    n = 1
    while len(frontier):
        probes = _in_chunks(lambda rows: canon(form.outer(steps, rows)), frontier)
        keys = _in_chunks(form.keys, probes)
        by_key = keys.argsort()  # sorted keys make the binary search cache-friendly
        keys = keys[by_key]
        head = np.ones(len(keys), dtype=bool)  # the first probe of each key's run
        head[1:] = keys[1:] != keys[:-1]
        runs, distinct = np.flatnonzero(head), keys[head]
        at = known.searchsorted(distinct)
        pos = np.minimum(at, len(known) - 1)
        new = known[pos] != distinct
        first = np.minimum.reduceat(by_key, runs)[new]  # each new key's first probe
        order = np.argsort(first // len(steps), kind="stable")
        new_vids = np.empty(len(order), dtype=np.int32)
        new_vids[order] = np.arange(n, n + len(order))
        run_vids = vids[pos]
        run_vids[new] = new_vids
        nbrs = np.empty(len(keys), dtype=np.int64)
        nbrs[by_key] = np.repeat(run_vids, np.diff(runs, append=len(keys)))
        adj.append(nbrs.reshape(len(frontier), len(steps)))
        known, vids = _merge(known, vids, at[new], distinct[new], new_vids)
        frontier = probes[first[order]]
        reps.append(frontier)
        n += len(order)
    adj = _drain(adj)
    level_sizes = tuple(map(len, reps[:-1]))  # the last frontier is empty
    for start in range(0, n, _CHUNK):
        rows = adj[start:start + _CHUNK]
        rows.sort(axis=1)
        valency = 1 + (rows[:, 1:] != rows[:, :-1]).sum(axis=1)
        bad = np.flatnonzero(valency != len(steps))
        if len(bad):
            raise ValueError("neighbour count %d != %d at vertex %d: "
                             "bad (G, H, a) triple" % (
                                 valency[bad[0]], len(steps), start + bad[0]))
    return _drain(reps), (known, vids), adj, level_sizes, hah


# bench/spans.py wraps this name on every benchmark run; it stays an alias
# until the benchmark stops looking it up.
_explore_compact = _explore


def build_coset_graph(iface: GroupIface, a_elt) -> CosetGraphBuild:
    """Construct the coset graph of (G, H, a) and the generators' action.

    Raises if any vertex ends up with a neighbour count other than 4 or if
    the explored vertex count differs from |G|/|H| (either one signals a bad
    triple, or an ``iface.canon`` that is not constant on cosets), or if
    a^-1 is not in HaH (the graph then has an edge that is not symmetric)."""
    reps, index, adj, level_sizes, hah = _explore(iface, a_elt)
    if adj.shape[1] != 4:
        raise ValueError("neighbour count %d != 4 at vertex 0: bad (G, H, a) "
                         "triple" % adj.shape[1])
    n_expected = iface.order // len(iface.subgroup_array)
    if len(reps) != n_expected:
        raise ValueError("reached %d cosets but |G|/|H| = %d: <H, a> is a "
                         "proper subgroup, or canon is not constant on cosets"
                         % (len(reps), n_expected))
    return CosetGraphBuild(iface, a_elt, reps, index, adj, level_sizes, hah)


def validate_corefree(build: CosetGraphBuild) -> bool:
    """True iff H is core-free, i.e. G acts faithfully on the cosets of H.
    The build reached all |G:H| cosets, so <H, a> = G, and the action is an
    image of G whose kernel is core_G(H): H is core-free exactly when the
    action's group has order |G|.  Its chain is bounded by |G| and exact
    either way: it stops on reaching |G|, or runs to its end below it."""
    return build.action.group.order() == build.iface.order


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted: np.unique without options, but without
    its masked-array test, whose first call imports numpy.ma (tens of ms)."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _levels(rows: np.ndarray, root: int, dist: np.ndarray):
    """The one BFS over a graph's padded rows (``Graph.rows``), one level
    at a time from root.  ``dist`` is the caller's int64 array of n + 1
    entries, -1 at every vertex not yet reached; the BFS marks the pad n
    with -2 and writes each vertex's level as it reaches it.

    For each level d = 0, 1, ... yields (frontier, at, repeats): the
    vertices of level d in increasing order, the levels of their rows'
    entries (d for an arc inside the level, -1 for an arc to a new vertex),
    and the number of arcs to new vertices beyond the first to each."""
    dist[[len(rows), root]] = -2, 0
    frontier, d = np.array([root]), 0
    while len(frontier):
        heads = rows[frontier]
        at = dist[heads]
        fresh = heads[at == -1]
        new = _distinct(fresh)
        yield frontier, at, len(fresh) - len(new)
        d += 1
        dist[new], frontier = d, new


def sphere(g: Graph, v: int, i: int) -> set:
    """The set of vertices at distance exactly i from v: level i of the
    BFS from v (_levels)."""
    if not 0 <= v < g.n:
        raise ValueError("vertex %d out of range" % v)
    if i < 0:
        raise ValueError("negative radius")
    dist = np.full(g.n + 1, -1, dtype=np.int64)
    for d, (frontier, _, _) in enumerate(_levels(g.rows, v, dist)):
        if d == i:
            return set(frontier.tolist())
    return set()


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
