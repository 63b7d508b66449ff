"""Graph invariants and group-action analyses: girth, bipartiteness, normal
quotients and covers, local groups, blocks of imprimitivity, isomorphism and
automorphism-group orders at desk scale.

Girth reads the levels of the one BFS over a graph's padded rows
(``cosetgraph._levels``), from one root per vertex orbit of a given action
(every vertex without one): from vertex 0 alone for a coset graph, whose
build has proved its action transitive.  Bipartiteness compares the BFS
level of each vertex with its neighbours' in one pass over the rows.  A
coset graph's levels are the build's own, expanded from the sizes its
explorer handed over, so no second BFS runs; any other graph's come from
``_levels`` over each component.
Arc-transitivity is certified locally when it can be: a group that is
transitive on the vertices, and whose generators fixing vertex 0 are
transitive on its neighbours, maps every arc to an arc at 0 and that onto
0's first arc, so it has one orbit on the arcs.  The vertex-transitivity
reads the group's kept orbit labels, which girth's roots read too; those
of a coset build's action start all zero, so neither labels anything.
Every other case, every False answer among them, labels the orbits of the
group on the arcs themselves (``permgrp.orbit_labels``), the arc u -> v
numbered as the first arc of u plus the count of u's neighbours below v in
the graph's padded rows, which the searches read too.
The coset graphs always take the certificate (H fixes vertex 0 and is
transitive on its neighbours Hah); the wreath actions take the arc orbit,
since of their generators only b fixes vertex 0.

Isomorphism and automorphism searches individualise and refine with full
backtracking, so a negative answer is a proof of non-isomorphism, not a
heuristic.  Refinement works on the whole colouring at once: each round
writes every vertex's key (its colour and its neighbours' sorted colours)
into one key matrix, folds each row into one int64 by integer products
(one per round at degree 4 and up to 6,208 vertices), ranks the folds with
one argsort, and records the sorted keys exactly, so a second graph
replays a first graph's records and fails at the first round that differs.
The automorphism order comes from orbit-stabiliser along the first path.
The isomorphism search prunes with the second graph's automorphisms, which
it computes only at its first failed branch: at each level it tries one
candidate per orbit of those that fix the branch's individualised vertices
(McKay and Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60,
2014).  Orbits are labelled by ``permgrp.orbit_labels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from tetrasym.cosetgraph import (_CHUNK, Graph, VertexAction, _carries,
                                 _distinct, _levels)
from tetrasym.permgrp import PermGroup, Permutation, orbit_labels

__all__ = [
    "girth", "is_bipartite", "CoverReport",
    "quotient_by_subgroup_orbits", "local_group", "is_block",
    "isomorphic", "automorphism_group_order", "verify_arc_transitive",
]

# Vertex caps of the searches.  AUT_CAP is gamma t=7, the largest member
# with a live criterion-11 row.  The wreath graphs bound it: their search is
# one level per fibre, and wreath:r=1792 at this cap takes about 6 s and
# 320 MB.
AUT_CAP = 3584
ISO_CAP = 5000  # the isomorphism searches (criteria 8 and 12)


def _check_on(g: Graph, action: VertexAction):
    if action.graph != g:
        raise ValueError("the action is not on this graph")


def girth(g: Graph, action: VertexAction | None = None) -> int:
    """Length of the shortest cycle: the least result of a BFS from each
    root.  A BFS from a vertex on a shortest cycle finds that cycle's
    length, and none finds a shorter one.

    Without an action every vertex is a root.  With one, the roots are the
    least vertex of each orbit of the action's group: its generators are
    automorphisms (VertexAction checks that), so an element mapping a
    vertex on a shortest cycle to its orbit's root maps that cycle onto one
    through the root, and the minimum over one root per orbit is exactly
    the girth.  The orbits are the group's kept labels: all zero for the
    action of a coset build, which roots at vertex 0 alone."""
    if action is None:
        roots = range(g.n)
    else:
        _check_on(g, action)
        labels = action.group.orbit_labels()
        roots = np.flatnonzero(labels == np.arange(g.n)).tolist()
    best = None
    for root in roots:
        best = _shortest_cycle_from(g.rows, root, best)
    if best is None:
        raise ValueError("girth undefined: graph is a forest")
    return best


def _shortest_cycle_from(rows, root: int, best):
    """The least of best and the shortest cycle a BFS from root finds, by
    parent-edge exclusion, cut off once no cycle shorter than best can be
    found; None while no cycle is known.

    The BFS is _levels over the graph's rows.  From level d, an arc inside
    the level closes a cycle of length 2d+1, and two arcs to one new vertex
    close one of 2d+2.  (An arc from a vertex to level d-1 other than its
    parent is one of two arcs that found it.)  No level past d can close a
    cycle shorter than 2d+2."""
    dist = np.full(len(rows) + 1, -1, dtype=np.int64)
    for d, (_, at, repeats) in enumerate(_levels(rows, root, dist)):
        cycle = 2 * d + 1 if (at == d).any() else 2 * d + 2 if repeats else None
        if cycle is not None and (best is None or cycle < best):
            best = cycle
        if best is not None and 2 * d + 2 >= best:
            break
    return best


def is_bipartite(g: Graph) -> bool:
    """True iff no BFS level holds both ends of an edge: one pass over the
    rows, _CHUNK at a time, that compares each vertex's level with its
    neighbours' (_bfs_levels) and stops at the first slice holding an arc
    inside a level."""
    levels, rows = _bfs_levels(g), g.rows
    for start in range(0, g.n, _CHUNK):
        part = rows[start:start + _CHUNK]
        if (levels[part] == levels[start:start + len(part), None]).any():
            return False
    return True


def _bfs_levels(g: Graph) -> np.ndarray:
    """The BFS level of each vertex, from the least vertex of its
    component, and after them a pad slot that no level equals.

    A coset build's graph has the sizes of its levels from vertex 0
    (``Graph._level_sizes``), expanded by one np.repeat into the smallest
    signed type that holds the pad's level, one past the deepest.  Any
    other graph's levels are those _levels writes from the least vertex of
    each component not yet reached, the pad at -2."""
    sizes = g._level_sizes
    if sizes is not None:
        # the pad's level is len(sizes), which a signed type holding
        # -len(sizes) - 1 holds
        dtype = np.min_scalar_type(-len(sizes) - 1)
        return np.repeat(np.arange(len(sizes) + 1, dtype=dtype), sizes + (1,))
    dist = np.full(g.n + 1, -1, dtype=np.int64)
    start = 0
    while True:
        unreached = dist[start:g.n] == -1
        if not unreached.any():
            return dist
        start += int(unreached.argmax())
        for _ in _levels(g.rows, start, dist):
            pass


@dataclass(frozen=True)
class CoverReport:
    is_local_bijection: bool
    quotient: Graph
    fibre_size: int


def quotient_by_subgroup_orbits(g: Graph, action: VertexAction, normal_gens):
    """Quotient of g by the vertex orbits of N = <normal_gens>.

    normal_gens are vertex maps, int image arrays or Permutation objects;
    N must be normal in the group generated by the action's designated
    generators (checked by conjugating each normal generator q by each
    action generator s, s^-1 q s = s[q[s^-1]], and testing membership in
    N's stabiliser chain).  Returns the CoverReport.
    """
    _check_on(g, action)
    N = PermGroup(normal_gens, degree=g.n)
    for gen in action.images:
        inverse = np.argsort(gen)
        for q in N.arrays():
            # a conjugate of checked bijections: sifted without a new check
            if not N.chain.contains(gen[q[inverse]]):
                raise ValueError("subgroup is not normal under the action generators")
    # the blocks are numbered in the order of their least vertices
    _, block_of, sizes = np.unique(N.orbit_labels(), return_inverse=True,
                                   return_counts=True)
    tails, heads = g.arcs
    ends = block_of[tails] * len(sizes) + block_of[heads]
    ends = _distinct(ends[block_of[tails] < block_of[heads]])
    lo, hi = divmod(ends, len(sizes))
    quotient = Graph.from_edges(len(sizes), zip(lo.tolist(), hi.tolist()))

    # each neighbourhood maps one-to-one onto its block's neighbourhood
    uniform = len(set(sizes.tolist())) == 1
    local_bij = uniform and _carries(g.rows, quotient.rows, block_of)
    fibre = int(sizes[0]) if uniform else 0
    return CoverReport(is_local_bijection=local_bij, quotient=quotient,
                       fibre_size=fibre)


def local_group(action: VertexAction, v: int) -> PermGroup:
    """The permutation group induced on the neighbours of v by the
    vertex-stabiliser of v: the generators of ``action.group``'s point
    stabiliser (from the action's one shared chain), restricted to the
    neighbourhood, whose sorted neighbours are numbered 0..degree-1."""
    stab = action.group.point_stabiliser(v)
    nbrs = np.array(action.graph.neighbours(v), dtype=np.int64)
    return PermGroup([nbrs.searchsorted(p[nbrs]) for p in stab.arrays()],
                     degree=len(nbrs))


def is_block(action: VertexAction, S) -> bool:
    """True iff every group element maps S to itself or to a disjoint set:
    S is a block exactly when it is the smallest block containing it."""
    base = frozenset(S)
    if not base:
        raise ValueError("empty vertex set")
    if not action.group.is_transitive():
        raise ValueError("is_block requires a transitive action")
    return action.group.min_block(base) == base


# ---------------------------------------------------------------------------
# Isomorphism / automorphisms via refinement + backtracking
# ---------------------------------------------------------------------------

def _refine(pad, colours, script=None):
    """Refine a dense colouring (ranks 0..k-1, as an int64 array) until it
    is equitable.

    Each round keys every vertex by its own colour and the sorted colours
    of its neighbours (gathered from the padded adjacency as colour + 1,
    the pad reading 0), and recolours it by the rank of its key among the
    distinct keys.  The keys start with the old colour, so colour classes
    only split, and the rounds stop once the number of colours stops
    growing or every vertex has its own.  Ranks depend only on the keys, so
    the colouring is isomorphism invariant.

    The keys are the rows of one (n, degree + 1) int64 matrix, made once
    per call and overwritten each round.  They are ranked by one argsort of
    their fold into one int64 each (_fold: at degree 4 and up to 6,208
    vertices, one integer product per round).  Each round's record is the
    bytes of the sorted key rows themselves, not a hash of them, in the
    smallest unsigned type that holds n.  Returns (colouring, records);
    given the records of a first graph as script, returns None at the
    first round that differs, which proves that no isomorphism maps the
    first graph's colouring onto this one."""
    n = len(colours)
    records = []
    count = int(colours.max()) + 1 if n else 0
    shifted = np.zeros(n + 1, np.int64)  # colour + 1; the pad value n reads 0
    keys = np.empty((n, pad.shape[1] + 1), np.int64)
    small = np.min_scalar_type(n)  # holds every key entry, all <= n
    while count < n:
        np.add(colours, 1, out=shifted[:n])
        neighbours = shifted[pad]
        neighbours.sort(axis=1)
        keys[:, 0] = colours
        keys[:, 1:] = neighbours
        colours, order, new_count = _rank(_fold(keys, count + 1))
        record = keys.take(order, axis=0).astype(small).tobytes()
        if script is not None and (len(records) == len(script)
                                   or script[len(records)] != record):
            return None
        records.append(record)
        if new_count == count:
            break
        count = new_count
    if script is not None and len(records) != len(script):
        return None
    return colours, records


def _fold(keys, base):
    """The rows of keys, whose entries lie in 0..base-1, as one int64 each
    in their lexicographic order.  Each integer product folds as many
    columns m as keep the fold below 2**63, keys[:, j:j+m] @ (base**(m-1),
    ..., base, 1); between two such products the partial fold is replaced
    by its ranks, which keep its order and are fewer than n.  The weights
    of a base are made once (_weights)."""
    width = keys.shape[1]
    packed, span, j = None, 1, 0  # the partial fold lies in 0..span-1
    while True:
        m = width - j
        while m > 1 and span * base ** m >= 1 << 63:
            m -= 1
        part = keys[:, j:j + m] @ _weights(base, m)
        packed = part if packed is None else packed * base ** m + part
        j += m
        if j == width:
            return packed
        packed, _, span = _rank(packed)


@lru_cache(maxsize=1024)
def _weights(base, m):
    """The read-only int64 array (base**(m-1), ..., base, 1)."""
    weights = base ** np.arange(m - 1, -1, -1)
    weights.flags.writeable = False
    return weights


def _rank(packed):
    """(ranks, order, count): the rank of each entry of packed among its
    distinct values, an order that sorts packed, and the number of distinct
    values.  The ranks are one cumulative sum of the heads of the runs of
    equal sorted values, scattered back through the order; the count is
    the sum's last entry plus one."""
    n = len(packed)
    order = packed.argsort()
    ordered = packed[order]
    heads = np.zeros(n, bool)
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    sums = np.empty(n, np.int64)
    np.add.accumulate(heads, dtype=np.int64, out=sums)
    ranks = np.empty(n, np.int64)
    ranks[order] = sums
    return ranks, order, int(sums[-1]) + 1


class _Level:
    """One level of the first path: the refined colouring, the records
    that refined it, and its target colour: the least colour of the largest
    class, or None when the colouring is discrete.  (Largest cells make the
    paths of the families' vertex-transitive graphs short.)"""

    __slots__ = ("colours", "records", "target")

    def __init__(self, colours, records):
        self.colours, self.records = colours, records
        sizes = np.bincount(colours, minlength=1)
        self.target = int(sizes.argmax()) if sizes.max() > 1 else None

    def cell(self, colours=None) -> list:
        """The target cell of this level's colouring or of colours."""
        return np.flatnonzero((self.colours if colours is None else colours)
                              == self.target).tolist()


def _individualise(colours, v):
    """colours with v moved to a new colour of its own."""
    out = colours.copy()
    out[v] = int(colours.max()) + 1
    return out


def _path(pad) -> list:
    """The first path of the individualisation-refinement tree: level 0 is
    the refined unit colouring, and level k+1 individualises the least
    vertex of level k's target cell and refines.  A search tries the
    candidates of a cell in increasing order, so its first branch in graph
    2 is graph 2's own first path, which the automorphisms that
    _automorphisms finds for each level fix down to that level."""
    level = _Level(*_refine(pad, np.zeros(len(pad), np.int64)))
    path = [level]
    while level.target is not None:
        colours = _individualise(level.colours, level.cell()[0])
        level = _Level(*_refine(pad, colours))
        path.append(level)
    return path


class _Search:
    """A complete backtracking search for an isomorphism from the graph of
    pad1, whose first path this is, to the graph of pad2.

    gens are known automorphisms of graph 2, or None.  Below a prefix of
    individualised vertices, the search tries one candidate per orbit of
    the gens that fix the prefix pointwise: such an automorphism maps a
    branch that holds no isomorphism onto one that holds none.  When gens
    is None, the first failed branch computes Aut(graph 2)'s generators.
    The search keeps its own stack, so the path may be deeper than Python's
    recursion limit."""

    def __init__(self, pad1, pad2, path, gens=None):
        self.pad1, self.pad2, self.path, self.gens = pad1, pad2, path, gens

    def extend(self, k, colours, prefix, cell=None):
        """An isomorphism mapping level k's colouring onto colours, which
        replayed it below prefix, or None; with cell, only along the
        branches that individualise a vertex of cell at level k."""
        if self.path[k].target is None:
            return self._leaf(colours)
        stack = [_Node(self.path[k], k, colours, prefix, cell)]
        while stack:
            node = stack[-1]
            u = node.candidate(self.gens)
            if u is None:
                stack.pop()
                if stack:
                    self._fail(stack[-1], node.prefix[-1])
                continue
            level = self.path[node.k + 1]
            refined = _refine(self.pad2, _individualise(node.colours, u), level.records)
            if refined is not None and level.target is not None:
                stack.append(_Node(level, node.k + 1, refined[0], node.prefix + [u]))
                continue
            if refined is not None:
                found = self._leaf(refined[0])
                if found is not None:
                    return found
            self._fail(node, u)
        return None

    def _fail(self, node, u):
        if self.gens is None:
            self.gens = _automorphisms(self.pad2)[0]
        node.failed.append(u)
        if node.labels is not None:
            node.seen.add(node.labels[u])

    def _leaf(self, colours):
        """The map from the path's discrete last colouring to colours, if
        it maps graph 1's edges onto graph 2's (checked edge by edge), else
        None."""
        where = np.empty(len(colours), np.int64)
        where[colours] = np.arange(len(colours))
        mapping = where[self.path[-1].colours]
        return mapping if _carries(self.pad1, self.pad2, mapping) else None


class _Node:
    """A search node: a colouring of graph 2 that replayed the path's
    level k below prefix, its untried candidates (the target cell, or the
    given cell) and the candidates that failed."""

    __slots__ = ("k", "colours", "prefix", "cell", "failed", "labels", "seen")

    def __init__(self, level, k, colours, prefix, cell=None):
        self.k, self.colours, self.prefix = k, colours, prefix
        self.cell = (level.cell(colours) if cell is None else cell)[::-1]
        self.failed, self.labels, self.seen = [], None, set()

    def candidate(self, gens):
        """The least untried candidate outside the orbits of the failed
        ones under the gens that fix the prefix, or None."""
        while self.cell:
            u = self.cell.pop()
            if not self.failed or gens is None:
                return u
            if self.labels is None:
                prefix = self.prefix
                fixing = [g for g in gens if (g[prefix] == prefix).all()]
                self.labels = orbit_labels(fixing, len(self.colours)).tolist()
                self.seen = {self.labels[f] for f in self.failed}
            if self.labels[u] not in self.seen:
                return u
        return None


def _automorphisms(pad):
    """Generators of the automorphism group of the graph of pad, and its
    order, by orbit-stabiliser along the first path: |Aut at level k| =
    |orbit of level k's branch vertex v| * |Aut at level k+1|, from the
    discrete level up.

    The orbit of v is decided by complete find-one searches (v -> u),
    pruned with the automorphisms found so far, all of which fix the
    vertices individualised above level k: the orbits of the group they
    generate lie inside the true orbits.  A u in v's orbit there is counted
    without a search, and a u in the orbit of an earlier failure fails too.
    Before its search, the transposition of v and u is tried: it is an
    automorphism whenever the two have the same neighbours, which is what
    makes graphs with many such twins (the wreath graphs) cheap."""
    path = _path(pad)
    gens = []
    search = _Search(pad, pad, path, gens)
    n = len(pad)
    label = np.arange(n)
    prefix = [level.cell()[0] for level in path[:-1]]
    order = 1
    for k in reversed(range(len(path) - 1)):
        cell = path[k].cell()
        v = cell[0]
        failed = set()
        for u in cell[1:]:
            if label[u] == label[v] or label[u] in failed:
                continue
            swap = np.arange(n)
            swap[[v, u]] = u, v
            if _carries(pad, pad, swap):
                found = swap
            else:
                found = search.extend(k, path[k].colours, prefix[:k], [u])
            if found is None:
                failed.add(label[u])
                continue
            gens.append(found)
            # the orbits of the enlarged group: the old orbits (each point
            # joined to its label) joined by the new generator
            label = orbit_labels([label, found], n)
            failed = {label[f] for f in failed}
        order *= int(np.count_nonzero(label[cell] == label[v]))
    return gens, order


def isomorphic(g1: Graph, g2: Graph):
    """A vertex bijection g1 -> g2 preserving adjacency, or None if the two
    graphs are certifiably non-isomorphic.  Refuses graphs above ISO_CAP
    vertices."""
    if g1.n > ISO_CAP or g2.n > ISO_CAP:
        raise ValueError("isomorphism search capped at %d vertices" % ISO_CAP)
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return None
    if not np.array_equal(np.sort(g1.degrees), np.sort(g2.degrees)):
        return None
    pad1, pad2 = g1.rows, g2.rows
    path = _path(pad1)
    refined = _refine(pad2, np.zeros(g2.n, np.int64), path[0].records)
    if refined is None:
        return None
    found = _Search(pad1, pad2, path).extend(0, refined[0], [])
    # where[colours] of two discrete colourings is a bijection, and _leaf
    # checked it edge by edge
    return None if found is None else Permutation._unchecked(tuple(found.tolist()))


def automorphism_group_order(g: Graph) -> int:
    """Exact |Aut(g)|, by orbit-stabiliser along the first path of the
    refinement tree (see _automorphisms).  Refuses graphs above AUT_CAP
    vertices."""
    if g.n > AUT_CAP:
        raise ValueError("automorphism search capped at %d vertices" % AUT_CAP)
    return _automorphisms(g.rows)[1]


def _arc_numbers(pad, first, tails, heads):
    """The numbers of the arcs tails -> heads of the graph of pad, the
    arcs numbered in (tail, head) order: first[tail], the number of the
    tail's first arc, plus the count of the tail's neighbours below the
    head in its padded row."""
    numbers = first[tails]
    for column in pad.T:
        numbers += column[tails] < heads
    return numbers


def verify_arc_transitive(g: Graph, action: VertexAction) -> bool:
    """True iff the action's group has one orbit on the arcs of g.

    The local certificate (_locally_arc_transitive) answers True when it
    applies: a vertex-transitive group whose generators fixing vertex 0 are
    transitive on its neighbours.  Every other case, every False answer
    among them, is decided by the orbit of the arcs themselves
    (_arc_orbit)."""
    _check_on(g, action)
    return _locally_arc_transitive(g, action.group) or _arc_orbit(g, action.group)


def _locally_arc_transitive(g: Graph, group: PermGroup) -> bool:
    """True if group is transitive on the vertices and the generators that
    fix vertex 0, which has a neighbour, are transitive on its neighbours;
    False says nothing.  Then the group has one orbit on the arcs
    (Godsil & Royle, *Algebraic Graph Theory*, 2001, ch. 4): an element
    maps any arc to an arc at vertex 0, and the stabiliser of 0 maps that
    onto 0's first arc.  A generator fixing 0 is an automorphism, so it
    permutes 0's sorted neighbours, as the index map searchsorted gives."""
    if not g.n:
        return False
    # row 0 alone: ``g.degrees`` would count the neighbours of every vertex
    nbrs = g.rows[0][g.rows[0] < g.n]
    if not len(nbrs):
        return False
    local = [nbrs.searchsorted(p[nbrs]) for p in group.arrays() if p[0] == 0]
    return not orbit_labels(local, len(nbrs)).any() and group.is_transitive()


def _arc_orbit(g: Graph, group: PermGroup) -> bool:
    """True iff group has one orbit on the arcs of g, from the arcs' own
    orbit labels.  Arcs are numbered in (tail, head) order, which is
    adjacency order (_arc_numbers).  A generator, an automorphism, maps the
    arcs onto the arcs, so it permutes their numbers, and every number must
    share arc 0's orbit label."""
    tails, heads = g.arcs
    if not len(tails):
        return False
    first = np.cumsum(g.degrees) - g.degrees
    gens = [_arc_numbers(g.rows, first, p[tails], p[heads])
            for p in (q.astype(np.int64) for q in group.arrays())]
    return not orbit_labels(gens, len(tails)).any()
