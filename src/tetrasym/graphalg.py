"""Graph invariants and group-action analyses: girth, bipartiteness, normal
quotients and covers, local groups, blocks of imprimitivity, isomorphism and
automorphism-group orders at desk scale.

Girth runs a BFS from one root per vertex orbit of a given action (every
vertex without one).  Arc-transitivity labels the orbits of the action's
group on the arcs (``permgrp.orbit_labels``), the arc u -> v numbered as the
first arc of u plus the count of u's neighbours below v in the padded
adjacency array that the searches use too.

Isomorphism and automorphism searches individualise and refine with full
backtracking, so a negative answer is a proof of non-isomorphism, not a
heuristic.  Refinement works on the whole colouring at once: each round
ranks every vertex's key (its colour and its neighbours' sorted colours)
with one argsort, and records the sorted keys exactly, so a second graph
replays a first graph's records and fails at the first round that differs.
The automorphism order comes from orbit-stabiliser along the first path.
The isomorphism search prunes with the second graph's automorphisms, which
it computes only at its first failed branch: at each level it tries one
candidate per orbit of those that fix the branch's individualised vertices
(McKay and Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60,
2014).  Orbits are labelled by ``permgrp.orbit_labels``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from tetrasym.cosetgraph import Graph, VertexAction
from tetrasym.permgrp import PermGroup, Permutation, orbit_labels

__all__ = [
    "girth", "is_bipartite", "CoverReport",
    "quotient_by_subgroup_orbits", "local_group", "is_block",
    "isomorphic", "automorphism_group_order", "verify_arc_transitive",
]


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
    the girth."""
    if action is None:
        roots = range(g.n)
    else:
        _check_on(g, action)
        labels = action.group.orbit_labels()
        roots = np.flatnonzero(labels == np.arange(g.n)).tolist()
    best = None
    for root in roots:
        best = _shortest_cycle_from(g.adj, root, best)
    if best is None:
        raise ValueError("girth undefined: graph is a forest")
    return best


def _shortest_cycle_from(adj, root: int, best):
    """The least of best and the shortest cycle a BFS from root finds, by
    parent-edge exclusion, cut off once no cycle shorter than best can be
    found; None while no cycle is known."""
    n = len(adj)
    dist = [-1] * n
    parent = [-1] * n
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        if best is not None and 2 * dist[u] >= best:
            break
        for w in adj[u]:
            if w == parent[u]:
                continue
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
            else:
                cycle = dist[u] + dist[w] + 1
                if best is None or cycle < best:
                    best = cycle
    return best


def is_bipartite(g: Graph) -> bool:
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if colour[w] == -1:
                    colour[w] = colour[u] ^ 1
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


@dataclass(frozen=True)
class CoverReport:
    is_local_bijection: bool
    quotient: Graph
    fibre_size: int


def quotient_by_subgroup_orbits(g: Graph, action: VertexAction, normal_gens):
    """Quotient of g by the vertex orbits of N = <normal_gens>.

    normal_gens are vertex permutations; N must be normal in the group
    generated by the action's designated generators (checked by conjugating
    each normal generator by each action generator and testing membership in
    N's stabiliser chain).  Returns the CoverReport.
    """
    normal_gens = tuple(normal_gens)
    N = PermGroup(normal_gens, degree=g.n)
    for gen in action.gen_perms:
        for q in normal_gens:
            if q.conjugate(gen) not in N:
                raise ValueError("subgroup is not normal under the action generators")
    # the blocks are numbered in the order of their least vertices
    _, block_of, sizes = np.unique(N.orbit_labels(), return_inverse=True,
                                   return_counts=True)
    block_of = block_of.tolist()

    edges = set()
    for u in range(g.n):
        bu = block_of[u]
        for w in g.adj[u]:
            bw = block_of[w]
            if bu != bw:
                edges.add((min(bu, bw), max(bu, bw)))
    quotient = Graph.from_edges(len(sizes), sorted(edges))

    uniform = len(set(sizes.tolist())) == 1
    local_bij = uniform
    if local_bij:
        for v in range(g.n):
            images = {block_of[w] for w in g.adj[v]}
            if (len(images) != len(g.adj[v])
                    or block_of[v] in images
                    or images != set(quotient.adj[block_of[v]])):
                local_bij = False
                break
    fibre = int(sizes[0]) if uniform else 0
    return CoverReport(is_local_bijection=local_bij, quotient=quotient,
                       fibre_size=fibre)


def local_group(action: VertexAction, v: int) -> PermGroup:
    """The permutation group induced on the neighbours of v by the
    vertex-stabiliser of v: the generators of ``action.group``'s point
    stabiliser (from the action's one shared chain), restricted to the
    neighbourhood."""
    stab = action.group.point_stabiliser(v)
    nbrs = action.graph.adj[v]
    index = {w: i for i, w in enumerate(nbrs)}
    gens = [Permutation([index[p(w)] for w in nbrs]) for p in stab.generators]
    if not gens:
        gens = [Permutation.identity(len(nbrs))]
    return PermGroup(gens, degree=len(nbrs))


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

def _padded(g: Graph) -> np.ndarray:
    """g's adjacency as an (n, maximum degree) int64 array: row u holds u's
    neighbours in increasing order, padded on the right with n."""
    tails, heads = g.arcs
    degree = np.bincount(tails, minlength=g.n)
    pad = np.full((g.n, int(degree.max(initial=0))), g.n, np.int64)
    pad[tails, np.arange(len(tails)) - (np.cumsum(degree) - degree)[tails]] = heads
    return pad


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

    The keys are ranked by one argsort of a fold of their columns into one
    int64 each, in base count + 1; whenever the next fold could overflow,
    the partial keys are replaced by their ranks, which keeps their order.
    Each round's record is the bytes of the sorted key rows themselves, not
    a hash of them, in the smallest unsigned type that holds n.  Returns
    (colouring, records); given the records of a first graph as script,
    returns None at the first round that differs, which proves that no
    isomorphism maps the first graph's colouring onto this one."""
    n = len(colours)
    records = []
    count = int(colours.max()) + 1 if n else 0
    shifted = np.zeros(n + 1, np.int64)  # colour + 1; the pad value n reads 0
    small = np.min_scalar_type(n)  # holds every key entry, all <= n
    while count < n:
        shifted[:n] = colours + 1
        keys = np.column_stack([colours, np.sort(shifted[pad], axis=1)])
        base, span = count + 1, count
        packed = colours
        for column in keys.T[1:]:
            if span * base > 1 << 63:
                packed = np.unique(packed, return_inverse=True)[1]
                span = int(packed.max()) + 1
            packed = packed * base + column
            span *= base
        order = np.argsort(packed)
        packed = packed[order]
        record = keys[order].astype(small).tobytes()
        if script is not None and (len(records) == len(script)
                                   or script[len(records)] != record):
            return None
        records.append(record)
        ranks = np.zeros(n, np.int64)
        np.cumsum(packed[1:] != packed[:-1], out=ranks[1:])
        colours = np.empty(n, np.int64)
        colours[order] = ranks
        if ranks[-1] + 1 == count:
            break
        count = int(ranks[-1]) + 1
    if script is not None and len(records) != len(script):
        return None
    return colours, records


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
        return mapping if _maps_edges(self.pad1, self.pad2, mapping) else None


def _maps_edges(pad1, pad2, mapping) -> bool:
    """True iff the vertex bijection mapping carries the neighbours of each
    vertex of graph 1 onto those of its image in graph 2."""
    images = np.append(mapping, len(mapping))[pad1]
    return np.array_equal(np.sort(images, axis=1), pad2[mapping])


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
            if _maps_edges(pad, pad, swap):
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


def isomorphic(g1: Graph, g2: Graph, cap: int = 5000):
    """A vertex bijection g1 -> g2 preserving adjacency, or None if the two
    graphs are certifiably non-isomorphic."""
    if g1.n > cap or g2.n > cap:
        raise ValueError("isomorphism search capped at %d vertices" % cap)
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return None
    if sorted(map(len, g1.adj)) != sorted(map(len, g2.adj)):
        return None
    pad1, pad2 = _padded(g1), _padded(g2)
    path = _path(pad1)
    refined = _refine(pad2, np.zeros(g2.n, np.int64), path[0].records)
    if refined is None:
        return None
    found = _Search(pad1, pad2, path).extend(0, refined[0], [])
    return None if found is None else Permutation(found.tolist())


def automorphism_group_order(g: Graph, cap: int = 100) -> int:
    """Exact |Aut(g)|, by orbit-stabiliser along the first path of the
    refinement tree (see _automorphisms)."""
    if g.n > cap:
        raise ValueError("automorphism search capped at %d vertices" % cap)
    return _automorphisms(_padded(g))[1]


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

    Arcs are numbered in (tail, head) order, which is adjacency order
    (_arc_numbers).  A generator, an automorphism, maps the arcs onto the
    arcs, so it permutes their numbers, and every number must share arc
    0's orbit label."""
    _check_on(g, action)
    tails, heads = g.arcs
    if not len(tails):
        return False
    pad = _padded(g)
    degree = np.count_nonzero(pad < g.n, axis=1)
    first = np.cumsum(degree) - degree
    gens = [_arc_numbers(pad, first, p[tails], p[heads])
            for p in (q.astype(np.int64) for q in action.group.arrays())]
    return not orbit_labels(gens, len(tails)).any()
