"""Graph invariants and group-action analyses: girth, bipartiteness, normal
quotients and covers, local groups, blocks of imprimitivity, isomorphism and
automorphism-group orders at desk scale.

Girth runs a BFS from one root per vertex orbit of a given action (every
vertex without one).  Arc-transitivity labels the orbits of the action's
group on the arcs (``permgrp.orbit_labels``), the arcs numbered by their
sorted codes u*n + v and each generator mapped onto those numbers by binary
search.

Isomorphism and automorphism searches use equitable-partition refinement
(cell splitting) with individualization and full backtracking, so a negative
answer is a proof of non-isomorphism, not a heuristic.  The automorphism
search skips the orbit searches that the automorphisms it has already found
decide: it labels the orbits of the group they generate with the same
``permgrp.orbit_labels``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

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

def _refine(adj, cell_of, cells, queue, script=None):
    """Refine a vertex partition in place until it is equitable.

    The partition is cell_of (vertex -> cell id) with cells (id -> set of
    vertices).  Each step takes a cell from the queue and splits every cell
    by the number of neighbours its vertices have in it.  A split cell keeps
    its id for the part with the fewest such neighbours, and the other parts
    get new ids in order of that number, so cell ids are isomorphism
    invariant.  A cell that splits queues its new parts when it is still
    queued itself, and all its parts but the largest otherwise (Hopcroft's
    rule, as in McKay and Piperno's refinement).

    Each step records, for every cell the splitter reaches, its (number of
    neighbours, part size) pairs.  Returns the records; given the records
    of a first graph as script, replays them instead and returns None at
    the first step that differs, which proves that no isomorphism maps the
    first graph's partition onto this one."""
    queued = set(queue)
    records = []
    while queue:
        w = queue.popleft()
        queued.discard(w)
        hits: dict = {}
        for x in cells[w]:
            for y in adj[x]:
                hits[y] = hits.get(y, 0) + 1
        parts: dict = {}
        for y, k in hits.items():
            key = (cell_of[y], k)
            if key in parts:
                parts[key].append(y)
            else:
                parts[key] = [y]
        record, splits = [], []
        for c, keys in groupby(sorted(parts), itemgetter(0)):
            counts = [k for _, k in keys]
            split = [parts[c, k] for k in counts]
            sizes = [(k, len(part)) for k, part in zip(counts, split)]
            rest = len(cells[c]) - sum(size for _, size in sizes)
            if rest:
                sizes.insert(0, (0, rest))
            record.append((c, tuple(sizes)))
            if len(sizes) > 1:
                splits.append((c, split, rest))
        if script is not None and (len(records) == len(script)
                                   or script[len(records)] != record):
            return None
        records.append(record)
        for c, split, rest in splits:
            if rest:
                for part in split:
                    cells[c].difference_update(part)
            else:
                cells[c] = set(split.pop(0))
            ids = [c]
            for part in split:
                ids.append(len(cells))
                for y in part:
                    cell_of[y] = len(cells)
                cells.append(set(part))
            if c in queued:
                del ids[0]
            else:
                lengths = [len(cells[i]) for i in ids]
                del ids[lengths.index(max(lengths))]
            queue.extend(ids)
            queued.update(ids)
    if script is not None and len(records) != len(script):
        return None
    return records


def _individualise(cell_of, cells, v):
    """A copy of an equitable partition with v moved to a new singleton
    cell, and the queue that refines it: just that cell."""
    cell_of = list(cell_of)
    cells = [set(vs) for vs in cells]
    cells[cell_of[v]].discard(v)
    cell_of[v] = len(cells)
    cells.append({v})
    return cell_of, cells, deque([cell_of[v]])


def _path(adj, n) -> list:
    """The first path of the individualisation-refinement tree: level 0 is
    the refined unit partition, and level k+1 individualises the least
    vertex of level k's first non-singleton cell and refines.  Each level is
    (cell_of, cells, the records that refined it, that cell's id), the id
    None at the discrete last level."""
    cell_of, cells, queue = [0] * n, [set(range(n))], deque([0])
    path = []
    while True:
        script = _refine(adj, cell_of, cells, queue)
        target = next((c for c, vs in enumerate(cells) if len(vs) > 1), None)
        path.append((cell_of, cells, script, target))
        if target is None:
            return path
        cell_of, cells, queue = _individualise(cell_of, cells, min(cells[target]))


def _extend(adj1, adj2, path, k, cell_of2, cells2):
    """An isomorphism from adj1, whose path this is, to adj2 that maps level
    k's partition onto (cell_of2, cells2), which replayed it, or None.  The
    search over the branches is complete, and a map found at the discrete
    level is checked edge by edge."""
    cell_of1, _, _, target = path[k]
    if target is None:
        where = [0] * len(cell_of2)
        for u, c in enumerate(cell_of2):
            where[c] = u
        mapping = [where[c] for c in cell_of1]
        for u, nbrs in enumerate(adj1):
            if sorted([mapping[w] for w in nbrs]) != list(adj2[mapping[u]]):
                return None
        return mapping
    for u in sorted(cells2[target]):
        found = _branch(adj1, adj2, path, k, cell_of2, cells2, u)
        if found is not None:
            return found
    return None


def _branch(adj1, adj2, path, k, cell_of2, cells2, u):
    """_extend below level k, along the branch that individualises u in
    adj2's partition (cell_of2, cells2) where adj1 individualised level k's
    branch vertex."""
    cell_of, cells, queue = _individualise(cell_of2, cells2, u)
    if _refine(adj2, cell_of, cells, queue, path[k + 1][2]) is None:
        return None
    return _extend(adj1, adj2, path, k + 1, cell_of, cells)


def isomorphic(g1: Graph, g2: Graph, cap: int = 5000):
    """A vertex bijection g1 -> g2 preserving adjacency, or None if the two
    graphs are certifiably non-isomorphic."""
    if g1.n > cap or g2.n > cap:
        raise ValueError("isomorphism search capped at %d vertices" % cap)
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return None
    if sorted(map(len, g1.adj)) != sorted(map(len, g2.adj)):
        return None
    path = _path(g1.adj, g1.n)
    cell_of, cells = [0] * g2.n, [set(range(g2.n))]
    if _refine(g2.adj, cell_of, cells, deque([0]), path[0][2]) is None:
        return None
    res = _extend(g1.adj, g2.adj, path, 0, cell_of, cells)
    if res is None:
        return None
    return Permutation(res)


def automorphism_group_order(g: Graph, cap: int = 100) -> int:
    """Exact |Aut(g)| by orbit-stabiliser along the first path of the
    refinement tree: |Aut at level k| = |orbit of level k's branch vertex v|
    * |Aut at level k+1|, from the discrete level up.

    The orbit of v is decided by complete find-one searches (v -> u) and
    pruned with the automorphisms found so far, all of which fix the
    vertices individualised above level k: the orbits of the group they
    generate, relabelled after each find, lie inside the true orbits.  A u
    in v's orbit there is counted without a search, and a u in the orbit of
    an earlier failure fails too."""
    if g.n > cap:
        raise ValueError("automorphism search capped at %d vertices" % cap)
    adj = g.adj
    path = _path(adj, g.n)
    found_autos = []
    label = list(range(g.n))
    order = 1
    for k in reversed(range(len(path) - 1)):
        cell_of, cells, _, target = path[k]
        cell = sorted(cells[target])
        v = cell[0]
        failed = []
        for u in cell[1:]:
            if label[u] == label[v] or any(label[f] == label[u] for f in failed):
                continue
            found = _branch(adj, adj, path, k, cell_of, cells, u)
            if found is None:
                failed.append(u)
                continue
            found_autos.append(np.array(found))
            label = orbit_labels(found_autos, g.n).tolist()
        order *= sum(1 for u in cell if label[u] == label[v])
    return order


def verify_arc_transitive(g: Graph, action: VertexAction) -> bool:
    """True iff the action's group has one orbit on the arcs of g.

    Arc u -> v is numbered by the rank of its code u*n + v among all the
    codes, which adjacency order already sorts.  A generator, an
    automorphism, maps the codes onto the codes, so np.searchsorted turns
    it into a permutation of the numbers, and every number must share arc
    0's orbit label."""
    _check_on(g, action)
    tails, heads = g.arcs
    if not len(tails):
        return False
    codes = tails * g.n + heads
    gens = [np.searchsorted(codes, p[tails] * g.n + p[heads])
            for p in (q.astype(np.int64) for q in action.group.arrays())]
    return not orbit_labels(gens, len(codes)).any()
