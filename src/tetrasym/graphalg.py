"""Graph invariants and group-action analyses: girth, bipartiteness, normal
quotients and covers, local groups, blocks of imprimitivity, isomorphism and
automorphism-group orders at desk scale.

Isomorphism and automorphism searches use equitable-partition refinement with
individualization and full backtracking, so a negative answer is a proof of
non-isomorphism, not a heuristic.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from tetrasym.cosetgraph import Graph, VertexAction
from tetrasym.permgrp import PermGroup, Permutation

__all__ = [
    "girth", "is_bipartite", "Partition", "CoverReport",
    "quotient_by_subgroup_orbits", "local_group", "is_block",
    "isomorphic", "automorphism_group_order", "verify_arc_transitive",
]


def girth(g: Graph) -> int:
    """Length of the shortest cycle, by per-root BFS with parent-edge
    exclusion and early cutoff at the best cycle found so far."""
    best = None
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                break
            for w in g.adj[u]:
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
    if best is None:
        raise ValueError("girth undefined: graph is a forest")
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
class Partition:
    """Disjoint vertex sets covering all vertices, with a membership index."""

    blocks: tuple
    block_of: tuple

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        index = [-1] * n
        for i, blk in enumerate(blocks):
            for v in blk:
                if index[v] != -1:
                    raise ValueError("blocks overlap at vertex %d" % v)
                index[v] = i
        if any(i == -1 for i in index):
            raise ValueError("blocks do not cover all vertices")
        return cls(blocks, tuple(index))

    def __len__(self):
        return len(self.blocks)


@dataclass(frozen=True)
class CoverReport:
    is_local_bijection: bool
    quotient: Graph
    fibre_size: int


def quotient_by_subgroup_orbits(g: Graph, action: VertexAction,
                                normal_gens, size_cap: int = 10 ** 6):
    """Quotient of g by the vertex orbits of N = <normal_gens>.

    normal_gens are vertex permutations; N must be normal in the group
    generated by the action's designated generators (checked by conjugating
    each normal generator by each action generator and testing membership in
    the enumerated N).  Returns (Partition, CoverReport).
    """
    normal_gens = tuple(normal_gens)
    elements = set(PermGroup(normal_gens, degree=g.n).elements(cap=size_cap))
    for gen in action.gen_perms:
        for q in normal_gens:
            if q.conjugate(gen) not in elements:
                raise ValueError("subgroup is not normal under the action generators")

    # N-orbits on vertices
    seen = [False] * g.n
    blocks = []
    for v in range(g.n):
        if seen[v]:
            continue
        orb = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for q in normal_gens:
                w = q(u)
                if w not in orb:
                    orb.add(w)
                    stack.append(w)
        for u in orb:
            seen[u] = True
        blocks.append(sorted(orb))
    blocks.sort(key=lambda blk: blk[0])
    part = Partition.from_blocks(g.n, blocks)

    edges = set()
    for u in range(g.n):
        bu = part.block_of[u]
        for w in g.adj[u]:
            bw = part.block_of[w]
            if bu != bw:
                edges.add((min(bu, bw), max(bu, bw)))
    quotient = Graph.from_edges(len(blocks), sorted(edges))

    sizes = {len(b) for b in part.blocks}
    uniform = len(sizes) == 1
    local_bij = uniform
    if local_bij:
        for v in range(g.n):
            images = {part.block_of[w] for w in g.adj[v]}
            if (len(images) != len(g.adj[v])
                    or part.block_of[v] in images
                    or images != set(quotient.adj[part.block_of[v]])):
                local_bij = False
                break
    fibre = len(part.blocks[0]) if uniform else 0
    return part, CoverReport(is_local_bijection=local_bij, quotient=quotient,
                             fibre_size=fibre)


def local_group(action: VertexAction, v: int) -> PermGroup:
    """The permutation group induced on the neighbours of v by the
    vertex-stabiliser of v (stabiliser generators from the chain, restricted
    to the neighbourhood)."""
    big = PermGroup(action.gen_perms, degree=action.graph.n)
    stab = big.point_stabiliser(v)
    nbrs = action.graph.adj[v]
    index = {w: i for i, w in enumerate(nbrs)}
    gens = [Permutation([index[p(w)] for w in nbrs]) for p in stab.generators]
    if not gens:
        gens = [Permutation.identity(len(nbrs))]
    return PermGroup(gens, degree=len(nbrs))


def is_block(action: VertexAction, S) -> bool:
    """True iff every group element maps S to itself or to a disjoint set,
    checked by orbit-closure of S under the action generators."""
    n = action.graph.n
    base = frozenset(S)
    if not base:
        raise ValueError("empty vertex set")
    orbit0 = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for p in action.gen_perms:
            w = p(u)
            if w not in orbit0:
                orbit0.add(w)
                stack.append(w)
    if len(orbit0) != n:
        raise ValueError("is_block requires a transitive action")

    seen = {base}
    queue = [base]
    while queue:
        cur = queue.pop()
        for p in action.gen_perms:
            img = frozenset(p(v) for v in cur)
            if img != base and img & base:
                return False
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return True


# ---------------------------------------------------------------------------
# Isomorphism / automorphisms via refinement + backtracking
# ---------------------------------------------------------------------------

def _refine_pair(adj1, adj2, c1, c2):
    """Synchronised equitable refinement of two coloured graphs.

    New colour ids are ranks of sorted signatures, which is isomorphism
    invariant; returns None as a certified mismatch when the signature
    multisets differ.
    """
    n = len(c1)
    ncolours = max(c1) + 1
    while True:
        sig1 = [(c1[v], tuple(sorted(Counter(c1[w] for w in adj1[v]).items())))
                for v in range(n)]
        sig2 = [(c2[v], tuple(sorted(Counter(c2[w] for w in adj2[v]).items())))
                for v in range(n)]
        order = sorted(set(sig1) | set(sig2))
        rank = {s: i for i, s in enumerate(order)}
        new1 = [rank[s] for s in sig1]
        new2 = [rank[s] for s in sig2]
        if sorted(new1) != sorted(new2):
            return None
        new_ncolours = len({*new1})
        if new_ncolours == ncolours:
            return new1, new2
        c1, c2, ncolours = new1, new2, new_ncolours


def _colour_cells(c):
    cells: dict = {}
    for v, col in enumerate(c):
        cells.setdefault(col, []).append(v)
    return cells


def _search_iso(adj1, adj2, c1, c2):
    """Find one colour-respecting isomorphism, or None (search is complete)."""
    refined = _refine_pair(adj1, adj2, c1, c2)
    if refined is None:
        return None
    c1, c2 = refined
    cells1 = _colour_cells(c1)
    cells2 = _colour_cells(c2)
    target = None
    for col in sorted(cells1):
        if len(cells1[col]) != len(cells2[col]):
            return None
        if target is None and len(cells1[col]) > 1:
            target = col
    if target is None:
        mapping = [0] * len(c1)
        pos = {col: vs[0] for col, vs in cells2.items()}
        for v in range(len(c1)):
            mapping[v] = pos[c1[v]]
        for u in range(len(adj1)):
            mu = mapping[u]
            img = {mapping[w] for w in adj1[u]}
            if img != set(adj2[mu]):
                return None
        return mapping
    fresh = max(c1) + 1
    v = cells1[target][0]
    base1 = list(c1)
    base1[v] = fresh
    for u in cells2[target]:
        trial2 = list(c2)
        trial2[u] = fresh
        res = _search_iso(adj1, adj2, base1, trial2)
        if res is not None:
            return res
    return None


def isomorphic(g1: Graph, g2: Graph, cap: int = 5000):
    """A vertex bijection g1 -> g2 preserving adjacency, or None if the two
    graphs are certifiably non-isomorphic."""
    if g1.n > cap or g2.n > cap:
        raise ValueError("isomorphism search capped at %d vertices" % cap)
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return None
    if sorted(map(len, g1.adj)) != sorted(map(len, g2.adj)):
        return None
    res = _search_iso(g1.adj, g2.adj, [0] * g1.n, [0] * g2.n)
    if res is None:
        return None
    return Permutation(res)


def automorphism_group_order(g: Graph, cap: int = 100) -> int:
    """Exact |Aut(g)| by orbit-stabiliser recursion over the refinement tree:
    |Aut_pi| = |orbit of the first branch vertex| * |Aut of its stabiliser
    partition|, with orbit membership decided by complete find-one searches."""
    if g.n > cap:
        raise ValueError("automorphism search capped at %d vertices" % cap)
    refined = _refine_pair(g.adj, g.adj, [0] * g.n, [0] * g.n)
    assert refined is not None
    return _aut_order(g.adj, refined[0])


def _aut_order(adj, colours) -> int:
    cells = _colour_cells(colours)
    target = None
    for col in sorted(cells):
        if len(cells[col]) > 1:
            target = col
            break
    if target is None:
        return 1
    cell = cells[target]
    v = cell[0]
    fresh = max(colours) + 1
    seeded = list(colours)
    seeded[v] = fresh
    orbit = 0
    for u in cell:
        if u == v:
            orbit += 1
            continue
        trial = list(colours)
        trial[u] = fresh
        if _search_iso(adj, adj, seeded, trial) is not None:
            orbit += 1
    refined = _refine_pair(adj, adj, seeded, seeded)
    assert refined is not None
    return orbit * _aut_order(adj, refined[0])


def verify_arc_transitive(g: Graph, action: VertexAction) -> bool:
    """True iff the orbit of one arc under the generated group covers all
    arcs (BFS on arcs under the generator action)."""
    arcs_total = sum(len(nbrs) for nbrs in g.adj)
    if arcs_total == 0:
        return False
    start = (0, g.adj[0][0])
    seen = {start}
    queue = deque([start])
    while queue:
        u, v = queue.popleft()
        for p in action.gen_perms:
            arc = (p(u), p(v))
            if arc not in seen:
                seen.add(arc)
                queue.append(arc)
    return len(seen) == arcs_total
