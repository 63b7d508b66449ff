"""networkx's VF2 as an independent oracle for the isomorphism and
automorphism searches of ``graphalg``.

VF2 shares no code with the refinement search.  It is slow on large
vertex-transitive graphs, so two cases are reduced before it runs: the
gamma plus-vs-minus pairs pin vertex 0 to vertex 0, which loses nothing
because the minus graph is vertex-transitive (checked here from its
generators), and the crs graphs above 256 vertices (crs(8,6), 512
vertices, takes about 30 s of VF2, and crs(10,5), 320 vertices, over a
minute) have their isomorphism checked edge by edge with networkx
instead.  Larger gamma members are checked against the paper's |Aut| =
t*2^(2t+3) and the pruning of the isomorphism search is pinned by a count
of its branches.

The refinement itself has a second oracle, ``reference_refine``, its
column-at-a-time predecessor: the two must give the same colourings and
the same records byte for byte, so every search tree stays the same.
"""

import math
import random
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from tetrasym import cli, families, graphalg
from tetrasym.cosetgraph import Graph
from tetrasym.extragrp import MAX_T, MINUS, PLUS
from tetrasym.graphalg import automorphism_group_order, isomorphic
from tetrasym.permgrp import Permutation


def nx_graph(g: Graph, pinned=None) -> nx.Graph:
    """g as a networkx graph; a vertex equal to ``pinned`` gets the only
    true ``pin`` attribute."""
    out = nx.Graph()
    out.add_nodes_from(range(g.n), pin=False)
    out.add_edges_from(g.edges())
    if pinned is not None:
        out.nodes[pinned]["pin"] = True
    return out


def maps_edges_onto(g1: Graph, g2: Graph, mapping) -> bool:
    """networkx's check that mapping carries g1 onto g2."""
    image = nx.relabel_nodes(nx_graph(g1), {v: mapping(v) for v in range(g1.n)})
    return nx.utils.graphs_equal(image, nx_graph(g2))


def self_isomorphisms(g: Graph) -> int:
    graph = nx_graph(g)
    return sum(1 for _ in GraphMatcher(graph, graph).isomorphisms_iter())


def vertex_orbit(n, perms, v=0):
    orbit, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for p in perms:
            if p[u] not in orbit:
                orbit.add(int(p[u]))
                stack.append(int(p[u]))
    return orbit


CRS_PAIRS = [(r, s) for r in range(4, 9) for s in range(2, r - 1)]
# the bases crs(2t, t) that the cover check builds directly: every t whose
# z-quotient, t*2^(t+1) vertices, is within the isomorphism cap
COVER_BASES = [(2 * t, t) for t in range(2, MAX_T + 1)
               if t * 2 ** (t + 1) <= cli._ISO_CAP]


@pytest.mark.parametrize("r, s", CRS_PAIRS + [p for p in COVER_BASES
                                              if p not in CRS_PAIRS])
def test_crs_direct_vs_coset_agrees_with_vf2(fam, r, s):
    direct, coset = families.praeger_xu_direct(r, s), fam.crs(r, s).graph
    mapping = isomorphic(direct, coset)
    assert mapping is not None
    assert maps_edges_onto(direct, coset, mapping)
    # isomorphic makes its result without Permutation's point-by-point
    # check; the checked constructor must accept the same images
    assert all(type(x) is int for x in mapping.images)
    assert mapping == Permutation(mapping.images)
    if direct.n <= 256:
        assert nx.is_isomorphic(nx_graph(direct), nx_graph(coset))


@pytest.mark.parametrize("t", [2, 3])
def test_gamma_plus_vs_minus_agrees_with_vf2(fam, t):
    plus, minus = fam.gamma(t, PLUS), fam.gamma(t, MINUS)
    assert isomorphic(plus.graph, minus.graph) is None
    # Any isomorphism composed with an automorphism of the vertex-transitive
    # minus graph sends vertex 0 to vertex 0, so the pinned search is complete.
    assert vertex_orbit(minus.graph.n, minus.action.images) == set(range(minus.graph.n))
    matcher = GraphMatcher(nx_graph(plus.graph, pinned=0),
                           nx_graph(minus.graph, pinned=0),
                           node_match=lambda a, b: a["pin"] == b["pin"])
    assert not matcher.is_isomorphic()


@pytest.mark.parametrize("graph", [
    nx.hypercube_graph(4), nx.petersen_graph(), nx.dodecahedral_graph(),
    nx.circulant_graph(10, [1, 3]), nx.circulant_graph(12, [1, 5]),
    nx.circulant_graph(13, [1, 5]),
], ids=["Q4", "petersen", "dodecahedron", "C10(1,3)", "C12(1,5)", "C13(1,5)"])
def test_aut_order_vertex_transitive_agrees_with_vf2(graph):
    g = from_nx(graph)
    assert automorphism_group_order(g) == self_isomorphisms(g)


def shrikhande():
    steps = [(0, 1), (1, 0), (1, 1), (0, 3), (3, 0), (3, 3)]
    return nx.Graph([(4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
                     for a in range(4) for b in range(4) for da, db in steps])


# Regular graphs whose equitable partitions are coarser than their orbits,
# so the searches meet branches that fail and must be ruled out.
REGULAR = {
    "frucht": nx.frucht_graph(),
    "C3+C4": nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(4)),
    "K33+prism": nx.disjoint_union(nx.complete_bipartite_graph(3, 3),
                                   nx.circular_ladder_graph(3)),
    "rook4x4": nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4)),
    "shrikhande": shrikhande(),
    **{"cubic12-%d" % seed: nx.random_regular_graph(3, 12, seed=seed) for seed in range(4)},
    **{"quartic14-%d" % seed: nx.random_regular_graph(4, 14, seed=seed) for seed in range(2)},
}


def from_nx(graph) -> Graph:
    graph = nx.convert_node_labels_to_integers(graph)
    return Graph.from_edges(graph.number_of_nodes(), graph.edges())


def shuffled(g: Graph, seed: int) -> Graph:
    images = list(range(g.n))
    random.Random(seed).shuffle(images)
    return Graph.from_edges(g.n, [(images[u], images[v]) for u, v in g.edges()])


@pytest.mark.parametrize("name", sorted(REGULAR))
def test_search_on_regular_graphs_agrees_with_vf2(name):
    g = from_nx(REGULAR[name])
    count = self_isomorphisms(g)
    for seed in range(3):
        h = shuffled(g, seed)
        assert automorphism_group_order(h) == count
        mapping = isomorphic(g, h)
        assert mapping is not None and maps_edges_onto(g, h, mapping)


def test_rook_and_shrikhande():
    # Strongly regular with the same parameters, so refinement alone never
    # tells them apart, not even with one vertex of each individualised: in
    # their disjoint union, branches into the wrong component pass the first
    # refinement and fail only deeper down.
    rook, shri = from_nx(REGULAR["rook4x4"]), from_nx(REGULAR["shrikhande"])
    assert not nx.is_isomorphic(nx_graph(rook), nx_graph(shri))
    assert isomorphic(rook, shuffled(shri, 0)) is None
    union = from_nx(nx.disjoint_union(REGULAR["rook4x4"], REGULAR["shrikhande"]))
    for seed in range(4):
        h = shuffled(union, seed)
        mapping = isomorphic(union, h)
        assert mapping is not None and maps_edges_onto(union, h, mapping)
    # the components are not isomorphic, so Aut is the product
    assert automorphism_group_order(union) == self_isomorphisms(rook) * self_isomorphisms(shri)


@st.composite
def small_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


def assert_isomorphic_agrees_with_vf2(g, images, pairs):
    """isomorphic against VF2 on g relabelled by images and on the graph
    of g's size made of the first pairs."""
    relabelled = Graph.from_edges(g.n, [(images[u], images[v]) for u, v in g.edges()])
    other = Graph.from_edges(g.n, pairs[:g.num_edges])
    for h in (relabelled, other):
        mapping = isomorphic(g, h)
        assert (mapping is not None) == nx.is_isomorphic(nx_graph(g), nx_graph(h))
        if mapping is not None:
            assert maps_edges_onto(g, h, mapping)


@settings(max_examples=150, deadline=None)
@given(small_graphs(9), st.data())
def test_isomorphic_agrees_with_vf2(g, data):
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    assert_isomorphic_agrees_with_vf2(g, data.draw(st.permutations(range(g.n))),
                                      data.draw(st.permutations(pairs)))


def wheel(spokes):
    return from_nx(nx.wheel_graph(spokes + 1))


# The corners of the hypothesis cases, run every time: one vertex, no
# edges, degrees that differ, and the largest degree (8) that 9 vertices
# allow.
CORNERS = {
    "n=1": Graph.from_edges(1, []),
    "edgeless": Graph.from_edges(6, []),
    "non-regular": Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]),
    "wheel8": wheel(8),
    "K9": from_nx(nx.complete_graph(9)),
}


@pytest.mark.parametrize("name", sorted(CORNERS))
def test_isomorphic_agrees_with_vf2_on_corner_cases(name):
    g = CORNERS[name]
    rng = random.Random(name)
    images = rng.sample(range(g.n), g.n)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    assert_isomorphic_agrees_with_vf2(g, images, rng.sample(pairs, len(pairs)))


@settings(max_examples=40, deadline=None)
@given(small_graphs(8))
@example(CORNERS["n=1"])
@example(CORNERS["edgeless"])
@example(CORNERS["non-regular"])
@example(wheel(7))
def test_aut_order_counts_vf2_self_isomorphisms(g):
    assert automorphism_group_order(g) == self_isomorphisms(g)


@pytest.mark.parametrize("t", [4, 5])
def test_aut_order_of_relabelled_gamma_minus(fam, t):
    g = shuffled(fam.gamma(t, MINUS).graph, t)
    assert automorphism_group_order(g, cap=g.n) == t * 2 ** (2 * t + 3)


def test_plus_vs_minus_tries_one_top_level_branch(fam, monkeypatch):
    # The minus graph is vertex-transitive, so once the first branch fails
    # its automorphisms rule out every other top-level branch.  A top-level
    # branch is a refinement that replays level 1 of the plus graph's path,
    # the first path the search computes.
    paths, top_level = [], []
    real_path, real_refine = graphalg._path, graphalg._refine

    def path(pad):
        paths.append(real_path(pad))
        return paths[-1]

    def refine(pad, colours, script=None):
        if script is not None and script is paths[0][1].records:
            top_level.append(colours)
        return real_refine(pad, colours, script)

    monkeypatch.setattr(graphalg, "_path", path)
    monkeypatch.setattr(graphalg, "_refine", refine)
    plus, minus = fam.gamma(4, PLUS).graph, shuffled(fam.gamma(4, MINUS).graph, 4)
    assert isomorphic(plus, minus) is None
    assert len(paths) == 2  # the plus graph's, then the minus graph's for Aut
    assert len(top_level) == 1


def complement(g: Graph) -> Graph:
    edges = set(g.edges())
    return Graph.from_edges(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                                  if (u, v) not in edges])


@pytest.mark.parametrize("t, orders", [(2, (256, 2304)), (3, (1536, 1536))])
def test_search_on_dense_complements(fam, t, orders):
    # Degree n - 5 makes a refinement key too long to pack into one int64,
    # so these runs take the refinement's rank-as-you-fold path.  A graph
    # and its complement have the same automorphisms.
    plus, minus = (complement(fam.gamma(t, sign).graph) for sign in (PLUS, MINUS))
    assert (plus.n + 1) ** (plus.n - 5) > 2 ** 63
    assert (automorphism_group_order(plus), automorphism_group_order(minus)) == orders
    assert isomorphic(plus, shuffled(minus, t)) is None
    h = shuffled(minus, t)
    mapping = isomorphic(minus, h)
    assert mapping is not None and maps_edges_onto(minus, h, mapping)


def test_search_deeper_than_the_recursion_limit():
    # Every level of an edgeless graph's first path individualises one more
    # vertex, so the path has n - 1 levels, more than the interpreter allows
    # frames.
    g = Graph.from_edges(1100, [])
    assert len(graphalg._path(g.rows)) > sys.getrecursionlimit()
    assert automorphism_group_order(g, cap=g.n) == math.factorial(g.n)
    assert isomorphic(g, shuffled(g, 0)) is not None


def test_aut_order_of_a_wreath_graph_with_many_twins(fam):
    # Twins (vertices with the same neighbours) are never split by
    # refinement, so the first path individualises one vertex of each of
    # the 600 twin pairs; each level's orbit is found by its transposition.
    w = fam.wreath(600).graph
    assert automorphism_group_order(w, cap=w.n) == 2 ** 600 * 2 * 600
    h = shuffled(w, 0)
    mapping = isomorphic(w, h)
    assert mapping is not None and maps_edges_onto(w, h, mapping)


# -- the refinement against its whole-array predecessor ----------------------

def reference_refine(pad, colours, script=None):
    """The refinement as it was before its rounds shared one key matrix and
    one product fold: a column_stack of the keys each round, folded one
    column at a time, ranked with np.unique between columns whenever the
    next column could overflow."""
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


def assert_refines_as_reference(pad, colours, script=None):
    """_refine and reference_refine agree on the colouring and the records,
    or both return None; returns the reference's result."""
    expected = reference_refine(pad, colours, script)
    got = graphalg._refine(pad, colours, script)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert np.array_equal(got[0], expected[0]) and got[0].dtype == np.int64
        assert got[1] == expected[1]
    return expected


def assert_path_refines_as_reference(pad):
    """Both refinements along the reference's first path (each level
    individualises the least vertex of the least largest colour class);
    returns the path's records."""
    colours = np.zeros(len(pad), np.int64)
    records = []
    while True:
        colours, level = assert_refines_as_reference(pad, colours)
        records.append(level)
        sizes = np.bincount(colours)
        if sizes.max() == 1:
            return records
        target = int(sizes.argmax())
        colours = graphalg._individualise(colours, int(np.flatnonzero(colours == target)[0]))


def search_workload_pairs(fam):
    """The graphs of the benchmark's search workload: each criterion-11 aut
    target relabelled, and each criterion-12 pair with its second graph
    relabelled."""
    aut = [fam.wreath(4).graph] + [fam.gamma(t, sign).graph
                                   for t in (2, 3) for sign in (PLUS, MINUS)]
    pairs = [(fam.gamma(2, PLUS).graph, fam.crs(4, 3).graph)]
    pairs += [(fam.gamma(t, PLUS).graph, fam.gamma(t, MINUS).graph) for t in (2, 3, 4)]
    pairs += [(families.praeger_xu_direct(r, s), fam.crs(r, s).graph) for r, s in CRS_PAIRS]
    return [(g, shuffled(g, i)) for i, g in enumerate(aut)] + [
        (g1, shuffled(g2, i)) for i, (g1, g2) in enumerate(pairs)]


def test_refine_matches_reference_on_the_search_workload(fam):
    # every first path of both graphs of each pair, and the second graph's
    # replay of the first graph's records at each level of its path
    for g1, g2 in search_workload_pairs(fam):
        path = assert_path_refines_as_reference(g1.rows)
        assert_path_refines_as_reference(g2.rows)
        zeros = np.zeros(g2.n, np.int64)
        for records in path:
            assert_refines_as_reference(g2.rows, zeros, records)


def test_refine_matches_reference_on_seeded_colourings(fam):
    members = [fam.gamma(3, PLUS).graph, fam.gamma(4, MINUS).graph, fam.crs(6, 3).graph,
               fam.wreath(4).graph, families.praeger_xu_direct(8, 6)]
    for g in members:
        rng = np.random.default_rng(g.n)
        for _ in range(20):
            drawn = rng.integers(0, rng.integers(1, g.n + 1), g.n)
            colours = np.unique(drawn, return_inverse=True)[1].astype(np.int64)
            assert_refines_as_reference(g.rows, colours)


@pytest.mark.parametrize("t", [2, 3])
def test_refine_matches_reference_on_dense_complements(fam, t):
    # degree n - 5: once there are more than a few colours, a key of n - 4
    # columns takes several integer products with a rank between each two
    for sign in (PLUS, MINUS):
        g = complement(fam.gamma(t, sign).graph)
        assert g.n ** (g.n - 4) > 2 ** 63
        assert_path_refines_as_reference(g.rows)


def test_refine_matches_reference_past_one_product(fam):
    # A 4-regular circulant with more than 6,208 colours: base**5 > 2**63,
    # so the five key columns take two products and a rank between them.
    n = 6300
    g = from_nx(nx.circulant_graph(n, [1, 7]))
    colours = np.arange(n, dtype=np.int64) % 6250
    assert (int(colours.max()) + 2) ** 5 > 2 ** 63
    assert_refines_as_reference(g.rows, colours)
    assert_refines_as_reference(g.rows, graphalg._individualise(colours, 0))


def test_refine_replay_stops_at_the_reference_round(fam, monkeypatch):
    # A script whose record k alone differs fails at round k; one cut after
    # record k fails at round k + 1, which finds no record to match; one
    # record too many fails after the last round.  A degree-4 round of at
    # most 6,208 vertices ranks once, so _rank counts the rounds.
    g = shuffled(fam.gamma(3, MINUS).graph, 1)
    colours = graphalg._individualise(np.zeros(g.n, np.int64), 5)
    records = reference_refine(g.rows, colours)[1]
    assert len(records) > 2
    rounds, real_rank = [], graphalg._rank

    def rank(packed):
        rounds.append(1)
        return real_rank(packed)

    monkeypatch.setattr(graphalg, "_rank", rank)
    cases = [(records[:k] + [b"?"] + records[k + 1:], k + 1) for k in range(len(records))]
    cases += [(records[:k], k + 1) for k in range(len(records))]
    cases += [(records + [b"?"], len(records))]
    for script, stop in cases:
        rounds.clear()
        assert assert_refines_as_reference(g.rows, colours, script) is None
        assert len(rounds) == stop
