import itertools
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrasym import graphalg, permgrp
from tetrasym.cosetgraph import Graph, VertexAction, sphere
from tetrasym.families import (FamilySpec, build_family, central_block_words,
                               praeger_xu_direct)
from tetrasym.graphalg import (automorphism_group_order, girth, is_bipartite,
                               is_block, isomorphic, local_group,
                               quotient_by_subgroup_orbits,
                               verify_arc_transitive)
from tetrasym.permgrp import PermGroup, Permutation

from permgrp_reference import group_elements


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen():
    edges = ([(i, (i + 1) % 5) for i in range(5)]
             + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    return Graph.from_edges(10, edges)


def brute_force_girth(g):
    """Oracle: enumerate all simple cycles by DFS from each minimal start."""
    best = None
    n = g.n
    for start in range(n):
        stack = [(start, [start])]
        while stack:
            u, path = stack.pop()
            for w in g.adj[u]:
                if w == start and len(path) >= 3:
                    if best is None or len(path) < best:
                        best = len(path)
                elif w > start and w not in path:
                    stack.append((w, path + [w]))
    return best


graph_strategy = st.integers(4, 9).flatmap(
    lambda n: st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
            lambda e: (min(e), max(e))).filter(lambda e: e[0] != e[1]),
        max_size=14,
    ).map(lambda edges: Graph.from_edges(n, edges)))


# -- girth ---------------------------------------------------------------------

def test_girth_known_graphs():
    assert girth(complete_bipartite(4, 4)) == 4
    assert girth(cycle_graph(5)) == 5
    assert girth(petersen()) == 5
    assert girth(Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])) == 3


def test_girth_forest_raises():
    with pytest.raises(ValueError):
        girth(Graph.from_edges(4, [(0, 1), (1, 2)]))


@settings(max_examples=80, deadline=None)
@given(graph_strategy)
def test_girth_agrees_with_brute_force(g):
    expected = brute_force_girth(g)
    if expected is None:
        with pytest.raises(ValueError):
            girth(g)
    else:
        assert girth(g) == expected


def tuple_shortest_cycle_from(adj, root, best):
    """Oracle for graphalg._shortest_cycle_from: a parent-excluding BFS one
    vertex at a time over the neighbour tuples, cut off at the best cycle
    found so far (the library's BFS before it ran over the rows)."""
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


def all_roots_girth(g):
    """Oracle: the tuple BFS from every vertex, with the cutoff at the best
    cycle found so far (the library's path before it took one root per
    vertex orbit)."""
    best = None
    for root in range(g.n):
        best = tuple_shortest_cycle_from(g.adj, root, best)
    return best


def tuple_is_bipartite(g):
    """Oracle for is_bipartite: 2-colouring by a BFS one vertex at a time
    over the neighbour tuples (the library's version before it ran over the
    rows)."""
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


def tuple_sphere(g, v, i):
    """Oracle for cosetgraph.sphere: the vertices at distance exactly i
    from v, by a BFS one vertex at a time over the neighbour tuples."""
    dist = {v: 0}
    frontier = [v]
    for d in range(i):
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = d + 1
                    nxt.append(w)
        frontier = nxt
    return set(frontier)


def disjoint_union(g, h):
    return Graph.from_edges(g.n + h.n, g.edges() + [(u + g.n, v + g.n)
                                                    for u, v in h.edges()])


# the graphs of graph_strategy and disjoint unions of two of them
any_graph_strategy = st.one_of(
    graph_strategy, st.tuples(graph_strategy, graph_strategy).map(
        lambda pair: disjoint_union(*pair)))


def _assert_bfs_matches_tuple_bfs(g, roots):
    assert is_bipartite(g) == tuple_is_bipartite(g)
    for root in roots:
        for radius in range(5):
            assert sphere(g, root, radius) == tuple_sphere(g, root, radius)
        for best in (None, 3, 4, 5, 7, 8):
            assert (graphalg._shortest_cycle_from(g.rows, root, best)
                    == tuple_shortest_cycle_from(g.adj, root, best)), (root, best)


@settings(max_examples=80, deadline=None)
@given(any_graph_strategy)
def test_array_bfs_matches_tuple_bfs(g):
    _assert_bfs_matches_tuple_bfs(g, range(g.n))
    expected = all_roots_girth(g)
    if expected is None:
        with pytest.raises(ValueError):
            girth(g)
    else:
        assert girth(g) == expected


# every member that `tetrasym matrix` builds by default
_MATRIX_MEMBERS = (
    ["crs:r=%d,s=%d" % (r, s) for r in range(3, 9) for s in range(1, r)]
    + ["gamma:sign=%s,t=%d" % (sign, t) for t in range(2, 7)
       for sign in ("plus", "minus")]
    + ["delta:m=2", "wreath:r=4"])


@pytest.mark.parametrize("spec", _MATRIX_MEMBERS)
def test_array_bfs_matches_tuple_bfs_on_matrix_members(spec):
    g = build_family(FamilySpec.parse(spec)).graph
    _assert_bfs_matches_tuple_bfs(g, sorted({0, 1, g.n // 2, g.n - 1}))


def arc_orbit_oracle(g, action):
    """Oracle: the orbit of one arc, the first in adjacency order, by a BFS
    on arc pairs under the generators, one image lookup per arc end."""
    arcs_total = sum(len(nbrs) for nbrs in g.adj)
    if arcs_total == 0:
        return False
    start = next((u, nbrs[0]) for u, nbrs in enumerate(g.adj) if nbrs)
    seen = {start}
    queue = deque([start])
    while queue:
        u, v = queue.popleft()
        for p in action.images:
            arc = (int(p[u]), int(p[v]))
            if arc not in seen:
                seen.add(arc)
                queue.append(arc)
    return len(seen) == arcs_total


def matrix_members(fam):
    """The 39 members that the default acceptance matrix builds, plus
    wreath:r=3000 (6000 vertices under three generators)."""
    members = {"crs:r=%d,s=%d" % (r, s): fam.crs(r, s)
               for r in range(3, 9) for s in range(1, r)}
    members.update({"gamma:sign=%s,t=%d" % (sign, t): fam.gamma(t, sign)
                    for t in range(2, 7) for sign in ("plus", "minus")})
    members["delta:m=2"] = fam.delta(2)
    members["wreath:r=4"] = fam.wreath(4)
    assert len(members) == 39
    members["wreath:r=3000"] = fam.wreath(3000)
    return members


def test_orbit_checks_match_oracles_on_matrix_members(fam):
    for spec, fb in matrix_members(fam).items():
        assert girth(fb.graph, fb.action) == all_roots_girth(fb.graph), spec
        assert (verify_arc_transitive(fb.graph, fb.action)
                == arc_orbit_oracle(fb.graph, fb.action)), spec


@pytest.mark.parametrize("r", range(4, 9))
def test_girth_without_action_matches_oracle_on_direct_crs(r):
    for s in range(2, r - 1):
        g = praeger_xu_direct(r, s)
        assert girth(g) == all_roots_girth(g), (r, s)


def orbits_of(group) -> list:
    """The group's orbits as point sets, read off its orbit labels."""
    orbits = {}
    for x, label in enumerate(group.orbit_labels().tolist()):
        orbits.setdefault(label, set()).add(x)
    return list(orbits.values())


def c5_and_c4():
    """C5 and C4 side by side, each rotated by its own cycle: two vertex
    orbits of different girth."""
    g = Graph.from_edges(9, [(i, (i + 1) % 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 1) % 4) for i in range(4)])
    return g, VertexAction(g, (cyc(9, (0, 1, 2, 3, 4), (5, 6, 7, 8)),))


def test_girth_takes_least_over_orbits_of_different_girth():
    g, action = c5_and_c4()
    assert orbits_of(action.group) == [set(range(5)), set(range(5, 9))]
    assert girth(g, action) == 4 == all_roots_girth(g)
    assert not verify_arc_transitive(g, action)
    assert not arc_orbit_oracle(g, action)


def test_girth_runs_one_bfs_per_orbit(monkeypatch):
    g, action = c5_and_c4()
    roots = []
    bfs = graphalg._shortest_cycle_from

    def counting(adj, root, best):
        roots.append(root)
        return bfs(adj, root, best)

    monkeypatch.setattr(graphalg, "_shortest_cycle_from", counting)
    girth(g, action)
    assert roots == [0, 5]
    roots.clear()
    girth(g)
    assert roots == list(range(9))


def test_girth_and_arcs_reject_an_action_on_another_graph():
    action = VertexAction(cycle_graph(5), (cyc(5, (0, 1, 2, 3, 4)),))
    with pytest.raises(ValueError):
        girth(cycle_graph(6), action)
    with pytest.raises(ValueError):
        verify_arc_transitive(petersen(), action)


@settings(max_examples=80, deadline=None)
@given(graph_strategy)
def test_girth_with_identity_action_agrees_with_brute_force(g):
    expected = brute_force_girth(g)
    action = VertexAction(g, (Permutation.identity(g.n),))
    if expected is None:
        with pytest.raises(ValueError):
            girth(g, action)
    else:
        assert girth(g, action) == expected == all_roots_girth(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 40), st.integers(0, 39))
def test_girth_and_arcs_with_dihedral_action_on_a_cycle(n, shift):
    # rotation and a reflection of C_n, in a relabelling of the vertices
    images = list(range(n))
    random.Random(shift).shuffle(images)
    relabel = Permutation(images)
    g = cycle_graph(n).relabelled(relabel)
    rotation = Permutation([(i + 1) % n for i in range(n)])
    reflection = Permutation([(shift - i) % n for i in range(n)])
    gens = tuple(p.conjugate(relabel) for p in (rotation, reflection))
    action = VertexAction(g, gens)
    assert girth(g, action) == n == all_roots_girth(g)
    assert verify_arc_transitive(g, action)
    assert arc_orbit_oracle(g, action)
    # the rotation alone moves arcs one way round the cycle only
    assert not verify_arc_transitive(g, VertexAction(g, gens[:1]))


# -- bipartiteness ---------------------------------------------------------------

def test_bipartite_basics():
    assert is_bipartite(Graph.from_edges(2, [(0, 1)]))
    assert is_bipartite(complete_bipartite(3, 3))
    assert not is_bipartite(cycle_graph(5))
    assert is_bipartite(cycle_graph(6))


@settings(max_examples=50, deadline=None)
@given(graph_strategy)
def test_bipartite_matches_odd_cycle_search(g):
    has_odd_cycle = False
    for size in range(3, g.n + 1, 2):
        for verts in itertools.combinations(range(g.n), size):
            for order in itertools.permutations(verts[1:]):
                seq = (verts[0],) + order
                if all(seq[(i + 1) % size] in g.adj[seq[i]] for i in range(size)):
                    has_odd_cycle = True
                    break
            if has_odd_cycle:
                break
        if has_odd_cycle:
            break
    assert is_bipartite(g) == (not has_odd_cycle)


# every coset member of the default matrix, crs(9, 7), whose cosets have
# bytewise keys, and gamma t=7 in both signs
_COSET_MEMBERS = ([spec for spec in _MATRIX_MEMBERS if not spec.startswith("wreath")]
                  + ["crs:r=9,s=7", "gamma:sign=plus,t=7", "gamma:sign=minus,t=7"])


@pytest.mark.parametrize("spec", _COSET_MEMBERS)
def test_bipartiteness_reads_the_build_levels(spec):
    g = build_family(FamilySpec.parse(spec)).graph
    dist = np.full(g.n + 1, -1, dtype=np.int64)
    for _ in graphalg._levels(g.rows, 0, dist):
        pass
    levels = graphalg._bfs_levels(g)
    assert levels.dtype == np.int8
    assert np.array_equal(levels[:-1], dist[:-1])
    # the pad slot is one level past the deepest
    assert levels[-1] == len(g._level_sizes) == dist.max() + 1
    copy = g.relabelled(np.random.default_rng(0).permutation(g.n))
    assert copy._level_sizes is None
    assert is_bipartite(g) == tuple_is_bipartite(g)
    assert is_bipartite(copy) == tuple_is_bipartite(copy)


def test_graph_equality_ignores_the_level_sizes():
    g = build_family(FamilySpec.parse("gamma:t=3,sign=minus")).graph
    plain = Graph(g.n, g.rows, g.labels)
    assert plain._level_sizes is None and g._level_sizes is not None
    assert plain == g and hash(plain) == hash(g)
    with pytest.raises(ValueError, match="^level sizes sum to 3, not n = 96$"):
        plain._take_levels((1, 2))


def test_bipartite_runs_no_bfs_on_a_coset_graph(monkeypatch):
    roots = []
    levels = graphalg._levels

    def counting(rows, root, dist):
        roots.append(root)
        return levels(rows, root, dist)

    monkeypatch.setattr(graphalg, "_levels", counting)
    assert is_bipartite(build_family(FamilySpec.parse("gamma:t=3,sign=minus")).graph)
    assert not is_bipartite(build_family(FamilySpec.parse("delta:m=2")).graph)
    assert roots == []
    # a 6-cycle, a 5-cycle, an isolated vertex and an edge: one BFS each
    g = disjoint_union(disjoint_union(cycle_graph(6), cycle_graph(5)),
                       Graph.from_edges(3, [(1, 2)]))
    assert not is_bipartite(g)
    assert roots == [0, 6, 11, 12]


@pytest.mark.parametrize("chunk", [1, 5, 7])
def test_bipartite_does_not_depend_on_the_rows_per_slice(monkeypatch, chunk):
    monkeypatch.setattr(graphalg, "_CHUNK", chunk)
    graphs = [build_family(FamilySpec.parse(spec)).graph
              for spec in ("gamma:t=2,sign=minus", "crs:r=5,s=2", "crs:r=6,s=3")]
    graphs += [g.relabelled(np.random.default_rng(1).permutation(g.n)) for g in graphs]
    # the odd cycle lies in the last slice
    graphs += [disjoint_union(cycle_graph(6), cycle_graph(5)), cycle_graph(11)]
    for g in graphs:
        assert is_bipartite(g) == tuple_is_bipartite(g)


# -- quotients -------------------------------------------------------------------

def wreath4():
    from tetrasym.families import wreath_graph
    return wreath_graph(4)


def test_quotient_by_trivial_subgroup():
    fb = wreath4()
    rep = quotient_by_subgroup_orbits(fb.graph, fb.action, [])
    assert rep.quotient.n == fb.graph.n
    assert rep.quotient == Graph(fb.graph.n, fb.graph.adj)
    assert rep.fibre_size == 1
    assert rep.is_local_bijection


def test_quotient_of_wreath_by_all_fibre_swaps():
    fb = wreath4()
    x0, a, _ = map(Permutation, fb.action.images)
    x1, x2, x3 = (x0.conjugate(a ** k) for k in (1, 2, 3))
    total_swap = x0 * x1 * x2 * x3
    rep = quotient_by_subgroup_orbits(fb.graph, fb.action, [total_swap])
    assert rep.quotient.n == 4
    assert rep.fibre_size == 2
    assert not rep.is_local_bijection  # 4 neighbours fold onto 2 fibres


def test_quotient_refuses_a_normal_generator_that_is_not_a_bijection():
    # z's vertex map with one image repeated: its chain would never end
    fb = build_family(FamilySpec.parse("gamma:t=3,sign=minus"))
    z = fb.coset.images_of(fb.group.z)
    assert quotient_by_subgroup_orbits(fb.graph, fb.action, [z]).fibre_size == 2
    folded = z.copy()
    folded[0] = folded[1]
    with pytest.raises(ValueError, match="not a bijection"):
        quotient_by_subgroup_orbits(fb.graph, fb.action, [folded])


def test_quotient_rejects_non_normal_subgroup():
    fb = wreath4()
    x0 = fb.action.images[0]
    for gen in (x0, Permutation(x0)):  # an image array and a Permutation
        with pytest.raises(ValueError, match="not normal"):
            quotient_by_subgroup_orbits(fb.graph, fb.action, [gen])


# -- local groups -----------------------------------------------------------------

def test_local_group_of_square():
    g = cycle_graph(4)
    rot = cyc(4, (0, 1, 2, 3))
    flip = cyc(4, (1, 3))
    action = VertexAction(g, (rot, flip))
    lg = local_group(action, 0)
    assert lg.order() == 2


def test_local_group_of_a_regular_action_is_trivial():
    # the rotations alone act regularly: the vertex stabiliser is trivial,
    # and so is the group it induces on the two neighbours
    action = VertexAction(cycle_graph(4), (cyc(4, (0, 1, 2, 3)),))
    lg = local_group(action, 0)
    assert lg.degree == 2 and lg.arrays() == []
    assert lg.order() == 1
    assert not lg.is_transitive()


# -- blocks -----------------------------------------------------------------------

def test_block_basics():
    g = cycle_graph(4)
    action = VertexAction(g, (cyc(4, (0, 1, 2, 3)),))
    assert is_block(action, {0})
    assert is_block(action, {0, 1, 2, 3})
    assert is_block(action, {0, 2})
    assert not is_block(action, {0, 1})


def test_block_requires_transitive():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    action = VertexAction(g, (cyc(4, (0, 1)),))
    with pytest.raises(ValueError):
        is_block(action, {0, 1})


def block_by_definition(elements, S):
    """Oracle: S is a block iff every element maps S onto S or off it."""
    for g in elements:
        image = {g.images[v] for v in S}
        if image != S and not image.isdisjoint(S):
            return False
    return True


@pytest.mark.parametrize("text", ["gamma:t=3,sign=plus", "gamma:t=3,sign=minus",
                                  "crs:r=6,s=3", "wreath:r=5"])
def test_is_block_matches_definition(text):
    fb = build_family(FamilySpec.parse(text))
    group, n = fb.action.group, fb.graph.n
    elements = group_elements(group.arrays(), n)
    # the orbits of a normal subgroup are blocks: here the normal closure of
    # the first action generator (the fibre swaps, or gamma's 2-group part)
    # and, for gamma, the centre <z>
    x0 = Permutation(fb.action.images[0])
    closure = PermGroup([x0.conjugate(g) for g in elements], degree=n)
    blocks = [{0}, set(range(n))] + orbits_of(closure)
    rng = random.Random(text)
    others = [set(rng.sample(range(n), rng.randint(2, n // 2))) for _ in range(40)]
    others += [group.min_block(rng.sample(range(n), 2)) for _ in range(10)]
    if fb.group is not None:
        blocks += orbits_of(PermGroup([fb.coset.images_of(fb.group.z)]))
        others.append({fb.coset.vertices_of([w])[0] for w in central_block_words(fb.group)})
    for S in blocks:
        assert block_by_definition(elements, frozenset(S))
        assert is_block(fb.action, S)
    verdicts = [block_by_definition(elements, frozenset(S)) for S in others]
    assert set(verdicts) == {True, False}
    assert [is_block(fb.action, S) for S in others] == verdicts


# -- isomorphism -------------------------------------------------------------------

def test_isomorphic_distinguishes_cubic_pairs():
    k33 = complete_bipartite(3, 3)
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                 (5, 3), (0, 3), (1, 4), (2, 5)])
    assert isomorphic(k33, prism) is None


def test_isomorphic_rejects_different_sizes():
    assert isomorphic(cycle_graph(4), cycle_graph(5)) is None
    assert isomorphic(cycle_graph(4), complete_bipartite(2, 2)) is not None


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(10)))
def test_isomorphic_finds_witness_after_relabelling(images):
    g = petersen()
    h = g.relabelled(Permutation(images))
    m = isomorphic(g, h)
    assert m is not None
    for u in range(g.n):
        assert {m(w) for w in g.adj[u]} == set(h.adj[m(u)])


def test_isomorphism_cap():
    n = 5001
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    with pytest.raises(ValueError):
        isomorphic(g, g)


# -- automorphism groups -------------------------------------------------------------

def test_aut_orders_known():
    assert automorphism_group_order(complete_bipartite(4, 4)) == 1152
    assert automorphism_group_order(cycle_graph(5)) == 10
    assert automorphism_group_order(petersen()) == 120
    assert automorphism_group_order(complete_bipartite(3, 3)) == 72


@settings(max_examples=15, deadline=None)
@given(st.permutations(range(10)))
def test_aut_order_invariant_under_relabelling(images):
    g = petersen().relabelled(Permutation(images))
    assert automorphism_group_order(g) == 120


def test_aut_cap():
    n = graphalg.AUT_CAP + 1
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    with pytest.raises(ValueError, match="capped at %d vertices" % graphalg.AUT_CAP):
        automorphism_group_order(g)


# -- arc transitivity ----------------------------------------------------------------

def test_path_with_identity_action_not_arc_transitive():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    action = VertexAction(g, (Permutation.identity(3),))
    assert not verify_arc_transitive(g, action)


def test_wreath3_arc_transitive():
    from tetrasym.families import wreath_graph
    fb = wreath_graph(3)
    assert verify_arc_transitive(fb.graph, fb.action)


def test_cycle_graph_arc_transitive_with_dihedral_action():
    g = cycle_graph(5)
    action = VertexAction(g, (cyc(5, (0, 1, 2, 3, 4)), cyc(5, (1, 4), (2, 3))))
    assert verify_arc_transitive(g, action)


def test_coset_members_are_certified_without_arc_numbers(fam, monkeypatch):
    # a coset graph's H fixes vertex 0 and is transitive on its neighbours,
    # so the local certificate answers without numbering an arc
    def refuse(*args):
        raise AssertionError("the arc orbit ran")

    monkeypatch.setattr(graphalg, "_arc_numbers", refuse)
    for spec, fb in matrix_members(fam).items():
        if not spec.startswith("wreath"):
            assert verify_arc_transitive(fb.graph, fb.action), spec


def counting_arc_orbit(monkeypatch):
    """Wrap graphalg._arc_orbit; returns the list of its answers."""
    answers = []
    arc_orbit = graphalg._arc_orbit

    def counting(g, group):
        answers.append(arc_orbit(g, group))
        return answers[-1]

    monkeypatch.setattr(graphalg, "_arc_orbit", counting)
    return answers


@pytest.mark.parametrize("r", [4, 3000])
def test_wreath_actions_reach_the_arc_orbit(fam, monkeypatch, r):
    # of the wreath generators only b fixes vertex 0, and it is not
    # transitive on vertex 0's neighbours
    fb = fam.wreath(r)
    answers = counting_arc_orbit(monkeypatch)
    assert verify_arc_transitive(fb.graph, fb.action)
    assert answers == [arc_orbit_oracle(fb.graph, fb.action)]


@pytest.mark.parametrize("t", range(7, 11))
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_certificate_and_arc_orbit_agree_on_large_gamma(fam, t, sign):
    fb = fam.gamma(t, sign)
    group = fb.action.group
    assert graphalg._locally_arc_transitive(fb.graph, group)
    assert graphalg._arc_orbit(fb.graph, group)


def c5_with_isolated_vertex(isolated):
    """A 5-cycle on five of six vertices, the other one isolated, under the
    dihedral group of the cycle (whose reflection fixes the cycle's least
    vertex)."""
    cycle = [v for v in range(6) if v != isolated]
    g = Graph.from_edges(6, [(cycle[i], cycle[(i + 1) % 5]) for i in range(5)])
    reflection = cyc(6, (cycle[1], cycle[4]), (cycle[2], cycle[3]))
    return g, VertexAction(g, (cyc(6, tuple(cycle)), reflection))


def rotated_cycle(n):
    g = cycle_graph(n)
    return g, VertexAction(g, (Permutation([(i + 1) % n for i in range(n)]),))


def edgeless():
    g = Graph.from_edges(4, [])
    return g, VertexAction(g, (cyc(4, (0, 1, 2, 3)),))


def k4_with_intransitive_fixer():
    """K4 under (0 1 2 3) and (2 3): S4, arc-transitive, but its one
    generator fixing vertex 0 splits 0's neighbours into {1} and {2, 3}."""
    g = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))
    return g, VertexAction(g, (cyc(4, (0, 1, 2, 3)), cyc(4, (2, 3))))


def c5_and_c4_reflected():
    """c5_and_c4 with the C5's reflection fixing vertex 0 added: the
    generators fixing 0 are transitive on its neighbours, but the group is
    not vertex-transitive and has two orbits on the arcs."""
    g, action = c5_and_c4()
    return g, VertexAction(g, action.images + (cyc(9, (1, 4), (2, 3)),))


def dihedral_c5():
    g = cycle_graph(5)
    return g, VertexAction(g, (cyc(5, (0, 1, 2, 3, 4)), cyc(5, (1, 4), (2, 3))))


# (graph and action, one orbit on the arcs, decided by the arc orbit)
_ARC_EDGE_CASES = {
    "c5+isolated-0": (lambda: c5_with_isolated_vertex(0), True, True),
    "c5+isolated-5": (lambda: c5_with_isolated_vertex(5), True, True),
    "c5-and-c4": (c5_and_c4, False, True),
    "c5-and-c4-reflected": (c5_and_c4_reflected, False, True),
    "c7-rotation": (lambda: rotated_cycle(7), False, True),
    "edgeless": (edgeless, False, True),
    "k4-intransitive-fixer": (k4_with_intransitive_fixer, True, True),
    "c5-dihedral": (dihedral_c5, True, False),
}


@pytest.mark.parametrize("case", sorted(_ARC_EDGE_CASES))
def test_arc_transitivity_edge_cases(monkeypatch, case):
    make, expected, by_arc_orbit = _ARC_EDGE_CASES[case]
    g, action = make()
    answers = counting_arc_orbit(monkeypatch)
    assert verify_arc_transitive(g, action) == expected
    assert arc_orbit_oracle(g, action) == expected
    assert answers == ([expected] if by_arc_orbit else [])


def _vertex_labellings(monkeypatch, spec, girth_):
    """How often the vertex orbits of spec's action are labelled while the
    girth, the arc certificate and the group's orbit queries read them."""
    fb = build_family(FamilySpec.parse(spec))
    calls = []
    label = permgrp.orbit_labels

    def counting(gens, degree):
        calls.append(degree)
        return label(gens, degree)

    monkeypatch.setattr(permgrp, "orbit_labels", counting)
    group = fb.action.group
    assert girth(fb.graph, fb.action) == girth_
    assert verify_arc_transitive(fb.graph, fb.action)
    assert group.is_transitive()
    assert orbits_of(group) == [set(range(fb.graph.n))]
    with pytest.raises(ValueError):
        group.orbit_labels()[0] = 1
    return calls.count(fb.graph.n)


def test_a_group_labels_its_vertex_orbits_once(monkeypatch):
    # a wreath action carries no proof of transitivity: its group labels
    # its vertex orbits on first use and keeps the labels
    assert _vertex_labellings(monkeypatch, "wreath:r=4", 4) == 1


def test_a_coset_action_labels_no_vertex_orbits(monkeypatch):
    # a coset build has reached every coset from H, so its action's group
    # starts with the labels all zero
    assert _vertex_labellings(monkeypatch, "gamma:sign=minus,t=3", 8) == 0


def searchsorted_arc_numbers(g, p):
    """Oracle: the numbering that verify_arc_transitive used before, the
    rank of each image arc's code p(u)*n + p(v) among the sorted arc codes,
    found by binary search."""
    tails, heads = g.arcs
    return np.searchsorted(tails * g.n + heads, p[tails] * g.n + p[heads])


def star_with_tail():
    """A non-regular graph: a centre with three leaves, one of them
    extended by a path of two more vertices, and the swap of the two plain
    leaves as its automorphism."""
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    return g, [cyc(6, (1, 2)), Permutation.identity(6)]


@pytest.mark.parametrize("spec", ["crs:r=5,s=2", "gamma:sign=minus,t=3",
                                  "wreath:r=4", "delta:m=2", "star-with-tail"])
def test_arc_numbers_match_binary_search(spec):
    if spec == "star-with-tail":
        g, perms = star_with_tail()
    else:
        fb = build_family(FamilySpec.parse(spec))
        g, perms = fb.graph, fb.action.images
    pad = g.rows
    tails, heads = g.arcs
    first = np.searchsorted(tails, np.arange(g.n))  # each vertex's first arc

    def numbers(p):
        return graphalg._arc_numbers(pad, first, p[tails], p[heads])

    assert np.array_equal(numbers(np.arange(g.n)), np.arange(len(tails)))
    for p in perms:
        images = np.asarray(p, dtype=np.int64)
        assert np.array_equal(numbers(images), searchsorted_arc_numbers(g, images))


def test_cover_arithmetic_and_quotient_regularity():
    from tetrasym.families import gamma
    fb = gamma(3, "minus")
    z = fb.coset.images_of(fb.group.z)
    rep = quotient_by_subgroup_orbits(fb.graph, fb.action, [z])
    assert rep.fibre_size * rep.quotient.n == fb.graph.n
    assert rep.is_local_bijection
    assert rep.quotient.is_regular(4)


def test_checks_refuse_an_action_on_another_graph():
    # gamma t=3's two signs have 96 vertices each, so the minus action's
    # generators are vertex maps of the plus graph too
    from tetrasym.families import gamma
    plus, minus = gamma(3, "plus"), gamma(3, "minus")
    z = minus.coset.images_of(minus.group.z)
    for check in (lambda: quotient_by_subgroup_orbits(plus.graph, minus.action, [z]),
                  lambda: girth(plus.graph, minus.action),
                  lambda: verify_arc_transitive(plus.graph, minus.action)):
        with pytest.raises(ValueError, match="^the action is not on this graph$"):
            check()
