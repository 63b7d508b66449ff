import dataclasses
import hashlib
import json
import numbers
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetrasym import cosetgraph
from tetrasym.cli import CHECK_NAMES, family_checks
from tetrasym.cosetgraph import (Graph, GroupIface, SabidussiReport,
                                 VertexAction, build_coset_graph,
                                 edge_list_text, min_rows, row_keys, sphere,
                                 to_dot, to_json_obj, validate_corefree)
from tetrasym.extragrp import PLUS, SIGNS, GElt, extension_group
from tetrasym.families import FamilySpec, build_family
from tetrasym.permgrp import Permutation, orbit_labels

from coset_reference import coset_reps


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def gamma_iface(t, sign):
    grp = extension_group(t, sign)
    gens = tuple(grp.x(i) for i in range(t)) + (grp.b,)
    return grp, GroupIface(generators=gens, identity=grp.identity,
                           order=grp.order)


# -- Graph type ---------------------------------------------------------------

def test_graph_rejects_loops():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


@pytest.mark.parametrize("edge, message", [
    ((0, 5), "neighbour 5 out of range"),
    ((5, 0), "neighbour 5 out of range"),
    ((0, -1), "neighbour -1 out of range"),
    ((0, 1.5), "neighbour 1.5 not an integer"),
])
def test_graph_from_edges_names_an_end_out_of_range(edge, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        Graph.from_edges(3, [edge])


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError):
        Graph(2, ((1,), ()))


def test_graph_keeps_no_reference_to_a_list_adjacency():
    # a list of lists given as the adjacency is kept as tuples, so the
    # caller's later edits reach neither adj nor rows
    adj = [[1, 3], [0, 2], [1, 3], [0, 2]]
    g = Graph(4, adj)
    adj[0].append(2)
    adj.append([])
    assert g.adj == ((1, 3), (0, 2), (1, 3), (0, 2))
    assert g.rows[0].tolist() == [1, 3]


def test_graph_rejects_unsorted_neighbours():
    with pytest.raises(ValueError):
        Graph(3, ((2, 1), (0,), (0,)))


def _scalar_graph_error(n, adj):
    """The first error of a vertex-by-vertex validation, the oracle for the
    array checks: None for a valid adjacency.  An id that is not an integer
    is named before any other fault."""
    for nbrs in adj:
        for v in nbrs:
            if not isinstance(v, numbers.Integral):
                return "neighbour %s not an integer" % v
    for u, nbrs in enumerate(adj):
        if list(nbrs) != sorted(set(nbrs)):
            return "neighbour list of %d not sorted/duplicate-free" % u
        for v in nbrs:
            if not 0 <= v < n:
                return "neighbour %d out of range" % v
            if v == u:
                return "loop at vertex %d" % u
            if u not in adj[v]:
                return "edge %d-%d not symmetric" % (u, v)
    return None


@pytest.mark.parametrize("adj, message", [
    (((1,), (0, 2), (3, 1), (2,)), "neighbour list of 2 not sorted/duplicate-free"),
    (((1,), (0, 2, 2), (1,)), "neighbour list of 1 not sorted/duplicate-free"),
    (((1,), (0, 3), (1,)), "neighbour 3 out of range"),
    (((-1, 1), (0,), ()), "neighbour -1 out of range"),
    (((1,), (0, 1), ()), "loop at vertex 1"),
    (((1,), (0, 2), (1,), (2,)), "edge 3-2 not symmetric"),
    (((1, 2), (0,), ()), "edge 0-2 not symmetric"),
    (((1.5,), (0,)), "neighbour 1.5 not an integer"),
    # ids beyond int64
    (((2 ** 70,), (0,)), "neighbour 1180591620717411303424 out of range"),
    (((1,), (2 ** 70, 0)), "neighbour list of 1 not sorted/duplicate-free"),
    (((1,), (0, -2 ** 70)), "neighbour list of 1 not sorted/duplicate-free"),
])
def test_graph_names_the_first_malformed_vertex(adj, message):
    assert _scalar_graph_error(len(adj), adj) == message
    with pytest.raises(ValueError, match="^%s$" % message):
        Graph(len(adj), adj)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-1, n), max_size=4).map(tuple), min_size=n, max_size=n)))
def test_graph_validation_matches_scalar_oracle(adj):
    adj = tuple(adj)
    message = _scalar_graph_error(len(adj), adj)
    if message is None:
        assert Graph(len(adj), adj).adj == adj
    else:
        with pytest.raises(ValueError) as err:
            Graph(len(adj), adj)
        assert str(err.value) == message


def test_graph_arcs_are_in_adjacency_order():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    tails, heads = g.arcs
    assert list(zip(tails.tolist(), heads.tolist())) == [
        (u, v) for u in range(4) for v in g.adj[u]]


def test_from_edges_dedupes():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    assert g.adj == ((1,), (0, 2), (1,))
    assert g.num_edges == 2
    assert g.edges() == [(0, 1), (1, 2)]


def test_relabelled_preserves_structure():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    h = g.relabelled(cyc(4, (0, 2)))
    assert h.num_edges == 4
    assert sorted(len(x) for x in h.adj) == [2, 2, 2, 2]
    # an image array, on a labelled graph of mixed degrees
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)], "abcde")
    images = np.array([3, 0, 4, 1, 2])
    h = g.relabelled(images)
    assert set(h.edges()) == {tuple(sorted((int(images[u]), int(images[v]))))
                              for u, v in g.edges()}
    assert all(h.labels[images[v]] == g.labels[v] for v in range(5))
    with pytest.raises(ValueError, match="not a permutation"):
        g.relabelled(np.array([0, 0, 1, 2, 3]))


def test_lazy_labels_are_made_on_first_read_and_kept():
    calls = []

    def names():
        calls.append(1)
        return ["u", "v"]

    g = Graph(2, ((1,), (0,)), names)
    assert g == g and hash(g) == hash(Graph(2, ((1,), (0,))))
    assert calls == []
    assert g.labels == ("u", "v") and calls == [1]
    assert g.labels == ("u", "v") and calls == [1]
    assert g == Graph.from_edges(2, [(0, 1)], ("u", "v"))
    assert g != Graph.from_edges(2, [(0, 1)], ("v", "u"))
    assert g != Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match="labels length != n"):
        Graph(2, ((1,), (0,)), lambda: ("u",)).labels
    with pytest.raises(ValueError, match="labels length != n"):
        Graph(2, ((1,), (0,)), ("u",))
    with pytest.raises(AttributeError):
        g.n = 3


def test_vertex_action_rejects_non_automorphism():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        VertexAction(g, (cyc(3, (1, 2)),))


# -- sphere --------------------------------------------------------------------

def test_sphere_basics():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert sphere(path, 0, 0) == {0}
    assert sphere(path, 0, 2) == {2}
    assert sphere(path, 0, 5) == set()
    with pytest.raises(ValueError):
        sphere(path, 0, -1)


# a negative vertex would index the rows from the end, and one past the
# last would index the padding's place: both are refused

def _four_cycle():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_sphere_refuses_a_negative_vertex():
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        sphere(_four_cycle(), -1, 1)


def test_sphere_of_radius_zero_refuses_a_negative_vertex():
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        sphere(_four_cycle(), -1, 0)


def test_sphere_refuses_a_vertex_past_the_last():
    with pytest.raises(ValueError, match="vertex 4 out of range"):
        sphere(_four_cycle(), 4, 1)


def test_neighbours_refuses_a_negative_vertex():
    g = _four_cycle()
    assert g.neighbours(3) == [0, 2]
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        g.neighbours(-1)


# -- GroupIface validation -------------------------------------------------------

def test_iface_requires_closed_subgroup():
    # H is the closure of its generators, so it is a subgroup by construction
    c, e = cyc(3, (0, 1, 2)), Permutation.identity(3)
    iface = GroupIface(generators=(c,), identity=e, order=6)
    assert iface.subgroup == tuple(sorted((e, c, c * c)))
    with pytest.raises(ValueError):
        GroupIface(generators=(c,), identity=e, order=4)


def test_iface_requires_identity_in_subgroup():
    e = Permutation.identity(2)
    assert GroupIface(generators=(), identity=e, order=2).subgroup == (e,)
    iface = GroupIface(generators=(cyc(2, (0, 1)),), identity=e, order=2)
    assert iface.subgroup == (e, cyc(2, (0, 1)))


def _closure_oracle(gens, identity) -> tuple:
    """Reference: the sorted elements of <gens>, by a BFS over elements
    from the identity, one product and one hash lookup at a time."""
    seen = {identity}
    queue = [identity]
    for h in queue:
        for s in gens:
            hs = h * s
            if hs not in seen:
                seen.add(hs)
                queue.append(hs)
    return tuple(sorted(seen))


# every coset member that `tetrasym matrix` builds by default
_MATRIX_COSET_MEMBERS = (
    ["crs:r=%d,s=%d" % (r, s) for r in range(3, 9) for s in range(1, r)]
    + ["gamma:sign=%s,t=%d" % (sign, t) for t in range(2, 7)
       for sign in ("plus", "minus")]
    + ["delta:m=2"])


def _hand_made_ifaces():
    """Triples with no closed-form canon: Z_4 and Z_5 with H trivial, a
    cyclic H in Sym(3), the gamma t=2, 3 triples and H = <x_0, x_1, b, z>."""
    c = cyc(3, (0, 1, 2))
    grp = extension_group(2, PLUS)
    return [GroupIface(generators=(), identity=Permutation.identity(4), order=4),
            GroupIface(generators=(), identity=Permutation.identity(5), order=5),
            GroupIface(generators=(c,), identity=Permutation.identity(3), order=6),
            gamma_iface(2, PLUS)[1], gamma_iface(3, "minus")[1],
            GroupIface(generators=(grp.x(0), grp.x(1), grp.b, grp.z),
                       identity=grp.identity, order=grp.order)]


@pytest.mark.parametrize("spec", _MATRIX_COSET_MEMBERS + [None])
def test_array_closure_matches_element_closure(spec):
    ifaces = (_hand_made_ifaces() if spec is None
              else [build_family(FamilySpec.parse(spec)).coset.iface])
    for iface in ifaces:
        oracle = _closure_oracle(iface.generators, iface.identity)
        assert iface.subgroup == oracle
        assert np.array_equal(iface.subgroup_array, iface.form.pack(oracle))


def test_iface_rejects_permutations_beyond_byte_rows():
    assert GroupIface(generators=(), identity=Permutation.identity(256),
                      order=1).form.pack([Permutation.identity(256)]).dtype == "uint8"
    with pytest.raises(ValueError, match="at most 256"):
        GroupIface(generators=(), identity=Permutation.identity(257), order=1)


# -- builder and validators -------------------------------------------------------

def test_degenerate_cyclic_triple_fails_valency():
    a = cyc(4, (0, 1, 2, 3))
    iface = GroupIface(generators=(), identity=Permutation.identity(4), order=4)
    with pytest.raises(ValueError) as err:
        build_coset_graph(iface, a)
    assert str(err.value) == "neighbour count 1 != 4 at vertex 0: bad (G, H, a) triple"


def _merging_triple(order):
    """<a, h> = C8 x C2 with H = <h>, ``order`` given as |G|, and a canon
    that is not constant on cosets: it sends a^5*h to a^5, so an explorer
    with room for them meets 15 cosets where there are 8."""
    a = Permutation((1, 2, 3, 4, 5, 6, 7, 0, 8, 9))
    h = Permutation((0, 1, 2, 3, 4, 5, 6, 7, 9, 8))
    merged, into = (a ** 5 * h).images, (a ** 5).images

    def canon(rows):
        rows = rows.copy()
        rows[(rows == merged).all(axis=1)] = into
        return rows
    return GroupIface(generators=(h,), identity=Permutation.identity(10),
                      order=order, canon=canon), a


@pytest.mark.parametrize("chunk", [1 << 14, 4])
def test_valency_check_names_the_least_bad_vertex(monkeypatch, chunk):
    # with |G| given as 32 the 15 cosets fit the table, and the two probes
    # of vertices 7 and 8, two BFS levels down, fall on one vertex.  Four
    # rows a chunk put vertex 7 in the second one.
    monkeypatch.setattr(cosetgraph, "_CHUNK", chunk)
    iface, a = _merging_triple(32)
    with pytest.raises(ValueError) as err:
        cosetgraph._explore(iface, a)
    assert str(err.value) == "neighbour count 1 != 2 at vertex 7: bad (G, H, a) triple"


def test_explorer_stops_at_the_first_level_past_the_coset_count():
    # with the true |G| = 16 the table has 8 rows, and level 4 would take
    # the count to 9: the explorer stops there, before the valency pass
    iface, a = _merging_triple(16)
    with pytest.raises(ValueError) as err:
        cosetgraph._explore(iface, a)
    assert str(err.value) == (
        "level 4 takes the count to 9 cosets, past |G|/|H| = 8: <H, a> has more "
        "than |G| elements, or canon is not constant on cosets")


def test_explorer_refuses_too_few_cosets():
    # Sym(5) inside Sym(6): H = <(0 1), (2 3)> and a = (1 2 3 4) generate
    # Sym(5), whose 30 cosets of H fall short of |Sym(6)|/|H| = 180
    iface = GroupIface(generators=(cyc(6, (0, 1)), cyc(6, (2, 3))),
                       identity=Permutation.identity(6), order=720)
    with pytest.raises(ValueError) as err:
        build_coset_graph(iface, cyc(6, (1, 2, 3, 4)))
    assert str(err.value) == (
        "reached 30 cosets but |G|/|H| = 180: <H, a> is a proper subgroup, "
        "or canon is not constant on cosets")


def test_asymmetric_triple_reported():
    # Sym(5) with H = <(0 1), (2 3)> and a = (1 2 3 4): the valency is 4 and
    # <H, a> = Sym(5), but a^-1 is not in HaH, so the coset relation is not
    # symmetric and the graph's validation refuses an arc with no reverse
    a = cyc(5, (1, 2, 3, 4))
    iface = GroupIface(generators=(cyc(5, (0, 1)), cyc(5, (2, 3))),
                       identity=Permutation.identity(5), order=120)
    double_coset = {h * a * k for h in iface.subgroup for k in iface.subgroup}
    assert len(double_coset) == 4 * len(iface.subgroup)
    assert a.inverse() not in double_coset
    with pytest.raises(ValueError, match="^edge 0-1 not symmetric$"):
        build_coset_graph(iface, a)
    # Z_5 with H trivial: HaH = {a} does not hold a^-1 = a^4 either, and
    # the valency 1 is refused first
    z5 = GroupIface(generators=(), identity=Permutation.identity(5), order=5)
    with pytest.raises(ValueError, match="^neighbour count 1 != 4 at vertex 0"):
        build_coset_graph(z5, cyc(5, (0, 1, 2, 3, 4)))


@pytest.mark.parametrize("t,sign", [(2, s) for s in SIGNS] + [(3, s) for s in SIGNS])
def test_gamma_triples_satisfy_hypotheses(t, sign):
    grp, iface = gamma_iface(t, sign)
    build = build_coset_graph(iface, grp.a)
    assert build.sabidussi() == SabidussiReport(True, True, 4)
    assert validate_corefree(build)
    assert build.graph.n * len(iface.subgroup) == iface.order
    # HaH membership from the kept keys, against HaH by its |H|^2 products
    hah = {h * grp.a * k for h in iface.subgroup for k in iface.subgroup}
    elements = list(grp.elements())
    assert [build._in_hah(x) for x in elements] == [x in hah for x in elements]


def _non_corefree_build():
    # z is central, so it fixes every coset of H = <x_0, x_1, b, z>
    grp = extension_group(2, PLUS)
    iface = GroupIface(generators=(grp.x(0), grp.x(1), grp.b, grp.z),
                       identity=grp.identity, order=grp.order)
    return build_coset_graph(iface, grp.a)


def test_non_corefree_subgroup_detected():
    # the kernel of the action is core_G(H) = <z>, so the action's group
    # has order |G|/2
    build = _non_corefree_build()
    assert build.action.group.order() == 128 == build.iface.order // 2
    assert not validate_corefree(build)


def _corefree_oracle(build):
    """Reference: one coset lookup per pair (h, vertex), stopping at the
    first h that fixes every coset."""
    reps = coset_reps(build)
    for h in build.iface.subgroup:
        if h == build.iface.identity:
            continue
        if all(build.vertices_of([rep * h])[0] == v
               for v, rep in enumerate(reps)):
            return False
    return True


@pytest.mark.parametrize("spec", ["gamma:t=6,sign=plus", "gamma:t=6,sign=minus",
                                  "gamma:t=10,sign=minus", "crs:r=8,s=4",
                                  "crs:r=7,s=6", "delta:m=2",
                                  pytest.param(None, id="z-in-H")])
def test_corefree_matches_per_element_oracle(spec):
    build = (_non_corefree_build() if spec is None
             else build_family(FamilySpec.parse(spec)).coset)
    assert validate_corefree(build) == _corefree_oracle(build) == (spec is not None)


def test_env_guard(monkeypatch):
    # the coset layer explores whatever it is given: the families check the
    # size guard, and no environment variable lowers it
    monkeypatch.setenv("TETRASYM_MAX_VERTICES", "8")
    grp, iface = gamma_iface(2, PLUS)
    assert build_coset_graph(iface, grp.a).graph.n == 32


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.integers(0, 15))
def test_canonicalisation_is_coset_invariant(gi, hi):
    grp, iface = gamma_iface(2, PLUS)
    build = _cached_build(grp, iface)
    els = _cached_elements(grp)
    g = els[gi % len(els)]
    h = iface.subgroup[hi % len(iface.subgroup)]
    assert build.vertices_of([h * g])[0] == build.vertices_of([g])[0]


_BUILD_MEMO = {}


def _cached_build(grp, iface):
    key = (grp.t, grp.sign)
    if key not in _BUILD_MEMO:
        _BUILD_MEMO[key] = build_coset_graph(iface, grp.a)
    return _BUILD_MEMO[key]


_EL_MEMO = {}


def _cached_elements(grp):
    key = (grp.t, grp.sign)
    if key not in _EL_MEMO:
        _EL_MEMO[key] = list(grp.elements())
    return _EL_MEMO[key]


def test_images_of_right_multiplication():
    grp, iface = gamma_iface(2, PLUS)
    build = build_coset_graph(iface, grp.a)
    za = grp.z * grp.a
    images = build.images_of(za)
    for v, rep in enumerate(coset_reps(build)):
        assert images[v] == build.vertices_of([rep * za])[0]


def test_images_of_an_element_outside_the_group_raise():
    # (0 2) is a permutation of crs(6, 3)'s 12 points outside G: it takes
    # no coset of H to a coset of H in G
    build = build_family(FamilySpec.parse("crs:r=6,s=3")).coset
    with pytest.raises(ValueError, match="does not belong to any registered coset"):
        build.images_of(Permutation.from_cycles(12, [(0, 2)]))


def test_neighbourhood_of_base_vertex_matches_words():
    grp, iface = gamma_iface(3, PLUS)
    build = build_coset_graph(iface, grp.a)
    a = grp.a
    words = [a, grp.x(5) * a, a.inverse(), grp.x(3) * a.inverse()]
    assert {build.vertices_of([w])[0] for w in words} == set(build.graph.adj[0])


def test_build_is_deterministic():
    grp, iface = gamma_iface(2, "minus")
    b1 = build_coset_graph(iface, grp.a)
    b2 = build_coset_graph(iface, grp.a)
    assert edge_list_text(b1.graph) == edge_list_text(b2.graph)
    assert b1.graph.labels == b2.graph.labels


@pytest.mark.parametrize("spec", ["delta:m=2", "gamma:t=3,sign=minus",
                                  "crs:r=6,s=3"])
def test_build_and_checks_never_call_the_labeller(spec, monkeypatch):
    # the labels, str of each representative, are made on the first read
    # of graph.labels, and kept; no step of the build and no check reads
    # them or the representatives.  The reference labels are read before
    # the elements' naming is counted.
    fb = build_family(FamilySpec.parse(spec))
    reference = fb.graph.labels
    element, calls = type(fb.coset.a_elt), []
    name = element.__str__

    def counted(elt):
        calls.append(elt)
        return name(elt)

    monkeypatch.setattr(element, "__str__", counted)
    coset = build_coset_graph(fb.coset.iface, fb.coset.a_elt)
    member = dataclasses.replace(fb, graph=coset.graph, action=coset.action,
                                 coset=coset)
    rows = family_checks(member, list(CHECK_NAMES))
    assert sorted(r["name"] for r in rows) == sorted(CHECK_NAMES)
    assert all(r.get("skipped") or r["pass"] for r in rows)
    assert calls == []
    assert "reps" not in vars(coset)
    labels = coset.graph.labels
    assert len(calls) == coset.graph.n
    assert labels == reference
    assert coset.graph.labels is labels
    assert len(calls) == coset.graph.n


def _family_and_generic(spec):
    """The family's coset build and the build of the same triple with the
    generic minimum over H in place of the family's closed-form canon."""
    family = build_family(FamilySpec.parse(spec)).coset
    assert family.iface.canon is not None
    generic_iface = dataclasses.replace(family.iface, canon=None)
    return family, build_coset_graph(generic_iface, family.a_elt)


@pytest.mark.parametrize("spec", ["gamma:t=2,sign=plus", "gamma:t=2,sign=minus",
                                  "crs:r=6,s=3", "delta:m=2"])
def test_family_canon_matches_minimum_over_h(spec):
    # the family canon and the generic minimum over H must give the same
    # graph, numbering, coset lookups and vertex action
    full, lean = _family_and_generic(spec)
    iface, reps = full.iface, coset_reps(full)
    assert coset_reps(lean) == reps
    assert lean.graph.adj == full.graph.adj
    assert lean.graph.labels == full.graph.labels
    for p, q in zip(lean.action.images, full.action.images, strict=True):
        assert np.array_equal(p, q)
    n = full.graph.n
    assert [lean.vertices_of([r])[0] for r in reps] == list(range(n))
    for v in (0, 1, n // 2, n - 1):
        members = [h * reps[v] for h in iface.subgroup]
        assert {full.vertices_of([m])[0] for m in members} == {v}
        assert {lean.vertices_of([m])[0] for m in members} == {v}
    assert lean.sabidussi() == full.sabidussi() == SabidussiReport(True, True, 4)


def _sequential_bfs(iface, a):
    """Oracle: the coset BFS one vertex at a time over elements, with
    min(H*x) taken over H, giving each probed vertex's new cosets the next
    ids in order.  Returns (reps, adjacency)."""
    def canon(x):
        return min(h * x for h in iface.subgroup)
    arcs = {}
    for h in iface.subgroup:
        arcs.setdefault(canon(a * h), h)
    reps = [canon(iface.identity)]
    vid = {reps[0]: 0}
    adj = []
    for r in reps:
        hits, staged = [], set()
        for h in arcs.values():
            c = canon(a * h * r)
            if c in vid:
                hits.append(vid[c])
            else:
                staged.add(c)
        for c in sorted(staged):
            vid[c] = len(reps)
            hits.append(len(reps))
            reps.append(c)
        adj.append(tuple(sorted(set(hits))))
    return reps, tuple(adj)


@pytest.mark.parametrize("spec", ["gamma:t=2,sign=minus", "crs:r=6,s=3"])
def test_a_hand_made_triple_is_labelled_by_its_representatives(spec):
    # a triple given with no canon: its vertices are named by str of their
    # representatives, in the oracle BFS's vertex order, which is the word
    # of a GElt and the cycles of a Permutation
    family = build_family(FamilySpec.parse(spec)).coset
    iface = GroupIface(generators=family.iface.generators,
                       identity=family.iface.identity, order=family.iface.order)
    labels = build_coset_graph(iface, family.a_elt).graph.labels
    reps, _ = _sequential_bfs(iface, family.a_elt)
    assert labels == tuple(map(str, reps))
    assert labels == tuple(r.word() if isinstance(r, GElt) else r.cycle_string()
                           for r in reps)


@pytest.mark.parametrize("spec", ["gamma:t=3,sign=plus", "gamma:t=4,sign=minus",
                                  "crs:r=6,s=3", "crs:r=7,s=6", "delta:m=2"])
def test_batched_bfs_numbers_as_sequential_bfs(spec):
    coset = build_family(FamilySpec.parse(spec)).coset
    reps, adj = _sequential_bfs(coset.iface, coset.a_elt)
    assert coset_reps(coset) == tuple(reps)
    assert coset.graph.adj == adj


@pytest.mark.parametrize("spec", ["gamma:t=2,sign=plus", "gamma:t=2,sign=minus",
                                  "crs:r=6,s=3", "delta:m=2"])
def test_build_sabidussi_matches_validation(spec, monkeypatch):
    # a build knows <H, a> = G from its coset count and keeps the keys of
    # HaH's cosets from its one arc transversal, so its report and the
    # double-coset row need no second exploration and no second
    # transversal: every hypothesis holds
    calls = []
    transversal = cosetgraph._arc_transversal

    def counted(*args):
        calls.append(args)
        return transversal(*args)

    monkeypatch.setattr(cosetgraph, "_arc_transversal", counted)
    fb = build_family(FamilySpec.parse(spec))
    assert len(calls) == 1

    def no_exploration(*args):
        raise AssertionError("explored again")

    monkeypatch.setattr(cosetgraph, "_explore", no_exploration)
    assert fb.coset.sabidussi() == SabidussiReport(True, True, 4)
    if fb.spec.family == "gamma":
        [row] = family_checks(fb, ["double-coset"])
        assert row["pass"] and row["actual"] is False
    assert len(calls) == 1


# -- exports -----------------------------------------------------------------

def test_edge_list_format():
    g = Graph.from_edges(3, [(1, 2), (0, 2)])
    assert edge_list_text(g) == "0 2\n1 2\n"


def test_dot_export():
    g = Graph.from_edges(2, [(0, 1)], labels=("u", "v"))
    dot = to_dot(g)
    assert "0 -- 1;" in dot
    assert '0 [label="u"];' in dot


def test_json_roundtrip():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], labels=("a", "b", "c"))
    obj = to_json_obj(g)
    assert obj == {"n": 3, "edges": [[0, 1], [1, 2]], "labels": ["a", "b", "c"]}
    assert Graph.from_edges(obj["n"], obj["edges"], obj["labels"]) == g


def test_golden_wreath3_edge_list():
    # hand-checkable: fibre pairs {0,1},{2,3},{4,5}, consecutive fibres
    # completely joined
    from tetrasym.families import wreath_graph
    assert edge_list_text(wreath_graph(3).graph) == (
        "0 2\n0 3\n0 4\n0 5\n1 2\n1 3\n1 4\n1 5\n2 4\n2 5\n3 4\n3 5\n")


def test_golden_coset_graph_numbering():
    # pins the deterministic vertex numbering of the coset BFS; a change
    # here means the canonical-representative ordering changed
    import hashlib
    from tetrasym.families import gamma
    g2p = gamma(2, "plus")
    text = edge_list_text(g2p.graph)
    assert text.splitlines()[:6] == ["0 1", "0 2", "0 3", "0 4", "1 5", "1 6"]
    assert g2p.graph.labels[:3] == ("e", "a", "x3*a")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "623a6ab1cc62a8d52905ee37b0f28fac81bb31d648b0db149322953b939ab3ef")
    g3m = gamma(3, "minus")
    assert hashlib.sha256(edge_list_text(g3m.graph).encode()).hexdigest() == (
        "39e552d187a078182f1c04724c6027911ccdc289e0138d450b0203c7ba89ec43")


# sha256 of the edge list, the action's image tuples and the vertex labels,
# pinned before the batched explorer replaced the per-vertex one
_DEEP_GOLDENS = {
    "gamma:t=6,sign=plus": (
        "236288298cef2b174dae4c8d1b995f284a5d72e1d45390c6b0e5fbcd9d6f3093",
        "b547a0e4d8848dcd987342c723e5d738cd7ec8dab5881282ce130f11494df892",
        "d9b0cc926ed353119caa9eca7865a3839739118c00f0a9a31c0147a10af570f9"),
    "gamma:t=6,sign=minus": (
        "230e40d71a46395e527a554650bea548095d4a1d026ca642cef110f3409c7766",
        "0efa733259f6ba73f34fc8243d5a37d35e88122db9f799446ef696753819808c",
        "b9c1fae9535170073a2d628782594fc0ea92a7ed4d2c0bac1257529849050b2b"),
    "crs:r=8,s=4": (
        "1c6184893150a793d678d512c1e4489052759e3742f6a6f3d20ffdf245c31195",
        "60e53ced5e3cad9c819c0efea53d719b9b4f2e6fae4fe8a30ef8aa205c6dd305",
        "200ea5064d95276dd8de2adc3aa760cbc7a04c828d19ad937657c45ce1b3810c"),
    "delta:m=2": (
        "1976213eaf3f7ebf8ff1155cce752795af7d6cd5044385a35ae7ffbb30af4e23",
        "12409eda796f4af9dc1a6574650669a1124821c50484c69eaaef0be987d4a9b7",
        "53c0aa4007f4e3e80f8d0915d7cccdc555ce8cc8a03c8f631cabb287bcc113be"),
}


@pytest.mark.parametrize("spec", sorted(_DEEP_GOLDENS))
def test_golden_numbering_at_depth(spec):
    import hashlib
    fb = build_family(FamilySpec.parse(spec))
    texts = (edge_list_text(fb.graph),
             repr([tuple(p.tolist()) for p in fb.action.images]),
             "\n".join(fb.graph.labels))
    assert tuple(hashlib.sha256(s.encode()).hexdigest()
                 for s in texts) == _DEEP_GOLDENS[spec]


# sha256 of to_dot and of the sorted-key JSON export, labels included,
# pinned before the labels and representatives were made on demand
_EXPORT_GOLDENS = {
    "delta:m=2": (
        "302bdc629eb863ea533ef7ae5b7723af30c7bb256fb0ca1a2ffb8441de0e12e1",
        "c5207bdc00555c793895f66fa62c218517ab341fc6b56be6f490286fc65db3cd"),
    "gamma:t=3,sign=minus": (
        "0a2a015a2264374c9ae57ac5b9da118a2c499f91d1154dd80f48b1d9a167d69c",
        "2181e9a37d9bb37aecd688d5bdd124ce6369f0db305d1fbebd2ca7355405ef46"),
    "crs:r=6,s=3": (
        "abd46b0d6196694f53a6550a2191df31ccae7b6949346da5b565dfce0a6eafe6",
        "f78311e0934b037bab7723a25af6c64f3932ffe05ed0dc22024bc30c8ef50004"),
}


@pytest.mark.parametrize("spec", sorted(_EXPORT_GOLDENS))
def test_golden_exports(spec):
    g = build_family(FamilySpec.parse(spec)).graph
    texts = (to_dot(g), json.dumps(to_json_obj(g), sort_keys=True))
    assert tuple(hashlib.sha256(s.encode()).hexdigest()
                 for s in texts) == _EXPORT_GOLDENS[spec]


# -- array form: integer keys, graphs from rows, actions from arrays ------------

# the integer keys of rows of up to 16 points, and the word keys of rows of
# up to 8 (the ids of the nibble cases are their degrees)
@pytest.mark.parametrize("keys, dtype, degree", [
    *[pytest.param(cosetgraph._nibble_keys, np.int64, d, id=str(d))
      for d in range(1, 17)],
    *[pytest.param(cosetgraph._word_keys, np.int64, d, id="word-%d" % d)
      for d in range(1, 9)]])
def test_nibble_keys_sort_and_compare_as_row_keys(keys, dtype, degree):
    rng = np.random.default_rng(degree)
    rows = np.concatenate([
        rng.integers(0, 16, size=(400, degree), dtype=np.uint8),
        # permutations, the rows a form of this degree keys
        np.argsort(rng.random((400, degree)), axis=1).astype(np.uint8),
        # few distinct rows, so that equal keys occur
        rng.integers(0, 2, size=(200, degree), dtype=np.uint8),
        # the first image at 8 or above: the top bit of a 16-point key
        np.full((20, degree), 15, dtype=np.uint8)])
    rows[-10:, 0] = rng.integers(8, 16, size=10)
    ints, voids = keys(rows), row_keys(rows)
    assert np.array_equal(np.argsort(ints, kind="stable"),
                          np.argsort(voids, kind="stable"))
    _, int_classes = np.unique(ints, return_inverse=True)
    _, void_classes = np.unique(voids, return_inverse=True)
    assert np.array_equal(int_classes, void_classes)
    known = np.unique(ints[::2])
    assert np.array_equal(np.searchsorted(known, ints),
                          np.searchsorted(np.unique(voids[::2]), voids))
    assert ints.dtype == np.dtype(dtype)


def test_row_forms_key_by_integers_up_to_16_points():
    for degree, kind in ((8, "i"), (12, "i"), (16, "i"), (17, "V"), (40, "V")):
        iface = GroupIface(generators=(), identity=Permutation.identity(degree),
                           order=1)
        assert iface.form.keys(iface.subgroup_array).dtype.kind == kind, degree
    # delta:m=2 acts on 8 points, crs(8, 4) on 16
    delta_form = build_family(FamilySpec.parse("delta:m=2")).coset.iface.form
    assert delta_form.keys is cosetgraph._word_keys
    assert delta_form.minimum is cosetgraph._word_min
    crs_form = build_family(FamilySpec.parse("crs:r=8,s=4")).coset.iface.form
    assert crs_form.keys is cosetgraph._nibble_keys
    assert crs_form.minimum is min_rows


def test_row_form_minimum_is_min_rows():
    # the smaller row of each pair, by word keys up to 8 points and by
    # first difference above, on random permutation rows with equal pairs
    # and pairs that differ only in their last two points ...
    rng = np.random.default_rng(0)
    for degree in range(1, 17):
        form = cosetgraph._RowForm(degree)
        a, b = np.argsort(rng.random((2, 600, degree)), axis=2).astype(np.uint8)
        b[::3], b[1::3] = a[::3], a[1::3]
        b[1::3, -2:] = a[1::3, :-3:-1]
        assert np.array_equal(form.minimum(a, b), min_rows(a, b)), degree
        assert np.array_equal(form.minimum(b, a), min_rows(a, b)), degree
    # ... and on the probes a*h*r of every h in H and every representative
    # r of delta:m=2 and crs(4, 2), 8-point rows, against their images
    # under H's last generator and a shuffle of themselves
    for spec in ("delta:m=2", "crs:r=4,s=2"):
        coset = build_family(FamilySpec.parse(spec)).coset
        iface = coset.iface
        form, beta = iface.form, np.array(iface.generators[-1].images)
        a_hs = form.outer(form.pack([coset.a_elt]), iface.subgroup_array)
        probes = form.outer(a_hs, coset._reps)
        shuffled = probes[rng.permutation(len(probes))]
        for other in (probes[:, beta], shuffled, probes):
            assert np.array_equal(form.minimum(probes, other),
                                  min_rows(probes, other)), spec


_BUILT = ["delta:m=2", "gamma:t=3,sign=minus", "crs:r=6,s=3"]


@pytest.mark.parametrize("spec", _BUILT)
def test_graph_from_rows_equals_graph_from_tuples(spec):
    g = build_family(FamilySpec.parse(spec)).graph
    assert "adj" not in vars(g)  # the build makes no neighbour tuples
    adj = tuple(map(tuple, g.rows.tolist()))
    tuples = Graph(g.n, adj, g.labels)
    assert g == tuples and hash(g) == hash(tuples)
    assert g.adj == tuples.adj == adj
    assert g.edges() == tuples.edges() == [
        (u, v) for u in range(g.n) for v in adj[u] if u < v]
    for export in (edge_list_text, to_dot, to_json_obj):
        assert export(g) == export(tuples)
    assert Graph(g.n, g.rows.astype(np.int64)) == Graph(g.n, adj)


@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [0, 2], [1, 0]], "neighbour list of 2 not sorted/duplicate-free"),
    ([[1, 1], [0, 0]], "neighbour list of 0 not sorted/duplicate-free"),
    ([[1, 2], [0, 1], [0, 1]], "loop at vertex 1"),
    ([[1, 2], [0, 3], [0, 1]], "neighbour 3 out of range"),
    ([[-1, 1], [0, 2], [0, 1]], "neighbour -1 out of range"),
    ([[1, 3], [0, 2], [1, 3], [0, 1]], "edge 2-3 not symmetric"),
    ([[1, 2], [0, 2], [0, 3], [1, 2]], "edge 1-2 not symmetric"),
    ([[1.7], [0.2]], "neighbour 1.7 not an integer"),
])
def test_graph_from_rows_names_the_first_malformed_vertex(rows, message):
    adj = tuple(map(tuple, rows))
    assert _scalar_graph_error(len(adj), adj) == message
    # np.array(rows) keeps float ids float; an int32 copy would truncate them
    forms = [adj, np.array(rows)]
    if forms[1].dtype == np.int64:
        forms.append(np.array(rows, np.int32))
    for given in forms:
        with pytest.raises(ValueError, match="^%s$" % message):
            Graph(len(rows), given)


def test_graph_from_rows_of_the_wrong_shape():
    for rows in (np.zeros((3, 2), np.int32), np.zeros(2, np.int32)):
        with pytest.raises(ValueError, match="adjacency length != n"):
            Graph(2, rows)
    # an adjacency, or a row of it, that is not a sequence is named
    for adj, message in (([1, 0], "row 0 of the adjacency is not a sequence: 1"),
                         ([[1], 0], "row 1 of the adjacency is not a sequence: 0"),
                         (None, "adjacency None is not a sequence of rows")):
        with pytest.raises(ValueError, match="^%s$" % message):
            Graph(2, adj)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.integers(0, 4).flatmap(
    lambda d: st.lists(st.lists(st.integers(-1, n), min_size=d, max_size=d),
                       min_size=n, max_size=n))))
def test_graph_from_rows_matches_tuple_validation(rows):
    adj = tuple(map(tuple, rows))
    message = _scalar_graph_error(len(adj), adj)
    array = np.array(rows, np.int64).reshape(len(rows), -1)
    if message is None:
        assert Graph(len(adj), array) == Graph(len(adj), adj)
        assert Graph(len(adj), array).adj == adj
    else:
        with pytest.raises(ValueError) as err:
            Graph(len(adj), array)
        assert str(err.value) == message


def test_vertex_maps_are_checked_before_they_are_narrowed():
    # ids that an int32 copy would wrap or truncate into the 4-cycle's
    # rotation [1, 2, 3, 0]
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    wrapped = np.array([2 ** 32 + 1, 2 ** 32 + 2, 2 ** 32 + 3, 2 ** 32], np.int64)
    floats = np.array([1.9, 2.2, 3.5, 0.1])
    with pytest.raises(ValueError, match="not a bijection"):
        VertexAction(c4, [wrapped])
    with pytest.raises(ValueError, match="not a permutation"):
        VertexAction(c4, [floats])
    for perm in (wrapped, [0.5, 1.5, 2.5, 3.5]):
        with pytest.raises(ValueError, match="not a permutation"):
            c4.relabelled(perm)
    assert VertexAction(c4, [wrapped - 2 ** 32]).images[0].tolist() == [1, 2, 3, 0]
    assert c4.relabelled(wrapped - 2 ** 32) == c4


def test_vertex_action_rejects_a_fold_of_two_copies_onto_one():
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    g = Graph.from_edges(10, c5 + [(u + 5, v + 5) for u, v in c5])
    fold = np.arange(10) % 5
    # every neighbourhood goes onto the neighbourhood of its image
    assert np.array_equal(np.sort(fold[g.rows], axis=1), g.rows[fold])
    with pytest.raises(ValueError, match="not a bijection"):
        VertexAction(g, (fold,))
    for images in (np.arange(10) - 1, np.arange(10) + 1):
        with pytest.raises(ValueError, match="not a bijection"):
            VertexAction(g, (images,))
    with pytest.raises(ValueError, match="degree"):
        VertexAction(g, (np.arange(9),))
    swap = (np.arange(10) + 5) % 10
    assert np.array_equal(VertexAction(g, (swap,)).images[0], swap)


def test_vertex_action_from_arrays_equals_from_permutations():
    fb = build_family(FamilySpec.parse("crs:r=6,s=3"))
    perms = VertexAction(fb.graph, [Permutation(p.tolist()) for p in fb.action.images])
    for p, q in zip(perms.images, fb.action.images):
        assert p.dtype == q.dtype == np.int32 and np.array_equal(p, q)
    assert perms.group.order() == fb.action.group.order()
    with pytest.raises(ValueError, match="not a graph automorphism"):
        VertexAction(fb.graph, (np.roll(np.arange(fb.graph.n), 1),))


def _per_vertex_images(build, reps, elt):
    """Oracle: the image of each vertex under elt, one element product per
    representative (``reps``, the build's as elements) and one coset
    lookup for them all."""
    return build.vertices_of([rep * elt for rep in reps])


# crs(9, 7) acts on 18 points, so its cosets have bytewise keys
@pytest.mark.parametrize("spec", _MATRIX_COSET_MEMBERS + ["crs:r=9,s=7", None])
def test_batched_action_equals_per_element_images(spec):
    # the hand-made triples over permutations are not tetravalent, so only
    # the three over the extension group build; their canon is the minimum
    # over H
    builds = ([build_coset_graph(iface, iface.identity.group.a)
               for iface in _hand_made_ifaces() if isinstance(iface.identity, GElt)]
              if spec is None else [build_family(FamilySpec.parse(spec)).coset])
    for build in builds:
        gens = build.iface.generators + (build.a_elt,)
        elts = gens + (build.a_elt * build.a_elt, gens[0] * build.a_elt)
        batched, reps = build._images(build.iface.form.pack(elts)), coset_reps(build)
        assert batched.dtype == np.int32 and batched.shape == (len(elts), build.graph.n)
        for images, elt in zip(batched, elts):
            assert np.array_equal(images, build.images_of(elt))
            assert images.tolist() == _per_vertex_images(build, reps, elt)
        assert len(build.action.images) == len(gens)
        for images, batch in zip(build.action.images, batched):
            assert np.array_equal(images, batch)


@pytest.mark.parametrize("fn", [lambda rs: np.repeat(rs, 3),
                                lambda rs: np.stack([rs, -rs], axis=1),
                                lambda rs: (rs[:, None] * np.arange(2)).ravel()],
                         ids=["three-per-row", "two-columns", "two-per-row"])
def test_in_chunks_fills_one_output(monkeypatch, fn):
    # 100,007 rows in chunks of 1,000: a hundred whole chunks and a short
    # last one.  The chunks go straight into the output, so the traced peak
    # is the output and one chunk's work, not the output twice.
    xs = np.arange(100_007, dtype=np.int64)
    whole = fn(xs)
    monkeypatch.setattr(cosetgraph, "_CHUNK", 1000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = cosetgraph._in_chunks(fn, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == whole.dtype and np.array_equal(out, whole)
    assert peak < 1.25 * out.nbytes
    assert cosetgraph._in_chunks(fn, xs[:1000]).shape == fn(xs[:1000]).shape


@pytest.mark.parametrize("chunk", [1, 7, 95, 96, 200, 500])
@pytest.mark.parametrize("spec", ["gamma:t=3,sign=minus", "crs:r=6,s=3"])
def test_build_does_not_depend_on_the_rows_per_pass(monkeypatch, spec, chunk):
    # gamma t=3 has 96 vertices and 5 generators with a, crs(6, 3) 48 and 5:
    # the passes take one element in chunks of representatives, one element
    # whole, or several elements at once, the last pass fewer
    whole = build_family(FamilySpec.parse(spec)).coset
    monkeypatch.setattr(cosetgraph, "_CHUNK", chunk)
    parts = build_family(FamilySpec.parse(spec)).coset
    assert parts.graph == whole.graph
    assert np.array_equal(parts._reps, whole._reps)
    for p, q in zip(parts.action.images, whole.action.images, strict=True):
        assert np.array_equal(p, q)


def _merge_and_insert(known, vids, new_keys, new_vids):
    """_merge and np.insert of the new keys at their searchsorted positions."""
    at = np.searchsorted(known, new_keys)
    return (cosetgraph._merge(known, vids, at, new_keys, new_vids),
            (np.insert(known, at, new_keys), np.insert(vids, at, new_vids)))


_KEYS = st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), unique=True, max_size=40)


@settings(max_examples=200, deadline=None)
@given(_KEYS, _KEYS)
@example([], [])
@example([5, 9], [])  # nothing to insert
@example([], [1, 2])
@example([5, 9], [-3, 1])  # before the first key
@example([5, 9], [10, 2 ** 63 - 1])  # after the last key
@example([5, 9], [-2 ** 63, 7, 12])
def test_index_merge_equals_insert(known, new):
    known = np.sort(np.array(known, dtype=np.int64))
    new_keys = np.sort(np.setdiff1d(np.array(new, dtype=np.int64), known))
    vids = np.arange(len(known), dtype=np.int32)[::-1].copy()
    new_vids = np.arange(len(known), len(known) + len(new_keys), dtype=np.int32)
    (keys, ids), (want_keys, want_ids) = _merge_and_insert(known, vids, new_keys,
                                                           new_vids)
    assert keys.dtype == np.int64 and ids.dtype == np.int32
    assert np.array_equal(keys, want_keys) and np.array_equal(ids, want_ids)


def test_index_merge_of_bytewise_keys():
    # rows above 16 points keep bytewise void keys
    rows = np.random.default_rng(0).integers(0, 40, size=(30, 40), dtype=np.uint8)
    keys = np.sort(row_keys(rows))
    known, new_keys = keys[1::2], keys[0::2]
    vids = np.arange(len(known), dtype=np.int32)
    new_vids = np.arange(len(known), len(keys), dtype=np.int32)
    (merged, ids), (want_keys, want_ids) = _merge_and_insert(known, vids, new_keys,
                                                             new_vids)
    assert np.array_equal(merged, keys) and np.array_equal(merged, want_keys)
    assert np.array_equal(ids, want_ids)


@pytest.mark.parametrize("spec", _BUILT)
def test_checks_read_no_neighbour_tuples_and_no_permutations(monkeypatch, spec):
    fb = build_family(FamilySpec.parse(spec))
    degrees = []  # of every Permutation made during the checks
    init, unchecked = Permutation.__init__, Permutation._unchecked

    def counting_init(self, images):
        init(self, images)
        degrees.append(self.degree)

    def counting_unchecked(cls, images):
        degrees.append(len(images))
        return unchecked(images)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    monkeypatch.setattr(Permutation, "_unchecked", classmethod(counting_unchecked))
    rows = family_checks(fb, list(CHECK_NAMES))
    assert all(r.get("skipped") or r["pass"] for r in rows)
    assert "adj" not in vars(fb.graph)
    assert fb.graph.n not in degrees
    # the counting does see the checks' own smaller Permutations: elements
    # of the crs and delta groups, the cover's isomorphism of the z-quotient
    assert degrees


def _carries_oracle(g1, g2, mapping):
    """Oracle: mapping carries the neighbours of each vertex u of g1 one to
    one onto the neighbours of mapping[u] in g2, vertex by vertex."""
    return all(sorted(int(mapping[w]) for w in g1.neighbours(u))
               == g2.neighbours(int(mapping[u])) for u in range(g1.n))


def _quotient_map(graph, gen):
    """(graph, the graph of the orbits of <gen>, the map onto it): the
    orbits numbered in the order of their least vertices."""
    blocks = np.unique(orbit_labels([gen], graph.n), return_inverse=True)[1]
    edges = {(int(blocks[u]), int(blocks[v])) for u, v in graph.edges()
             if blocks[u] != blocks[v]}
    return graph, Graph.from_edges(int(blocks.max()) + 1, edges), blocks


def _vertex_maps():
    """(graph 1, graph 2, map) triples: automorphisms and other self-maps,
    non-bijective maps, and quotient maps (all maps of a graph to itself or
    onto graph 2, where the oracle's neighbour lists and the padded rows
    agree)."""
    fb = build_family(FamilySpec.parse("gamma:t=3,sign=minus"))
    g, n = fb.graph, fb.graph.n
    maps = [(g, g, images) for images in fb.action.images]
    maps += [(g, g, np.roll(np.arange(n), 1)),  # a bijection, no automorphism
             (g, g, np.zeros(n, np.int64)),
             (g, g, fb.action.images[0] % (n // 2))]
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    two = Graph.from_edges(10, c5 + [(u + 5, v + 5) for u, v in c5])
    maps += [(two, two, np.arange(10) % 5),  # a fold of two copies onto one
             (two, two, (np.arange(10) + 5) % 10)]
    # the central cover's quotient map, one to one on neighbourhoods, and the
    # merging of one wreath fibre, which folds its neighbours' neighbourhoods
    maps.append(_quotient_map(g, fb.coset.images_of(fb.group.z)))
    wreath = build_family(FamilySpec.parse("wreath:r=4"))
    maps.append(_quotient_map(wreath.graph, wreath.action.images[0]))
    return maps


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_carries_matches_per_vertex_oracle(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(cosetgraph, "_CHUNK", chunk)
    verdicts = []
    for g1, g2, mapping in _vertex_maps():
        verdict = cosetgraph._carries(g1.rows, g2.rows, mapping)
        assert verdict == _carries_oracle(g1, g2, mapping)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts
