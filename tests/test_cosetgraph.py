import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrasym import cosetgraph
from tetrasym.cosetgraph import (Graph, GroupIface, VertexAction,
                                 build_coset_graph, edge_list_text,
                                 graph_from_json_obj, sphere, to_dot,
                                 to_json_obj, validate_corefree,
                                 validate_sabidussi)
from tetrasym.extragrp import PLUS, SIGNS, extension_group
from tetrasym.families import FamilySpec, build_family
from tetrasym.permgrp import Permutation


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def gamma_iface(t, sign):
    grp = extension_group(t, sign)
    H = grp.subgroup_h()
    gens = tuple(grp.x(i) for i in range(2 * t)) + (grp.a, grp.b)
    return grp, GroupIface(generators=gens, subgroup=H.elements,
                           identity=grp.identity, order=grp.order,
                           label=lambda g: g.word())


# -- Graph type ---------------------------------------------------------------

def test_graph_rejects_loops():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError):
        Graph(2, ((1,), ()))


def test_graph_rejects_unsorted_neighbours():
    with pytest.raises(ValueError):
        Graph(3, ((2, 1), (0,), (0,)))


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


# -- GroupIface validation -------------------------------------------------------

def test_iface_requires_closed_subgroup():
    with pytest.raises(ValueError):
        GroupIface(generators=(cyc(3, (0, 1, 2)),),
                   subgroup=(Permutation.identity(3), cyc(3, (0, 1, 2))),
                   identity=Permutation.identity(3), order=3)


def test_iface_requires_identity_in_subgroup():
    with pytest.raises(ValueError):
        GroupIface(generators=(cyc(2, (0, 1)),),
                   subgroup=(cyc(2, (0, 1)),),
                   identity=Permutation.identity(2), order=2)


# -- builder and validators -------------------------------------------------------

def test_degenerate_cyclic_triple_fails_valency():
    a = cyc(4, (0, 1, 2, 3))
    iface = GroupIface(generators=(a,), subgroup=(Permutation.identity(4),),
                       identity=Permutation.identity(4), order=4)
    report = validate_sabidussi(iface, a)
    assert report.valency == 1
    assert not report.tetravalent
    with pytest.raises(ValueError):
        build_coset_graph(iface, a)


@pytest.mark.parametrize("t,sign", [(2, s) for s in SIGNS] + [(3, s) for s in SIGNS])
def test_gamma_triples_satisfy_hypotheses(t, sign):
    grp, iface = gamma_iface(t, sign)
    report = validate_sabidussi(iface, grp.a)
    assert report.ok
    build = build_coset_graph(iface, grp.a)
    assert validate_corefree(build)
    assert build.graph.n * len(iface.subgroup) == iface.order


def test_non_corefree_subgroup_detected():
    grp = extension_group(2, PLUS)
    h_gens = [grp.x(0), grp.x(1), grp.b, grp.z]
    els = {grp.identity}
    frontier = list(els)
    while frontier:
        nxt = []
        for p in frontier:
            for q in h_gens:
                pq = p * q
                if pq not in els:
                    els.add(pq)
                    nxt.append(pq)
        frontier = nxt
    iface = GroupIface(generators=(grp.a, grp.b, grp.x(0)),
                       subgroup=tuple(sorted(els)),
                       identity=grp.identity, order=grp.order)
    build = build_coset_graph(iface, grp.a)
    assert not validate_corefree(build)


def test_vertex_count_guard():
    grp, iface = gamma_iface(2, PLUS)
    with pytest.raises(ValueError):
        build_coset_graph(iface, grp.a, max_vertices=10)


def test_env_guard(monkeypatch):
    monkeypatch.setenv("TETRASYM_MAX_VERTICES", "8")
    grp, iface = gamma_iface(2, PLUS)
    with pytest.raises(ValueError):
        build_coset_graph(iface, grp.a)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.integers(0, 15))
def test_canonicalisation_is_coset_invariant(gi, hi):
    grp, iface = gamma_iface(2, PLUS)
    build = _cached_build(grp, iface)
    els = _cached_elements(grp)
    g = els[gi % len(els)]
    h = iface.subgroup[hi % len(iface.subgroup)]
    assert build.vertex_of(h * g) == build.vertex_of(g)


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


def test_perm_of_right_multiplication():
    grp, iface = gamma_iface(2, PLUS)
    build = build_coset_graph(iface, grp.a)
    za = grp.z * grp.a
    p = build.perm_of(za)
    for v, rep in enumerate(build.reps):
        assert p(v) == build.vertex_of(rep * za)


def test_neighbourhood_of_base_vertex_matches_words():
    grp, iface = gamma_iface(3, PLUS)
    build = build_coset_graph(iface, grp.a)
    a = grp.a
    words = [a, grp.x(5) * a, a.inverse(), grp.x(3) * a.inverse()]
    assert {build.vertex_of(w) for w in words} == set(build.graph.adj[0])


def test_build_is_deterministic():
    grp, iface = gamma_iface(2, "minus")
    b1 = build_coset_graph(iface, grp.a)
    b2 = build_coset_graph(iface, grp.a)
    assert edge_list_text(b1.graph) == edge_list_text(b2.graph)
    assert b1.graph.labels == b2.graph.labels


def test_compact_mode_matches_dense(monkeypatch):
    # the representative-only mode (taken above _ELEMENT_MAP_MAX elements)
    # gives the same graph and numbering as the element-map mode
    for t, sign in ((2, "plus"), (2, "minus")):
        grp, iface = gamma_iface(t, sign)
        dense = build_coset_graph(iface, grp.a)
        with monkeypatch.context() as m:
            m.setattr(cosetgraph, "_ELEMENT_MAP_MAX", 0)
            compact = build_coset_graph(iface, grp.a)
        assert dense.graph.adj == compact.graph.adj
        assert dense.graph.labels == compact.graph.labels
        assert [compact.vertex_of(r) for r in dense.reps] == list(range(dense.graph.n))


def test_with_action_false(monkeypatch):
    # the representative-only mode builds no vertex action
    grp, iface = gamma_iface(2, PLUS)
    monkeypatch.setattr(cosetgraph, "_ELEMENT_MAP_MAX", 0)
    build = build_coset_graph(iface, grp.a)
    assert build.action is None
    assert build.graph.n == 32


@pytest.mark.parametrize("spec", ["gamma:t=2,sign=plus", "gamma:t=2,sign=minus",
                                  "crs:r=6,s=3", "delta:m=2"])
def test_representative_only_mode_matches_element_map(spec, monkeypatch):
    # the memory-bounded mode is chosen from |G|; forcing it on small triples
    # must give the same graph, numbering and coset lookups, without an action
    full = build_family(FamilySpec.parse(spec)).coset
    iface, a = full.iface, full.a_elt
    full_report = validate_sabidussi(iface, a)
    monkeypatch.setattr(cosetgraph, "_ELEMENT_MAP_MAX", 0)
    lean = build_coset_graph(iface, a)
    assert lean.reps == full.reps
    assert lean.graph.adj == full.graph.adj
    assert lean.graph.labels == full.graph.labels
    assert full.action is not None and lean.action is None
    n = full.graph.n
    assert [lean.vertex_of(r) for r in full.reps] == list(range(n))
    for v in (0, 1, n // 2, n - 1):
        members = [h * full.reps[v] for h in iface.subgroup]
        assert {full.vertex_of(m) for m in members} == {v}
        assert {lean.vertex_of(m) for m in members} == {v}
    assert validate_sabidussi(iface, a) == full_report


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
    assert graph_from_json_obj(to_json_obj(g)) == g


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
