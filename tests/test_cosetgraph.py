import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrasym import cosetgraph
from tetrasym.cli import CHECK_NAMES, family_checks
from tetrasym.cosetgraph import (Graph, GroupIface, VertexAction,
                                 build_coset_graph, edge_list_text, sphere,
                                 to_dot, to_json_obj, validate_corefree,
                                 validate_sabidussi)
from tetrasym.extragrp import PLUS, SIGNS, extension_group
from tetrasym.families import FamilySpec, build_family
from tetrasym.permgrp import Permutation


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def gamma_iface(t, sign):
    grp = extension_group(t, sign)
    gens = tuple(grp.x(i) for i in range(t)) + (grp.b,)
    return grp, GroupIface(generators=gens, identity=grp.identity,
                           order=grp.order, label=lambda g: g.word())


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


def _scalar_graph_error(n, adj):
    """The first error of a vertex-by-vertex validation, the oracle for the
    array checks: None for a valid adjacency."""
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
    report = validate_sabidussi(iface, a)
    assert report.valency == 1
    assert not report.tetravalent
    with pytest.raises(ValueError):
        build_coset_graph(iface, a)


def test_asymmetric_triple_reported():
    # Z_5 with H trivial: HaH = {a} does not hold a^-1 = a^4
    a = cyc(5, (0, 1, 2, 3, 4))
    iface = GroupIface(generators=(), identity=Permutation.identity(5), order=5)
    report = validate_sabidussi(iface, a)
    assert (report.connected, report.symmetric, report.valency) == (True, False, 1)
    assert not report.ok


@pytest.mark.parametrize("t,sign", [(2, s) for s in SIGNS] + [(3, s) for s in SIGNS])
def test_gamma_triples_satisfy_hypotheses(t, sign):
    grp, iface = gamma_iface(t, sign)
    report = validate_sabidussi(iface, grp.a)
    assert report.ok
    build = build_coset_graph(iface, grp.a)
    assert validate_corefree(build)
    assert build.graph.n * len(iface.subgroup) == iface.order


def _non_corefree_build():
    # z is central, so it fixes every coset of H = <x_0, x_1, b, z>
    grp = extension_group(2, PLUS)
    iface = GroupIface(generators=(grp.x(0), grp.x(1), grp.b, grp.z),
                       identity=grp.identity, order=grp.order)
    return build_coset_graph(iface, grp.a)


def test_non_corefree_subgroup_detected():
    assert not validate_corefree(_non_corefree_build())


def _corefree_oracle(build):
    """Reference: one coset lookup per pair (h, vertex), stopping at the
    first h that fixes every coset."""
    for h in build.iface.subgroup:
        if h == build.iface.identity:
            continue
        if all(build.vertex_of(rep * h) == v
               for v, rep in enumerate(build.reps)):
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


@pytest.mark.parametrize("spec", ["delta:m=2", "gamma:t=3,sign=minus",
                                  "crs:r=6,s=3"])
def test_build_and_checks_never_call_the_labeller(spec):
    # the labels are made on the first read of graph.labels, and kept; no
    # step of the build and no check reads them or the representatives
    fb = build_family(FamilySpec.parse(spec))
    calls = []

    def label(elt):
        calls.append(elt)
        return fb.coset.iface.label(elt)

    iface = dataclasses.replace(fb.coset.iface, label=label)
    coset = build_coset_graph(iface, fb.coset.a_elt)
    member = dataclasses.replace(fb, graph=coset.graph, action=coset.action,
                                 coset=coset)
    rows = family_checks(member, list(CHECK_NAMES))
    assert sorted(r["name"] for r in rows) == sorted(CHECK_NAMES)
    assert all(r.get("skipped") or r["pass"] for r in rows)
    assert calls == []
    assert "reps" not in vars(coset)
    labels = coset.graph.labels
    assert len(calls) == coset.graph.n
    assert labels == fb.graph.labels
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
    iface, a = full.iface, full.a_elt
    full_report = validate_sabidussi(iface, a)
    assert lean.reps == full.reps
    assert lean.graph.adj == full.graph.adj
    assert lean.graph.labels == full.graph.labels
    assert lean.action.gen_perms == full.action.gen_perms
    n = full.graph.n
    assert [lean.vertex_of(r) for r in full.reps] == list(range(n))
    for v in (0, 1, n // 2, n - 1):
        members = [h * full.reps[v] for h in iface.subgroup]
        assert {full.vertex_of(m) for m in members} == {v}
        assert {lean.vertex_of(m) for m in members} == {v}
    assert validate_sabidussi(lean.iface, a) == full_report


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


@pytest.mark.parametrize("spec", ["gamma:t=3,sign=plus", "gamma:t=4,sign=minus",
                                  "crs:r=6,s=3", "crs:r=7,s=6", "delta:m=2"])
def test_batched_bfs_numbers_as_sequential_bfs(spec):
    coset = build_family(FamilySpec.parse(spec)).coset
    reps, adj = _sequential_bfs(coset.iface, coset.a_elt)
    assert coset.reps == tuple(reps)
    assert coset.graph.adj == adj


@pytest.mark.parametrize("spec", ["gamma:t=2,sign=minus", "crs:r=6,s=3", "delta:m=2"])
def test_build_sabidussi_matches_validation(spec, monkeypatch):
    # a build knows <H, a> = G from its coset count, so its report needs no
    # second exploration and equals the one validate_sabidussi explores for
    coset = build_family(FamilySpec.parse(spec)).coset
    explored = validate_sabidussi(coset.iface, coset.a_elt)
    assert explored.ok

    def no_exploration(*args):
        raise AssertionError("explored again")

    monkeypatch.setattr(cosetgraph, "_explore", no_exploration)
    assert coset.sabidussi() == explored


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
             repr([p.images for p in fb.action.gen_perms]),
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
