import random
import re

import pytest

from tetrasym import families, graphalg
from tetrasym.cosetgraph import (Graph, SabidussiReport, sphere,
                                 validate_corefree)
from tetrasym.extragrp import MINUS, PLUS, SIGNS
from tetrasym.families import (FamilySpec, build_family, central_block_words,
                               delta, delta_permutations, gamma,
                               praeger_xu_coset, praeger_xu_direct,
                               second_sphere_words, third_sphere_words,
                               wreath_graph)
from tetrasym.permgrp import PermGroup, Permutation

from coset_reference import coset_reps
from extragrp_reference import first_sphere_words, subgroup_h
from permgrp_reference import group_elements


# -- FamilySpec ---------------------------------------------------------------

def test_spec_parse_roundtrip():
    for text in ("wreath:r=5", "crs:r=6,s=3", "gamma:sign=minus,t=4", "delta:m=2"):
        assert str(FamilySpec.parse(text)) == text


def test_spec_parse_normalises_param_order():
    assert str(FamilySpec.parse("gamma:t=4,sign=minus")) == "gamma:sign=minus,t=4"


def test_spec_parse_errors():
    with pytest.raises(ValueError):
        FamilySpec.parse("nonsense")
    with pytest.raises(ValueError):
        FamilySpec.parse("octopus:r=5")
    with pytest.raises(ValueError):
        FamilySpec.parse("crs:r")
    with pytest.raises(ValueError, match="parameter s given twice"):
        FamilySpec.parse("crs:r=6,s=3,s=4")


def test_build_family_missing_param():
    with pytest.raises(ValueError):
        build_family(FamilySpec.parse("crs:r=6"))


# -- wreath graphs ---------------------------------------------------------------

def test_wreath_smallest_member(fam):
    fb = fam.wreath(3)
    assert fb.graph.n == 6
    assert fb.graph.is_regular(4)
    assert graphalg.girth(fb.graph) == 3  # triangles through three fibres
    assert not graphalg.is_bipartite(fb.graph)


def test_wreath4_is_complete_bipartite(fam):
    fb = fam.wreath(4)
    from tetrasym.cosetgraph import Graph
    k44 = Graph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    assert graphalg.isomorphic(fb.graph, k44) is not None
    assert graphalg.automorphism_group_order(fb.graph) == 1152


@pytest.mark.parametrize("r", (3, 4, 5, 6))
def test_wreath_action_group_order(fam, r):
    fb = fam.wreath(r)
    assert len(fb.action.images) == 3  # x_0, a and b
    assert PermGroup(fb.action.images).order() == 2 ** r * 2 * r


def test_wreath_action_is_arc_transitive(fam):
    for r in (3, 5):
        fb = fam.wreath(r)
        assert graphalg.verify_arc_transitive(fb.graph, fb.action)


def test_wreath_rejects_small_r():
    with pytest.raises(ValueError):
        wreath_graph(2)


def test_wreath_girth_four_from_r4(fam):
    for r in (4, 5, 6):
        assert graphalg.girth(fam.wreath(r).graph) == 4


# -- Praeger-Xu graphs --------------------------------------------------------------

def test_direct_counts():
    for r, s in ((4, 2), (6, 2), (6, 3), (8, 5)):
        assert praeger_xu_direct(r, s).n == r * 2 ** s


def test_direct_range_validation():
    with pytest.raises(ValueError):
        praeger_xu_direct(6, 5)  # s = r-1 lives only in the coset form
    with pytest.raises(ValueError):
        praeger_xu_direct(3, 2)


def test_direct_s1_is_wreath(fam):
    assert praeger_xu_direct(5, 1).adj == fam.wreath(5).graph.adj


def _edge_list_wreath(r):
    """Oracle: the wreath graph from its edge list, vertex (v, i) = 2v + i
    joined to both vertices of the next fibre."""
    edges = [(2 * v + i, 2 * ((v + 1) % r) + j)
             for v in range(r) for i in (0, 1) for j in (0, 1)]
    labels = ["(%d,%d)" % (v, i) for v in range(r) for i in (0, 1)]
    return Graph.from_edges(2 * r, edges, labels)


def _edge_list_praeger_xu(r, s):
    """Oracle: crs(r, s) from its edge list, path (j, eps) = j * 2^s + eps
    joined to its two extensions (j+1, eps >> 1 | top << s-1)."""
    edges = [(j * (1 << s) + eps, (j + 1) % r * (1 << s) + (eps >> 1 | top << (s - 1)))
             for j in range(r) for eps in range(1 << s) for top in (0, 1)]
    labels = ["(%d;%s)" % (j, format(eps, "0%db" % s)[::-1])
              for j in range(r) for eps in range(1 << s)]
    return Graph.from_edges(r * (1 << s), edges, labels)


@pytest.mark.parametrize("r", range(3, 13))
def test_closed_form_graphs_equal_edge_list_constructions(r):
    graphs = [(wreath_graph(r).graph, _edge_list_wreath(r))]
    graphs += [(praeger_xu_direct(r, s), _edge_list_praeger_xu(r, s))
               for s in range(2, r - 1)]
    for graph, oracle in graphs:
        assert "_labels" in vars(graph) and callable(vars(graph)["_labels"])
        assert graph == oracle  # vertex count, rows and labels
        assert graph.adj == oracle.adj and graph.labels == oracle.labels


@pytest.mark.parametrize("r,s", [(4, 1), (4, 3), (5, 4), (6, 5), (3, 1), (3, 2)])
def test_coset_counts_including_extremes(fam, r, s):
    assert fam.crs(r, s).graph.n == r * 2 ** s


def test_coset_s1_isomorphic_to_wreath(fam):
    m = graphalg.isomorphic(fam.crs(6, 1).graph, fam.wreath(6).graph)
    assert m is not None


@pytest.mark.parametrize("r", (4, 5, 6, 7, 8))
def test_direct_and_coset_agree(fam, r):
    for s in range(2, r - 1):
        direct = praeger_xu_direct(r, s)
        coset = fam.crs(r, s)
        assert direct.n == coset.graph.n == r * 2 ** s
        m = graphalg.isomorphic(direct, coset.graph)
        assert m is not None, (r, s)
        for u in range(direct.n):
            assert {m(w) for w in direct.adj[u]} == set(coset.graph.adj[m(u)])


def test_crs_girth_and_bipartiteness(fam):
    for r in range(4, 9):
        for s in range(1, r):
            g = fam.crs(r, s).graph
            assert graphalg.girth(g) == 4, (r, s)
            assert graphalg.is_bipartite(g) == (r % 2 == 0), (r, s)


def test_crs_r3_members_have_triangles(fam):
    # the two smallest members are not covered by the girth-4 claim
    assert graphalg.girth(fam.crs(3, 1).graph) == 3
    assert graphalg.girth(fam.crs(3, 2).graph) == 3


def test_crs_sabidussi_and_corefree(fam):
    for r, s in ((5, 2), (6, 3), (4, 3)):
        fb = fam.crs(r, s)
        assert fb.coset.sabidussi() == SabidussiReport(True, True, 4)
        assert validate_corefree(fb.coset)


def test_crs_local_group(fam):
    lg = graphalg.local_group(fam.crs(6, 3).action, 0)
    assert lg.order() == 8 and lg.is_transitive()


def test_crs_range_validation():
    with pytest.raises(ValueError):
        praeger_xu_coset(6, 6)
    with pytest.raises(ValueError):
        praeger_xu_coset(2, 1)


# -- gamma graphs ----------------------------------------------------------------

@pytest.mark.parametrize("t", (2, 3, 4, 5))
@pytest.mark.parametrize("sign", SIGNS)
def test_gamma_counts_and_regularity(fam, t, sign):
    fb = fam.gamma(t, sign)
    assert fb.graph.n == t * 2 ** (t + 2)
    assert fb.graph.is_regular(4)


@pytest.mark.parametrize("t,sign", [(2, PLUS), (2, MINUS), (3, PLUS), (3, MINUS)])
def test_gamma_hypotheses(fam, t, sign):
    fb = fam.gamma(t, sign)
    assert fb.coset.sabidussi() == SabidussiReport(True, True, 4)
    assert validate_corefree(fb.coset)
    assert graphalg.verify_arc_transitive(fb.graph, fb.action)


def test_gamma_first_sphere_words(fam):
    fb = fam.gamma(3, MINUS)
    words = first_sphere_words(fb.group)
    assert {fb.coset.vertices_of([w])[0] for w in words} == set(fb.graph.adj[0])


@pytest.mark.parametrize("t,sign", [(2, MINUS), (3, PLUS), (3, MINUS), (4, PLUS)])
def test_gamma_second_sphere_words(fam, t, sign):
    fb = fam.gamma(t, sign)
    words = second_sphere_words(fb.group)
    assert len(words) == 12
    cosets = {fb.coset.vertices_of([w])[0] for w in words}
    assert len(cosets) == 12
    assert cosets == sphere(fb.graph, 0, 2)


@pytest.mark.parametrize("t,sign", [(3, MINUS), (4, PLUS), (4, MINUS), (5, PLUS),
                                    (5, MINUS)])
def test_gamma_third_sphere_transversal(fam, t, sign):
    fb = fam.gamma(t, sign)
    words = third_sphere_words(fb.group)
    assert len(words) == 36
    cosets = {fb.coset.vertices_of([w])[0] for w in words}
    assert len(cosets) == 36


@pytest.mark.parametrize("t,sign", [(3, MINUS), (4, PLUS)])
def test_gamma_word_sets_batched(fam, t, sign):
    # one batched lookup per word set, against the oracle: w lies in the
    # coset H*r of vertex v exactly when w * r^-1 lies in H
    fb = fam.gamma(t, sign)
    subgroup = set(fb.coset.iface.subgroup)
    inverses = [r.inverse() for r in coset_reps(fb.coset)]
    for words in (second_sphere_words(fb.group), third_sphere_words(fb.group),
                  central_block_words(fb.group)):
        assert fb.coset.vertices_of(words) == [
            next(v for v, ri in enumerate(inverses) if w * ri in subgroup)
            for w in words]


def test_gamma_third_sphere_collapses_for_3plus(fam):
    # a^3 = a^-3 in the plus group at t=3, so the word families overlap
    fb = fam.gamma(3, PLUS)
    assert len(third_sphere_words(fb.group)) == 28


@pytest.mark.parametrize("t", (4, 5))
@pytest.mark.parametrize("sign", SIGNS)
def test_gamma_block_words(fam, t, sign):
    fb = fam.gamma(t, sign)
    vertices = {fb.coset.vertices_of([w])[0] for w in central_block_words(fb.group)}
    assert len(vertices) == 4
    assert graphalg.is_block(fb.action, vertices)


def test_gamma_guards():
    with pytest.raises(ValueError):
        gamma(1, PLUS)
    with pytest.raises(ValueError):
        gamma(11, PLUS)


def test_gamma_vertex_stabiliser(fam):
    fb = fam.gamma(3, MINUS)
    grp = PermGroup(fb.action.images)
    assert grp.order() == fb.expected.group_order
    assert grp.point_stabiliser(0).order() == 2 ** 4


# -- delta graphs ----------------------------------------------------------------

def test_delta_permutation_identities():
    for m in (2, 3):
        perms = delta_permutations(m)
        xs, h, a, g = perms["xs"], perms["h"], perms["a"], perms["g"]
        assert g == a * h
        assert (h * h).is_identity() and (a * a).is_identity()
        for i in range(1, 2 * m):
            assert xs[i - 1].conjugate(h) == xs[2 * m - i - 1]
        for i in range(1, 2 * m - 1):
            assert xs[i - 1].conjugate(g) == xs[i]
        assert xs[2 * m - 2].conjugate(g) == Permutation.from_cycles(
            4 * m, [(0, 4 * m - 2)])


def test_delta_subgroup_structure():
    for m in (2, 3):
        perms = delta_permutations(m)
        H = PermGroup(perms["xs"] + [perms["h"]])
        assert H.order() == 2 ** (2 * m)
        small = PermGroup(perms["xs"])
        assert small.order() == 2 ** (2 * m - 1)
        assert not small.contains(perms["h"])
        assert all(x.conjugate(perms["h"]) in small for x in perms["xs"])


def test_delta2_graph(fam):
    fb = fam.delta()
    assert fb.graph.n == 2520
    assert fb.graph.is_regular(4)
    assert not graphalg.is_bipartite(fb.graph)
    assert graphalg.verify_arc_transitive(fb.graph, fb.action)


def test_delta2_group_and_stabiliser(fam):
    fb = fam.delta()
    grp = PermGroup(fb.action.images)
    assert grp.order() == 40320
    assert grp.point_stabiliser(0).order() == 16


def test_delta2_natural_action_primitive():
    perms = delta_permutations(2)
    natural = PermGroup(perms["xs"] + [perms["h"], perms["a"]])
    assert natural.order() == 40320
    assert natural.is_transitive()  # the orbit of 0 is all 8 points
    assert 8 * natural.point_stabiliser(0).order() == 40320
    assert natural.is_primitive()


def test_delta2_girth_is_six(fam):
    assert graphalg.girth(fam.delta().graph) == 6


def test_delta2_locally_dihedral(fam):
    lg = graphalg.local_group(fam.delta().action, 0)
    assert lg.order() == 8 and lg.is_transitive()


def test_delta_guards():
    with pytest.raises(ValueError):
        delta(1)
    with pytest.raises(ValueError):
        delta(3)  # above the size guard
    with pytest.raises(ValueError):
        delta(4, allow_large=True)


# -- metadata -------------------------------------------------------------------

def test_expected_properties_tables(fam):
    fb = fam.gamma(4, MINUS)
    assert fb.expected.vertex_count == 256
    assert fb.expected.stabiliser_order == 32
    assert fb.expected.girth == 8
    assert fb.expected.aut_order == fb.expected.group_order == 8192
    fb = fam.gamma(2, MINUS)
    assert fb.expected.aut_order == 9 * 256
    fb = fam.crs(4, 3)
    assert fb.expected.aut_order == 256
    fb = fam.crs(4, 2)
    assert fb.expected.aut_order == 384


def test_build_family_dispatch(fam):
    fb = build_family(FamilySpec.parse("wreath:r=4"))
    assert fb.graph.n == 8
    fb = build_family(FamilySpec.parse("gamma:t=2,sign=plus"))
    assert fb.graph.n == 32


def test_delta3_guard_plumbing(monkeypatch):
    # delta(3) names its closed-form vertex count and the switch that lifts
    # the guard, before it builds the group or the graph
    def no_build(*args, **kwargs):
        raise AssertionError("built before the size guard")

    monkeypatch.setattr(families, "GroupIface", no_build)
    monkeypatch.setattr(families, "build_coset_graph", no_build)
    with pytest.raises(ValueError, match="7484400 vertices.*allow_large"):
        delta(3)


def test_size_guard_boundary():
    # the guard admits exactly 100,000 vertices, and allow_large lifts it
    assert wreath_graph(50000).graph.n == 100000
    with pytest.raises(ValueError, match="100002 vertices"):
        wreath_graph(50001)
    assert wreath_graph(50001, allow_large=True).graph.n == 100002


@pytest.mark.parametrize("r,s,n", [(50001, 1, 100002), (17, 13, 139264)])
def test_direct_size_guard(monkeypatch, r, s, n):
    # the direct oracle names its own member and the switch it takes, at
    # s=1 (the wreath graph) as at s >= 2, before it builds anything
    def no_build(*args, **kwargs):
        raise AssertionError("built before the size guard")

    with monkeypatch.context() as patched:
        patched.setattr(families, "wreath_graph", no_build)
        patched.setattr(families.Graph, "from_edges", no_build)
        patched.setattr(families, "Graph", no_build)
        message = re.escape("crs r=%d,s=%d (direct) has %d vertices" % (r, s, n))
        with pytest.raises(ValueError, match=message + ".*allow_large"):
            praeger_xu_direct(r, s)
    if s > 1:
        assert praeger_xu_direct(r, s, allow_large=True).n == n


def test_every_gamma_member_builds_without_allow_large():
    for t in range(2, 11):
        for sign in SIGNS:
            assert gamma(t, sign).graph.n == t * 2 ** (t + 2)


@pytest.mark.parametrize("r,s,expected", [
    (4, 1, 1152), (4, 2, 384), (4, 3, 256),   # the three exceptional members
    (5, 2, 320), (5, 3, 320), (6, 2, 768), (6, 3, 768), (7, 2, 1792),
])
def test_crs_automorphism_orders(fam, r, s, expected):
    assert graphalg.automorphism_group_order(fam.crs(r, s).graph) == expected
    if r != 4:
        assert expected == 2 ** r * 2 * r


@pytest.mark.parametrize("r", (4, 5))
def test_wreath_vertex_stabiliser_order(fam, r):
    grp = PermGroup(fam.wreath(r).action.images)
    assert grp.point_stabiliser(0).order() == 2 ** r


# -- closed-form coset canonicalisation --------------------------------------------

def _min_over_h(iface, g):
    return min(h * g for h in iface.subgroup)


def _array_canon(iface, elements):
    """The family's canon over the array form of ``elements``, unpacked."""
    form = iface.form
    return form.unpack(iface.canon(form.pack(elements)))


@pytest.mark.parametrize("spec", ["gamma:t=%d,sign=%s" % (t, sign)
                                  for t in (2, 3) for sign in SIGNS]
                         + ["crs:r=%d,s=%d" % (r, s)
                            for r in range(3, 7) for s in range(1, r)])
def test_canon_is_min_over_subgroup(spec):
    # every element of G: the family's closed form is the minimum of H*g
    fb = build_family(FamilySpec.parse(spec))
    iface = fb.coset.iface
    if fb.group is not None:
        elements = list(fb.group.elements())
    else:
        elements = group_elements(iface.generators + (fb.coset.a_elt,),
                                  iface.identity.degree)
    assert len(elements) == iface.order
    for g, c in zip(elements, _array_canon(iface, elements), strict=True):
        assert c == _min_over_h(iface, g)


@pytest.mark.parametrize("spec,steps", [("crs:r=%d,s=%d" % (r, s), 1000)
                                        for r in (7, 8) for s in range(1, r)]
                         + [("delta:m=2", 3000)])
def test_canon_matches_min_on_random_walk(spec, steps):
    # a seeded random walk over G = <H, a> by right multiplication with
    # H's generators and a
    fb = build_family(FamilySpec.parse(spec))
    iface = fb.coset.iface
    gens = iface.generators + (fb.coset.a_elt,)
    rng = random.Random(spec)
    walk = [iface.identity]
    for _ in range(steps):
        walk.append(walk[-1] * rng.choice(gens))
    for g, c in zip(walk[1:], _array_canon(iface, walk[1:]), strict=True):
        assert c == _min_over_h(iface, g)


# -- H by its generators --------------------------------------------------------

def _member_id(member):
    return "-".join(map(str, member))


@pytest.mark.parametrize("member", [("crs", r, s) for r in range(3, 9)
                                    for s in range(1, r)] + [("delta", 2)],
                         ids=_member_id)
def test_subgroup_is_closure_of_generators(fam, member):
    # oracle: the Schreier-Sims chain of <H's generators>, which holds each
    # element, and whose order is the number of distinct elements
    fb = getattr(fam, member[0])(*member[1:])
    iface = fb.coset.iface
    closure = PermGroup(iface.generators, degree=iface.identity.degree)
    assert list(iface.subgroup) == sorted(set(iface.subgroup))
    assert len(iface.subgroup) == closure.order()
    assert all(h in closure for h in iface.subgroup)
    assert len(iface.subgroup) == fb.expected.stabiliser_order


@pytest.mark.parametrize("t", (2, 3, 4, 5, 6))
@pytest.mark.parametrize("sign", SIGNS)
def test_gamma_subgroup_is_subgroup_h(fam, t, sign):
    fb = fam.gamma(t, sign)
    assert fb.coset.iface.subgroup == subgroup_h(fb.group)


def _full_generators(fb):
    """The generators of G listed in the paper, H's among them."""
    if fb.spec.family == "gamma":
        grp, t = fb.group, fb.spec.get("t")
        return [grp.x(i) for i in range(2 * t)] + [grp.a, grp.b]
    if fb.spec.family == "crs":
        r = fb.spec.get("r")
        xs = [Permutation.from_cycles(2 * r, [(2 * k, 2 * k + 1)]) for k in range(r)]
        return xs + [fb.coset.a_elt, fb.coset.iface.generators[-1]]
    perms = delta_permutations(fb.spec.get("m"))
    return perms["xs"] + [perms["h"], perms["a"]]


@pytest.mark.parametrize("member", [("gamma", t, sign) for t in (2, 3)
                                    for sign in SIGNS]
                         + [("crs", 6, 3), ("delta", 2)], ids=_member_id)
def test_action_is_generated_by_h_and_a(fam, member):
    # H's generators and a act as the whole of G: the same order as the
    # action of every listed generator of G
    fb = getattr(fam, member[0])(*member[1:])
    coset = fb.coset
    assert len(fb.action.images) == len(coset.iface.generators) + 1
    full = PermGroup([coset.images_of(g) for g in _full_generators(fb)])
    assert fb.action.group.order() == coset.iface.order
    assert full.order() == coset.iface.order
