import pytest

from tetrasym import graphalg
from tetrasym.cosetgraph import sphere, validate_corefree, validate_sabidussi
from tetrasym.extragrp import MINUS, PLUS, SIGNS
from tetrasym.families import (FamilySpec, build_family, central_block_words,
                               delta, delta_permutations, first_sphere_words,
                               gamma, praeger_xu_coset, praeger_xu_direct,
                               second_sphere_words, third_sphere_words,
                               wreath_graph)
from tetrasym.permgrp import PermGroup, Permutation


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
    assert PermGroup(fb.action.gen_perms).order() == 2 ** r * 2 * r


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
        rep = validate_sabidussi(fb.coset.iface, fb.coset.a_elt)
        assert rep.ok
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
    rep = validate_sabidussi(fb.coset.iface, fb.coset.a_elt)
    assert rep.ok
    assert validate_corefree(fb.coset)
    assert graphalg.verify_arc_transitive(fb.graph, fb.action)


def test_gamma_first_sphere_words(fam):
    fb = fam.gamma(3, MINUS)
    words = first_sphere_words(fb.group)
    assert {fb.coset.vertex_of(w) for w in words} == set(fb.graph.adj[0])


@pytest.mark.parametrize("t,sign", [(2, MINUS), (3, PLUS), (3, MINUS), (4, PLUS)])
def test_gamma_second_sphere_words(fam, t, sign):
    fb = fam.gamma(t, sign)
    words = second_sphere_words(fb.group)
    assert len(words) == 12
    cosets = {fb.coset.vertex_of(w) for w in words}
    assert len(cosets) == 12
    assert cosets == sphere(fb.graph, 0, 2)


@pytest.mark.parametrize("t,sign", [(3, MINUS), (4, PLUS), (4, MINUS), (5, PLUS),
                                    (5, MINUS)])
def test_gamma_third_sphere_transversal(fam, t, sign):
    fb = fam.gamma(t, sign)
    words = third_sphere_words(fb.group)
    assert len(words) == 36
    cosets = {fb.coset.vertex_of(w) for w in words}
    assert len(cosets) == 36


def test_gamma_third_sphere_collapses_for_3plus(fam):
    # a^3 = a^-3 in the plus group at t=3, so the word families overlap
    fb = fam.gamma(3, PLUS)
    assert len(third_sphere_words(fb.group)) == 28


@pytest.mark.parametrize("t", (4, 5))
@pytest.mark.parametrize("sign", SIGNS)
def test_gamma_block_words(fam, t, sign):
    fb = fam.gamma(t, sign)
    vertices = {fb.coset.vertex_of(w) for w in central_block_words(fb.group)}
    assert len(vertices) == 4
    assert graphalg.is_block(fb.action, vertices)


def test_gamma_guards():
    with pytest.raises(ValueError):
        gamma(1, PLUS)
    with pytest.raises(ValueError):
        gamma(11, PLUS)
    with pytest.raises(ValueError):
        gamma(7, PLUS)  # needs allow_large


def test_gamma_vertex_stabiliser(fam):
    fb = fam.gamma(3, MINUS)
    grp = PermGroup(fb.action.gen_perms)
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
    grp = PermGroup(fb.action.gen_perms)
    assert grp.order() == 40320
    assert grp.point_stabiliser(0).order() == 16


def test_delta2_natural_action_primitive():
    perms = delta_permutations(2)
    natural = PermGroup(perms["xs"] + [perms["h"], perms["a"]])
    assert natural.order() == 40320
    assert natural.orbit(0) == set(range(8))
    assert len(natural.orbit(0)) * natural.point_stabiliser(0).order() == 40320
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
        delta(3)  # needs allow_large
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


def test_delta3_guard_plumbing():
    # allow_large lifts the m <= 2 limit, but an explicit max_vertices still
    # reaches the explorer's vertex guard; this exercises the m=3 path without
    # paying for the 7.5M-vertex build
    with pytest.raises(ValueError, match="7484400"):
        delta(3, allow_large=True, max_vertices=10)


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
    grp = PermGroup(fam.wreath(r).action.gen_perms)
    assert grp.point_stabiliser(0).order() == 2 ** r
