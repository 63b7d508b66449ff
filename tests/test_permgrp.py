import hashlib
import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrasym import permgrp
from tetrasym.cosetgraph import VertexAction, _RowForm, min_rows, row_keys
from tetrasym.families import FamilySpec, build_family
from tetrasym.graphalg import verify_arc_transitive
from tetrasym.permgrp import PermGroup, Permutation, _StabChain, orbit_labels

from permgrp_reference import group_elements

perm_strategy = st.integers(2, 8).flatmap(
    lambda n: st.permutations(range(n)).map(Permutation))


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


# -- Permutation ------------------------------------------------------------

def test_composition_order_is_left_to_right():
    p = cyc(3, (0, 1))
    q = cyc(3, (1, 2))
    assert (p * q)(0) == q(p(0)) == 2
    assert (p * q).images == (2, 0, 1)


def test_array_conversion_honours_dtype():
    p = cyc(5, (0, 3, 1))
    for dtype in (np.int32, np.int64, np.uint8):
        images = np.asarray(p, dtype=dtype)
        assert images.dtype == dtype and images.tolist() == list(p.images)
    assert np.asarray(p).tolist() == list(p.images)
    # groups take Permutations and image arrays alike
    G = PermGroup([p, np.asarray(p, np.int64)])
    assert all(g.dtype == np.int32 for g in G.arrays())
    assert G.contains(p * p) and G.contains(np.asarray(p * p)) and G.order() == 3


def test_involution_squares_to_identity():
    p = cyc(4, (0, 1))
    assert (p * p).is_identity()


def test_identity_law():
    p = cyc(5, (0, 3, 2))
    e = Permutation.identity(5)
    assert e * p == p
    assert p * e == p


def test_three_cycle_inverse():
    assert cyc(3, (0, 1, 2)).inverse() == cyc(3, (0, 2, 1))


def test_degree_mismatch_raises():
    with pytest.raises(ValueError):
        cyc(3, (0, 1)) * cyc(4, (0, 1))
    # a generator with no length gives no degree: it is named
    with pytest.raises(ValueError, match="^generator 0 is not an image array: 3$"):
        PermGroup([np.int64(3)])


def test_not_a_permutation():
    # one check, _bijection, refuses malformed images for Permutation and
    # for vertex maps alike, with one message
    for images in ([0, 0, 1], [0, 5, 1], [-1, 0]):
        with pytest.raises(ValueError, match="^not a permutation: not a bijection of 0..%d$"
                           % (len(images) - 1)):
            Permutation(images)
    # an id beyond int64 is refused as out of range, not overflowed, and
    # not named by the float64 or object dtype numpy gives such a list
    for images in ([2**70, 0], [2**64 - 1, 0]):
        for make in (Permutation, lambda im: PermGroup([im])):
            with pytest.raises(ValueError,
                               match="^not a permutation: ids out of range 0..1$"):
                make(images)
    # ids that are floats are named by their dtype
    with pytest.raises(ValueError,
                       match="^not a permutation: ids of dtype float64$"):
        PermGroup([np.array([1.0, 0.0])])


@pytest.mark.parametrize("make, value", [
    (lambda: Permutation([1.7, 0.2]), "1.7"),
    (lambda: Permutation(["1", "0"]), "'1'"),
    (lambda: Permutation.from_cycles(3, [(0.5, 1)]), "0.5"),
], ids=["floats", "strings", "cycle"])
def test_ids_that_are_not_integers_are_refused_not_truncated(make, value):
    with pytest.raises(ValueError, match="^point %s is not an integer$" % re.escape(value)):
        make()


@given(perm_strategy)
def test_inverse_law(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perm_strategy)
def test_cycle_string_roundtrip(p):
    assert Permutation.from_cycles(p.degree, p.cycles()) == p


@given(perm_strategy, st.integers(-6, 6))
def test_power_agrees_with_repeated_product(p, k):
    expected = Permutation.identity(p.degree)
    step = p if k >= 0 else p.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert p ** k == expected


def test_cycle_string_format():
    assert cyc(4, (0, 1), (2, 3)).cycle_string() == "(0,1)(2,3)"
    assert Permutation.identity(3).cycle_string() == "()"


def test_order():
    assert cyc(6, (0, 1), (2, 3, 4)).order() == 6
    assert Permutation.identity(4).order() == 1


# -- PermGroup: order, membership, orbits -----------------------------------

def sym(n):
    return PermGroup([cyc(n, (0, 1)), cyc(n, tuple(range(n)))])


def test_order_of_symmetric_groups():
    import math
    for n in (2, 3, 4, 5, 6):
        assert sym(n).order() == math.factorial(n)


def test_order_of_cyclic_group():
    assert PermGroup([cyc(2, (0, 1))]).order() == 2


def test_contains_basics():
    G = PermGroup([cyc(3, (0, 1, 2))])
    assert Permutation.identity(3) in G
    assert cyc(3, (0, 1)) not in G


def test_contains_degree_mismatch():
    with pytest.raises(ValueError):
        sym(4).contains(cyc(5, (0, 1)))


@pytest.mark.parametrize("images, message", [
    (np.array([-1, 0, 2]), "not a bijection"),
    (np.array([1, 1, 2]), "not a bijection"),
    (np.array([5, 0, 2]), "not a bijection"),
    # [1, 0, 2] once narrowed to int32
    (np.array([2 ** 32 + 1, 2 ** 32, 2 ** 32 + 2], np.int64), "not a bijection"),
    (np.array([0.0, 1.9, 2.2]), "not a permutation"),
    (np.array([True, False, True]), "not a permutation"),
], ids=["negative", "repeated", "too-large", "wraps-in-int32", "floats", "bools"])
def test_maps_that_are_not_bijections_are_refused(images, message):
    # as a generator, whose chain would never end on [-1, 0, 2] or [1, 1,
    # 2], and as a probe, which an int32 copy would read as a member or
    # index out of range
    with pytest.raises(ValueError, match=message):
        PermGroup([Permutation.identity(3), images]).order()
    G = PermGroup([Permutation([1, 0, 2])])
    with pytest.raises(ValueError, match=message):
        G.contains(images)
    assert G.contains([1, 0, 2]) and not G.contains([0, 2, 1])


def test_orbit():
    G = PermGroup([cyc(4, (0, 1), (2, 3))])
    assert G.orbit_labels().tolist() == [0, 0, 2, 2]
    assert PermGroup([Permutation.identity(3)]).orbit_labels().tolist() == [0, 1, 2]


def test_orbits_partition_degree():
    G = PermGroup([cyc(5, (0, 1), (2, 3))])
    assert G.orbit_labels().tolist() == [0, 0, 2, 2, 4]


def closure_orbits(G):
    """Oracle: each orbit by a plain closure over the generators, from the
    least point not yet in an orbit."""
    seen = [False] * G.degree
    out = []
    for x in range(G.degree):
        if seen[x]:
            continue
        orb, queue = {x}, [x]
        while queue:
            p = queue.pop()
            for g in G.arrays():
                if g[p] not in orb:
                    orb.add(int(g[p]))
                    queue.append(int(g[p]))
        for y in orb:
            seen[y] = True
        out.append(orb)
    return out


def check_orbits(G):
    expected = closure_orbits(G)
    least = {}
    for o in expected:
        least.update(dict.fromkeys(o, min(o)))
    assert G.orbit_labels().tolist() == [least[x] for x in range(G.degree)]
    assert G.is_transitive() == (len(expected) == 1)


def orbit_count(G) -> int:
    return len(np.unique(G.orbit_labels()))


@pytest.mark.parametrize("spec", ["delta:m=2", "crs:r=8,s=4"])
def test_orbits_match_closure_on_seeded_subgroups(spec):
    # groups generated by seeded subsets and products of a vertex action's
    # generators: several orbits of several sizes, and the whole action
    gens = [Permutation(g) for g in build_family(FamilySpec.parse(spec)).action.images]
    rng = random.Random(spec)
    groups = [PermGroup(gens)]
    for _ in range(6):
        picked = rng.sample(gens, rng.randint(1, 2))
        if rng.random() < 0.5:
            picked = [picked[0] * rng.choice(gens)]
        groups.append(PermGroup(picked))
    assert len({orbit_count(G) for G in groups}) > 2
    for G in groups:
        check_orbits(G)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.lists(
    st.permutations(range(n)).map(Permutation), min_size=0, max_size=3)
    .map(lambda gens: (n, gens))))
def test_orbits_match_closure(data):
    n, gens = data
    check_orbits(PermGroup(gens, degree=n))


def test_orbits_of_a_long_cycle_and_of_an_empty_generating_set():
    rng = random.Random(7)
    points = list(range(1000))
    rng.shuffle(points)
    images = [0] * 1000
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    check_orbits(PermGroup([Permutation(images)]))
    assert PermGroup((), degree=3).orbit_labels().tolist() == [0, 1, 2]
    assert PermGroup((), degree=0).orbit_labels().tolist() == []


# -- orbit_labels edge cases, each against closure_orbits -------------------------

def test_orbit_labels_without_generators():
    for n in (0, 1, 5):
        G = PermGroup((), degree=n)
        assert orbit_labels([], n).tolist() == list(range(n))
        assert orbit_labels([], n).dtype == np.int64
        check_orbits(G)


def test_orbit_labels_with_fixed_points():
    # two cycles and a transposition among fixed points, under two
    # generators that share the fixed points 0, 6 and 11
    G = PermGroup([cyc(12, (1, 4, 9), (2, 7)), cyc(12, (3, 10), (4, 8))])
    check_orbits(G)
    assert G.orbit_labels().tolist() == [0, 1, 2, 3, 1, 5, 6, 2, 1, 1, 3, 11]


def test_orbit_labels_of_an_involution():
    # n/2 two-point orbits, the pairs interleaved so no orbit is an interval
    n = 1000
    rng = random.Random(11)
    points = list(range(n))
    rng.shuffle(points)
    G = PermGroup([cyc(n, *zip(points[::2], points[1::2]))])
    check_orbits(G)
    assert orbit_count(G) == n // 2


def test_orbit_labels_of_a_40960_point_cycle():
    n = 40960
    rng = random.Random(40960)
    points = list(range(n))
    rng.shuffle(points)
    images = [0] * n
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    G = PermGroup([Permutation(images)])
    assert not G.orbit_labels().any()
    check_orbits(G)
    assert not orbit_labels([np.arange(1, n + 1) % n], n).any()


def test_arc_orbits_of_wreath_20000():
    # the arcs of wreath:r=20000 (160,000 of them) under its action, as a
    # permutation group on arcs numbered in a dictionary, against the
    # closure; verify_arc_transitive's arc orbit, which the wreath actions
    # reach, numbers them from the graph's padded rows instead
    fb = build_family(FamilySpec.parse("wreath:r=20000"))
    arcs = [(u, v) for u in range(fb.graph.n) for v in fb.graph.adj[u]]
    number = {arc: i for i, arc in enumerate(arcs)}
    arc_gens = [Permutation([number[p[u], p[v]] for u, v in arcs])
                for p in (q.tolist() for q in fb.action.images)]
    G = PermGroup(arc_gens)
    check_orbits(G)
    assert G.is_transitive()
    assert verify_arc_transitive(fb.graph, fb.action)
    H = PermGroup(arc_gens[:2])
    check_orbits(H)
    assert not verify_arc_transitive(fb.graph, VertexAction(fb.graph, fb.action.images[:2]))


def test_point_stabiliser_orbit_stabiliser_theorem():
    G = sym(4)
    stab = G.point_stabiliser(0)
    orbit_of_0 = np.count_nonzero(G.orbit_labels() == G.orbit_labels()[0])
    assert stab.order() * orbit_of_0 == G.order()
    assert all(g[0] == 0 for g in stab.arrays())


def test_stabiliser_of_regular_action_is_trivial():
    G = PermGroup([cyc(4, (0, 1, 2, 3))])
    assert G.point_stabiliser(2).order() == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.permutations(range(6)), min_size=1, max_size=3),
       st.integers(0, 5))
def test_base_independence(images_list, base_point):
    gens = [Permutation(im) for im in images_list]
    G1 = PermGroup(gens)
    assert G1.order() == _StabChain(6, G1.arrays(), (base_point,)).order()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(range(6)), min_size=1, max_size=3),
       st.data())
def test_closure_under_products(images_list, data):
    gens = [Permutation(im) for im in images_list]
    G = PermGroup(gens)
    word = data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=6))
    p = Permutation.identity(6)
    for i in word:
        p = p * gens[i]
    assert G.contains(p)
    q = data.draw(st.sampled_from(gens))
    assert G.contains(p * q)


def test_every_generator_is_a_member():
    G = sym(5)
    assert all(G.contains(g) for g in G.arrays())


# -- primitivity and blocks ---------------------------------------------------

def brute_force_primitive(G):
    """Oracle: search all subsets containing point 0 up to size n/2 for a
    block, using the full element list."""
    n = G.degree
    elements = group_elements(G.arrays(), n)
    for size in range(2, n // 2 + 1):
        for rest in itertools.combinations(range(1, n), size - 1):
            block = frozenset((0,) + rest)
            if all((img := frozenset(p(v) for v in block)) == block
                   or not (img & block) for p in elements):
                return False
    return True


def test_primitive_basics():
    assert sym(3).is_primitive()
    assert not PermGroup([cyc(4, (0, 1, 2, 3))]).is_primitive()


def test_primitive_requires_transitive():
    with pytest.raises(ValueError):
        PermGroup([cyc(4, (0, 1))]).is_primitive()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(range(6)), min_size=1, max_size=2))
def test_primitivity_agrees_with_brute_force(images_list):
    G = PermGroup([Permutation(im) for im in images_list])
    if not G.is_transitive():
        return
    assert G.is_primitive() == brute_force_primitive(G)


def test_min_block():
    G = PermGroup([cyc(4, (0, 1, 2, 3))])
    assert G.min_block((0, 2)) == frozenset({0, 2})
    assert G.min_block((0, 1)) == frozenset({0, 1, 2, 3})
    # the blocks of the regular C_8 are the cosets of its subgroups
    C8 = PermGroup([cyc(8, tuple(range(8)))])
    assert C8.min_block((5,)) == frozenset({5})
    assert C8.min_block((1, 5)) == frozenset({1, 5})
    assert C8.min_block((2, 4)) == frozenset({0, 2, 4, 6})
    assert C8.min_block((0, 4, 6)) == frozenset({0, 2, 4, 6})
    assert C8.min_block((0, 4, 3)) == frozenset(range(8))
    for bad in ((), (8,), (-1, 0)):
        with pytest.raises(ValueError):
            C8.min_block(bad)


# -- the order against an enumeration by products, and census -----------------

def test_elements_matches_order():
    G = sym(4)
    els = group_elements(G.arrays(), G.degree)
    assert len(els) == len(set(els)) == G.order() == 24


def element_order_census(G):
    """{element order: count} over G's elements, enumerated by products."""
    return dict(Counter(p.order() for p in group_elements(G.arrays(), G.degree)))


def test_census_trivial_group():
    G = PermGroup([Permutation.identity(3)])
    assert element_order_census(G) == {1: 1}


def test_census_c2():
    assert element_order_census(PermGroup([cyc(2, (0, 1))])) == {1: 1, 2: 1}


def test_census_s4():
    assert element_order_census(sym(4)) == {1: 1, 2: 9, 3: 8, 4: 6}


@settings(max_examples=10, deadline=None)
@given(st.permutations(range(7)))
def test_census_counts_sum_to_order(images):
    G = PermGroup([Permutation(images)])
    census = element_order_census(G)
    assert sum(census.values()) == G.order()


def test_order_invariant_under_base_reordering():
    rng = random.Random(3)
    gens = [Permutation(rng.sample(range(8), 8)) for _ in range(2)]
    G = PermGroup(gens)
    for base in ([3, 1], [7], [0, 5, 2]):
        assert _StabChain(8, G.arrays(), base).order() == G.order()


def test_chain_safe_to_force_concurrently():
    import threading
    rng = random.Random(11)
    gens = [Permutation(rng.sample(range(30), 30)) for _ in range(3)]
    G = PermGroup(gens)
    results = []
    threads = [threading.Thread(target=lambda: results.append(G.order()))
               for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(set(results)) == 1
    assert results[0] == G.order()


def test_base_starts_at_the_least_moved_point():
    # the first generator fixes 0 and 1; the chain's base still starts at
    # 0, and that generator lands on the deeper levels as well
    G = PermGroup([cyc(6, (2, 3)), cyc(6, (4, 5)), cyc(6, (0, 1, 2, 3, 4, 5))])
    assert G.chain.levels[0].point == 0
    assert G.chain.levels[1].point == 2
    assert G.order() == 720  # an adjacent transposition and a 6-cycle: Sym(6)
    assert PermGroup([cyc(7, (5, 6)), cyc(7, (3, 4, 5))]).chain.levels[0].point == 3
    assert _StabChain(6, G.arrays(), (4,)).levels[0].point == 4


# -- point stabilisers from one chain ----------------------------------------
# point_stabiliser shares levels 1.. of a complete chain based at x: the
# group's own when x is its first base point, otherwise one based at x and
# bounded by |G|; the oracle builds an unbounded chain whose base starts at
# x and takes that chain's strong generators fixing x.

def _assert_stabiliser_matches_oracle(G, x):
    stab = G.point_stabiliser(x)
    based = _StabChain(G.degree, G.arrays(), (x,))
    oracle = PermGroup(based.strong_gens_fixing_prefix(1), degree=G.degree)
    assert all(g[x] == x for g in stab.arrays())
    assert stab.order() == oracle.order()
    assert all(g in oracle for g in stab.arrays())
    assert all(g in stab for g in oracle.arrays())
    if stab is not G and x == G.chain.levels[0].point:
        assert len(stab.chain.levels) == len(G.chain.levels) - 1
        assert all(level is G.chain.levels[i + 1]
                   for i, level in enumerate(stab.chain.levels))


@pytest.mark.parametrize("member", [
    ("wreath", 4), ("crs", 6, 3),
    ("gamma", 2, "plus"), ("gamma", 2, "minus"),
    ("gamma", 3, "plus"), ("gamma", 3, "minus"),
    ("delta", 2),
], ids=lambda member: ":".join(map(str, member)))
def test_point_stabiliser_matches_based_chain(fam, member):
    action = getattr(fam, member[0])(*member[1:]).action
    G, n = action.group, action.graph.n
    for x in (0, n - 1, random.Random(n).randrange(n)):
        _assert_stabiliser_matches_oracle(G, x)


def test_point_stabiliser_outside_first_basic_orbit():
    G = PermGroup([cyc(6, (0, 1, 2)), cyc(6, (3, 4))])
    assert 3 not in G.chain.levels[0]
    _assert_stabiliser_matches_oracle(G, 3)
    assert G.point_stabiliser(3).order() == 3


def test_point_stabiliser_of_point_every_generator_fixes():
    G = PermGroup([cyc(6, (0, 1, 2)), cyc(6, (3, 4))])
    assert G.point_stabiliser(5).order() == G.order()
    _assert_stabiliser_matches_oracle(G, 5)
    trivial = PermGroup([], degree=3)
    assert trivial.point_stabiliser(1).order() == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(range(7)), min_size=1, max_size=3))
def test_point_stabiliser_matches_oracle_at_every_point(images_list):
    G = PermGroup([Permutation(im) for im in images_list])
    for x in range(G.degree):
        _assert_stabiliser_matches_oracle(G, x)


# -- array form: image rows ---------------------------------------------------

@pytest.mark.parametrize("spec", ["delta:m=2", "crs:r=8,s=4"])
def test_row_products_match_permutation_products(spec):
    # seeded elements of G = <H, a>, multiplied as rows and as Permutations:
    # every pair of two arrays, one row by an array and an array by one row
    coset = build_family(FamilySpec.parse(spec)).coset
    form, gens = coset.iface.form, coset.iface.generators + (coset.a_elt,)
    rng = random.Random(spec)

    def element():
        g = rng.choice(gens)
        for _ in range(rng.randrange(30)):
            g = g * rng.choice(gens)
        return g
    ps = [element() for _ in range(500)]
    qs = [element() for _ in range(500)]
    P, Q = form.pack(ps), form.pack(qs)
    assert type(form) is _RowForm
    assert (form.unpack(form.outer(P[:40], Q[:40]))
            == [p * q for q in qs[:40] for p in ps[:40]])
    assert form.unpack(form.outer(P[:1], Q)) == [ps[0] * q for q in qs]
    assert form.unpack(form.outer(P, Q[:1])) == [p * qs[0] for p in ps]
    assert form.unpack(min_rows(P, Q)) == [min(p, q) for p, q in zip(ps, qs)]
    order = np.argsort(row_keys(P), kind="stable")
    assert [ps[i] for i in order] == sorted(ps)


# -- chains bounded by a known order ------------------------------------------
# A coset build certifies |<H, a>| = iface.order and hands it to its vertex
# action's group as an upper bound on its order (``_take_certificate``); the
# chain stops once the product of its basic orbit lengths reaches it.  The
# oracle is the chain of the same generators with no bound, run to
# completion.

def _matrix_members():
    """Every family member that `tetrasym matrix` builds by default."""
    return (["crs:r=%d,s=%d" % (r, s) for r in range(3, 9) for s in range(1, r)]
            + ["gamma:sign=%s,t=%d" % (sign, t) for t in range(2, 7)
               for sign in ("plus", "minus")]
            + ["delta:m=2", "wreath:r=4"])


def _seeded_word(gens, rng, length):
    p = Permutation.identity(gens[0].degree)
    for _ in range(length):
        p = p * rng.choice(gens)
    return p


@pytest.mark.parametrize("spec", _matrix_members())
def test_bounded_chain_matches_unbounded(spec):
    fb = build_family(FamilySpec.parse(spec))
    action = fb.action
    gens, n = action.images, action.graph.n
    full = PermGroup(gens, degree=n)
    # the wreath action has no certified bound; its true order is one
    bound = fb.coset.iface.order if fb.coset else full.order()
    assert full.is_transitive()
    bounded = PermGroup(gens, degree=n)
    bounded._take_certificate(bound)
    assert bounded.order() == full.order() == bound
    rng = random.Random(spec)
    perms = [Permutation(g) for g in gens]
    members = [_seeded_word(perms, rng, rng.randrange(1, 25)) for _ in range(10)]
    strangers = [Permutation(rng.sample(range(n), n)) for _ in range(10)]
    for p in members + strangers:
        assert bounded.contains(p) == full.contains(p)
    assert all(bounded.contains(p) for p in members)
    for x in (0, n - 1, rng.randrange(n)):
        assert bounded.point_stabiliser(x).order() == full.point_stabiliser(x).order()


@pytest.mark.parametrize("spec", _matrix_members())
def test_bounded_chain_sifts_no_first_level_schreier_generator(spec, monkeypatch):
    # The base starts at vertex 0, which H's generators fix, so they build
    # levels 1.. on their own, and the run, deepest level first, reaches
    # n|H| = |G| before it sifts a Schreier generator of level 0.  The
    # wreath action has no bound and must finish level 0.
    fb = build_family(FamilySpec.parse(spec))
    action, bound = fb.action, fb.coset.iface.order if fb.coset else None
    processed = []
    process = _StabChain._process_level

    def counted(chain, i):
        processed.append(i)
        return process(chain, i)
    monkeypatch.setattr(_StabChain, "_process_level", counted)
    chain = _StabChain(action.graph.n, list(action.images), bound=bound)
    assert chain.levels[0].point == 0
    assert len(chain.levels[0].orbit) == action.graph.n
    assert (0 in processed) == (bound is None)


def test_bound_above_the_order_gives_the_true_order():
    # H = <x_0, x_1, x_2, b, z> holds the central z, so it is not core-free:
    # the action has order |G|/2, below the certified bound |G|
    from tetrasym.cosetgraph import GroupIface, build_coset_graph
    from tetrasym.extragrp import MINUS, extension_group
    grp = extension_group(3, MINUS)
    iface = GroupIface(generators=tuple(grp.x(i) for i in range(3)) + (grp.b, grp.z),
                       identity=grp.identity, order=grp.order)
    action = build_coset_graph(iface, grp.a).action
    full = PermGroup(action.images)
    assert action.group.chain.bound == grp.order
    assert action.group.order() == full.order() == grp.order // 2
    for G in (sym(5), PermGroup([cyc(6, (0, 1, 2)), cyc(6, (3, 4))])):
        bounded = _StabChain(G.degree, G.arrays(), bound=2 * G.order())
        assert bounded.order() == G.order()


def test_bound_below_the_orbit_product_raises():
    # 7 is no product of orbit lengths of at most 5 points, so the chain of
    # Sym(5) passes it without stopping and meets a product above it
    with pytest.raises(ValueError, match="above the bound 7"):
        _StabChain(5, sym(5).arrays(), bound=7)
    with pytest.raises(ValueError, match="above the bound 1"):
        _StabChain(3, PermGroup([cyc(3, (0, 1))]).arrays(), bound=1)


def test_bounded_chain_is_deterministic():
    def strong_gens(spec):
        fb = build_family(FamilySpec.parse(spec))
        chain = _StabChain(fb.graph.n, list(fb.action.images),
                           bound=fb.coset.iface.order)
        return [g.tolist() for g in chain.strong_gens_fixing_prefix(0)]
    for spec in ("delta:m=2", "gamma:sign=minus,t=5"):
        assert strong_gens(spec) == strong_gens(spec)


@pytest.mark.parametrize("spec", ["delta:m=2", "gamma:sign=minus,t=5"])
def test_strong_gens_deduplicate_as_their_bytes(spec):
    # the oracle: the first array of each distinct image, by byte hashing
    fb = build_family(FamilySpec.parse(spec))
    chain = _StabChain(fb.graph.n, list(fb.action.images),
                       bound=fb.coset.iface.order)
    for k in range(len(chain.levels) + 1):
        oracle, seen = [], set()
        for lv in chain.levels[k:]:
            for g in lv.gens:
                if g.tobytes() not in seen:
                    seen.add(g.tobytes())
                    oracle.append(g)
        got = chain.strong_gens_fixing_prefix(k)
        assert [g.tolist() for g in got] == [g.tolist() for g in oracle]


# -- chains of groups known to be transitive ----------------------------------
# A coset build reaches every coset from H, so it hands its action's group
# the fact that it is transitive: the orbit labels start all zero, and the
# chain's first level is the whole point set, its orbit and Schreier vector
# made on first use.  The oracles are the orbit labelling of the generators
# and the chain of the same generators and bound with no certificate, whose
# levels grow at once as each generator comes (``_EagerLevel``), where a
# chain's own levels grow when read.

_CERTIFIED = (["gamma:sign=%s,t=%d" % (sign, t) for t in (2, 3, 4)
               for sign in ("plus", "minus")]
              + ["crs:r=6,s=3", "crs:r=8,s=4", "delta:m=2"])


class _EagerLevel(permgrp._Level):
    __slots__ = ()

    def add_gen(self, g):
        super().add_gen(g)
        self.grown()


def _eager_chain(degree, gens, base_prefix=(), bound=None) -> _StabChain:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(permgrp, "_Level", _EagerLevel)
        chain = _StabChain(degree, gens, base_prefix, bound=bound)
    assert all(type(lv) is _EagerLevel for lv in chain.levels)
    return chain


def _chains_agree(lazy: _StabChain, eager: _StabChain):
    """Level by level, base point, orbit, Schreier vector, size and
    generators agree, and so do order and strong generators.  The lazy
    levels are read as they are, so each must have been grown already."""
    assert len(lazy.levels) == len(eager.levels)
    for lv, oracle in zip(lazy.levels, eager.levels):
        assert lv.point == oracle.point
        assert np.array_equal(lv.orbit, oracle.orbit)
        assert np.array_equal(lv.sv, oracle.sv)
        assert lv.size == oracle.size == len(oracle.orbit)
        assert [g.tolist() for g in lv.gens] == [g.tolist() for g in oracle.gens]
    assert lazy.order() == eager.order()
    assert ([g.tolist() for g in lazy.strong_gens_fixing_prefix(0)]
            == [g.tolist() for g in eager.strong_gens_fixing_prefix(0)])


@pytest.mark.parametrize("spec", _CERTIFIED)
def test_coset_action_is_transitive_by_its_generators_labels(spec):
    action = build_family(FamilySpec.parse(spec)).action
    assert not orbit_labels(list(action.images), action.graph.n).any()
    labels = action.group.orbit_labels()
    assert not labels.any() and labels.shape == (action.graph.n,)


@pytest.mark.parametrize("spec", _CERTIFIED)
def test_whole_first_level_equals_the_grown_one(spec):
    fb = build_family(FamilySpec.parse(spec))
    action = fb.action
    G, n = action.group, action.graph.n
    eager = _eager_chain(n, list(action.images), bound=fb.coset.iface.order)
    assert G.point_stabiliser(0).order() == eager.order() // n
    assert G.chain.levels[0].sv is None  # order and the stabiliser never read it
    mover = next(g for g in action.images if g[0] != 0)
    assert G.contains(mover) and eager.contains(mover)
    _chains_agree(G.chain, eager)
    # the chain that point_stabiliser(5) bases at 5 has a whole first
    # level too; forced, it equals the one grown as it went
    lazy5 = _StabChain(n, list(action.images), (5,), bound=G.order(),
                       transitive=True)
    eager5 = _eager_chain(n, list(action.images), (5,), bound=G.order())
    mover = next(g for g in action.images if g[5] != 5)
    assert lazy5.contains(mover) and eager5.contains(mover)
    _chains_agree(lazy5, eager5)
    stab = G.point_stabiliser(5)
    assert stab.order() == eager5.order() // n
    assert ([g.tolist() for g in stab.arrays()]
            == [g.tolist() for g in eager5.strong_gens_fixing_prefix(1)])


@pytest.mark.parametrize("spec", _CERTIFIED)
def test_whole_first_level_under_a_bound_never_reached(spec):
    # twice the true order is never a product of orbit lengths, so the run
    # must sift level 0's Schreier generators and make its orbit
    action = build_family(FamilySpec.parse(spec)).action
    n, order = action.graph.n, action.group.order()
    group = PermGroup(action.images, degree=n)
    group._take_certificate(2 * order)
    assert group.order() == order
    eager = _eager_chain(n, list(action.images), bound=2 * order)
    _chains_agree(group.chain, eager)


@pytest.mark.parametrize("spec", ["gamma:sign=minus,t=2", "crs:r=6,s=3"])
def test_whole_first_level_enumerates_the_group(spec):
    # every element, enumerated by products, sifts through the whole first
    # level, and there are order() of them
    action = build_family(FamilySpec.parse(spec)).action
    elements = group_elements(action.images, action.graph.n)
    assert all(p in action.group for p in elements)
    assert len(elements) == action.group.order()


def test_a_wrong_transitivity_certificate_is_caught_when_level_0_is_made():
    # orbits {0, 1, 2}, {3, 4} and {5}: the run cannot reach the bound, so
    # it makes level 0's orbit and finds 3 points, not 6
    group = PermGroup([cyc(6, (0, 1, 2)), cyc(6, (3, 4))])
    group._take_certificate(24)
    with pytest.raises(ValueError, match="taken as transitive"):
        group.order()


def test_whole_first_level_safe_to_make_concurrently():
    # sixteen threads on two cores sift through the first level at once;
    # each must see it whole, made once
    import sys
    import threading
    action = build_family(FamilySpec.parse("delta:m=2")).action
    G, n = action.group, action.graph.n
    eager = _eager_chain(n, list(action.images), bound=G.order())
    rng = random.Random(5)
    perms = [Permutation(g) for g in action.images]
    probes = ([_seeded_word(perms, rng, 30) for _ in range(8)]
              + [Permutation(rng.sample(range(n), n)) for _ in range(8)])
    results = [None] * len(probes)

    def probe(i):
        results[i] = G.contains(probes[i])

    threads = [threading.Thread(target=probe, args=(i,)) for i in range(len(probes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [eager.contains(np.asarray(p, np.int32)) for p in probes]
    assert results[:8] == [True] * 8
    _chains_agree(G.chain, eager)


# -- levels grown on first read equal levels grown eagerly -------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=4)))
def test_late_growth_equals_eager_growth(images_list):
    gens = [np.array(images, np.int32) for images in images_list]
    n = len(gens[0])
    eager = _eager_chain(n, gens)
    _chains_agree(_StabChain(n, gens), eager)
    # bounded by the true order, and with a whole first level when the
    # group is transitive
    order = eager.order()
    transitive = not orbit_labels(gens, n).any()
    bounded = _StabChain(n, gens, bound=order, transitive=transitive)
    for lv in bounded.levels:
        lv.grown()
    _chains_agree(bounded, _eager_chain(n, gens, bound=order))


# -- the chains of the chain-checked members, pinned ---------------------------
# tests/data/chains.json holds, for every member whose chain the checks
# read, its group's chain after ``point_stabiliser(0).order()``: per level
# the base point, the basic orbit's size and the number of generators, and
# for a level whose orbit has been grown a sha256 of its orbit (as int64)
# and of its Schreier vector (as int32).  Regenerate with
# ``python tests/test_permgrp.py`` only when a chain is meant to change.

_CHAINS = Path(__file__).parent / "data" / "chains.json"
_CHAIN_MEMBERS = (["crs:r=%d,s=%d" % (r, s) for r in range(3, 9) for s in range(1, r)]
                  + ["gamma:sign=%s,t=%d" % (sign, t) for t in range(2, 7)
                     for sign in ("plus", "minus")]
                  + ["delta:m=2"] + ["wreath:r=%d" % r for r in range(3, 9)])


def _is_grown(level) -> bool:
    return level.applied == len(level.gens)


def _sha(array, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype).tobytes()).hexdigest()


def _chain_record(spec: str) -> list:
    group = build_family(FamilySpec.parse(spec)).action.group
    group.point_stabiliser(0).order()
    record = []
    for level in group.chain.levels:
        row = {"point": level.point, "size": level.size, "gens": len(level.gens)}
        if _is_grown(level):
            row.update(orbit=_sha(level.orbit, np.int64), sv=_sha(level.sv, np.int32))
        record.append(row)
    return record


@pytest.mark.parametrize("spec", _CHAIN_MEMBERS)
def test_chain_matches_its_pin(spec):
    assert _chain_record(spec) == json.loads(_CHAINS.read_text())[spec]


if __name__ == "__main__":
    _CHAINS.write_text(json.dumps({spec: _chain_record(spec) for spec in _CHAIN_MEMBERS},
                                  indent=1, sort_keys=True) + "\n")
