import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrasym.cosetgraph import VertexAction
from tetrasym.families import FamilySpec, build_family
from tetrasym.graphalg import verify_arc_transitive
from tetrasym.permgrp import (PermGroup, Permutation, _StabChain, min_rows,
                              mul_rows, orbit_labels, row_keys)

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


def test_not_a_permutation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 5, 1])


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


def test_orbit():
    G = PermGroup([cyc(4, (0, 1), (2, 3))])
    assert G.orbit(0) == {0, 1}
    assert PermGroup([Permutation.identity(3)]).orbit(0) == {0}


def test_orbits_partition_degree():
    G = PermGroup([cyc(5, (0, 1), (2, 3))])
    orbits = G.orbits()
    assert sorted(sum(([*o] for o in orbits), [])) == list(range(5))


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
    assert G.orbits() == expected
    least = {}
    for o in expected:
        least.update(dict.fromkeys(o, min(o)))
    assert G.orbit_labels().tolist() == [least[x] for x in range(G.degree)]
    assert G.is_transitive() == (len(expected) == 1)
    for x in range(0, G.degree, max(1, G.degree // 5)):
        assert G.orbit(x) == next(o for o in expected if x in o)


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
    assert len({len(G.orbits()) for G in groups}) > 2
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
    assert PermGroup((), degree=3).orbits() == [{0}, {1}, {2}]
    assert PermGroup((), degree=0).orbits() == []


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
    assert len(G.orbits()) == n // 2


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
    assert stab.order() * len(G.orbit(0)) == G.order()
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
    elements = G.elements()
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


# -- enumeration and census ----------------------------------------------------

def test_elements_matches_order():
    G = sym(4)
    els = G.elements()
    assert len(els) == 24
    assert len(set(els)) == 24


def element_order_census(G, cap=10 ** 6):
    """{element order: count} over the enumerated elements of G."""
    return dict(Counter(p.order() for p in G.elements(cap=cap)))


def test_census_trivial_group():
    G = PermGroup([Permutation.identity(3)])
    assert element_order_census(G) == {1: 1}


def test_census_c2():
    assert element_order_census(PermGroup([cyc(2, (0, 1))])) == {1: 1, 2: 1}


def test_census_s4():
    assert element_order_census(sym(4)) == {1: 1, 2: 9, 3: 8, 4: 6}


def test_census_cap():
    with pytest.raises(ValueError):
        element_order_census(sym(8), cap=1000)


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
# point_stabiliser conjugates the stabiliser of the first base point of a
# chain whose first basic orbit holds x (the group's own, or one based at x)
# and bounds it by |G| over that orbit's length; the oracle builds a second
# chain whose base starts at x and takes that chain's strong generators
# fixing x.

def _assert_stabiliser_matches_oracle(G, x):
    stab = G.point_stabiliser(x)
    based = _StabChain(G.degree, G.arrays(), (x,))
    oracle = PermGroup(based.strong_gens_fixing_prefix(1), degree=G.degree)
    assert all(g[x] == x for g in stab.arrays())
    assert stab.order() == oracle.order()
    assert all(g in oracle for g in stab.arrays())
    assert all(g in stab for g in oracle.arrays())
    if stab is not G:
        assert stab.order_bound == oracle.order()


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
    # seeded elements of G = <H, a>, multiplied as rows and as Permutations,
    # as array*array, scalar*array and array*scalar
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
    assert form.unpack(mul_rows(P, Q)) == [p * q for p, q in zip(ps, qs)]
    assert form.unpack(mul_rows(P[0], Q)) == [ps[0] * q for q in qs]
    assert form.unpack(mul_rows(P, Q[0])) == [p * qs[0] for p in ps]
    assert form.unpack(min_rows(P, Q)) == [min(p, q) for p, q in zip(ps, qs)]
    order = np.argsort(row_keys(P), kind="stable")
    assert [ps[i] for i in order] == sorted(ps)


# -- chains bounded by a known order ------------------------------------------
# A coset build certifies |<H, a>| = iface.order and hands it to its vertex
# action as an upper bound on the action's order; the chain stops once the
# product of its basic orbit lengths reaches it.  The oracle is the chain of
# the same generators with no bound, run to completion.

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
    action = build_family(FamilySpec.parse(spec)).action
    gens, n = action.images, action.graph.n
    full = PermGroup(gens, degree=n)
    # the wreath action has no certified bound; its true order is one
    bound = action.order_bound or full.order()
    bounded = PermGroup(gens, degree=n, order_bound=bound)
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
    action = build_family(FamilySpec.parse(spec)).action
    processed = []
    process = _StabChain._process_level

    def counted(chain, i):
        processed.append(i)
        return process(chain, i)
    monkeypatch.setattr(_StabChain, "_process_level", counted)
    chain = PermGroup(action.images, degree=action.graph.n,
                      order_bound=action.order_bound).chain
    assert chain.levels[0].point == 0
    assert len(chain.levels[0].orbit) == action.graph.n
    assert (0 in processed) == (action.order_bound is None)


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
    assert action.order_bound == grp.order
    assert action.group.order() == full.order() == grp.order // 2
    for G in (sym(5), PermGroup([cyc(6, (0, 1, 2)), cyc(6, (3, 4))])):
        assert PermGroup(G.arrays(), order_bound=2 * G.order()).order() == G.order()


def test_bound_below_the_orbit_product_raises():
    # 7 is no product of orbit lengths of at most 5 points, so the chain of
    # Sym(5) passes it without stopping and meets a product above it
    with pytest.raises(ValueError, match="above the bound 7"):
        PermGroup(sym(5).arrays(), order_bound=7).order()
    with pytest.raises(ValueError, match="above the bound 1"):
        PermGroup([cyc(3, (0, 1))], order_bound=1).order()


def test_bounded_chain_is_deterministic():
    def strong_gens(spec):
        action = build_family(FamilySpec.parse(spec)).action
        group = PermGroup(action.images, order_bound=action.order_bound)
        return [g.tolist() for g in group.chain.strong_gens_fixing_prefix(0)]
    for spec in ("delta:m=2", "gamma:sign=minus,t=5"):
        assert strong_gens(spec) == strong_gens(spec)


@pytest.mark.parametrize("spec", ["delta:m=2", "gamma:sign=minus,t=5"])
def test_strong_gens_deduplicate_as_their_bytes(spec):
    # the oracle: the first array of each distinct image, by byte hashing
    action = build_family(FamilySpec.parse(spec)).action
    chain = PermGroup(action.images, order_bound=action.order_bound).chain
    for k in range(len(chain.levels) + 1):
        oracle, seen = [], set()
        for lv in chain.levels[k:]:
            for g in lv.gens:
                if g.tobytes() not in seen:
                    seen.add(g.tobytes())
                    oracle.append(g)
        got = chain.strong_gens_fixing_prefix(k)
        assert [g.tolist() for g in got] == [g.tolist() for g in oracle]
