import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrasym.families import FamilySpec, build_family
from tetrasym.permgrp import PermGroup, Permutation, min_rows, mul_rows, row_keys

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


def test_point_stabiliser_orbit_stabiliser_theorem():
    G = sym(4)
    stab = G.point_stabiliser(0)
    assert stab.order() * len(G.orbit(0)) == G.order()
    assert all(g(0) == 0 for g in stab.generators)


def test_stabiliser_of_regular_action_is_trivial():
    G = PermGroup([cyc(4, (0, 1, 2, 3))])
    assert G.point_stabiliser(2).order() == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.permutations(range(6)), min_size=1, max_size=3),
       st.integers(0, 5))
def test_base_independence(images_list, base_point):
    gens = [Permutation(im) for im in images_list]
    G1 = PermGroup(gens)
    G2 = PermGroup(gens, base_prefix=(base_point,))
    assert G1.order() == G2.order()


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
    assert all(G.contains(g) for g in G.generators)


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
        assert PermGroup(gens, base_prefix=base).order() == G.order()


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


# -- point stabilisers from one chain ----------------------------------------
# point_stabiliser conjugates the chain's stabiliser of its first base point;
# the oracle builds a second chain whose base starts at x and takes that
# chain's strong generators fixing x.

def _assert_stabiliser_matches_oracle(G, x):
    stab = G.point_stabiliser(x)
    based = PermGroup(G.generators, degree=G.degree, base_prefix=(x,))
    oracle = PermGroup([Permutation(g) for g in based.chain.strong_gens_fixing_prefix(1)],
                       degree=G.degree)
    assert all(g(x) == x for g in stab.generators)
    assert stab.order() == oracle.order()
    assert all(g in oracle for g in stab.generators)
    assert all(g in stab for g in oracle.generators)


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
    gens, n = action.gen_perms, action.graph.n
    full = PermGroup(gens, degree=n)
    # the wreath action has no certified bound; its true order is one
    bound = action.order_bound or full.order()
    bounded = PermGroup(gens, degree=n, order_bound=bound)
    assert bounded.order() == full.order() == bound
    rng = random.Random(spec)
    members = [_seeded_word(gens, rng, rng.randrange(1, 25)) for _ in range(10)]
    strangers = [Permutation(rng.sample(range(n), n)) for _ in range(10)]
    for p in members + strangers:
        assert bounded.contains(p) == full.contains(p)
    assert all(bounded.contains(p) for p in members)
    for x in (0, n - 1, rng.randrange(n)):
        assert bounded.point_stabiliser(x).order() == full.point_stabiliser(x).order()


def test_bound_above_the_order_gives_the_true_order():
    # H = <x_0, x_1, x_2, b, z> holds the central z, so it is not core-free:
    # the action has order |G|/2, below the certified bound |G|
    from tetrasym.cosetgraph import GroupIface, build_coset_graph
    from tetrasym.extragrp import MINUS, extension_group
    grp = extension_group(3, MINUS)
    iface = GroupIface(generators=tuple(grp.x(i) for i in range(3)) + (grp.b, grp.z),
                       identity=grp.identity, order=grp.order)
    action = build_coset_graph(iface, grp.a).action
    full = PermGroup(action.gen_perms)
    assert action.order_bound == grp.order
    assert action.group.order() == full.order() == grp.order // 2
    for G in (sym(5), PermGroup([cyc(6, (0, 1, 2)), cyc(6, (3, 4))])):
        assert PermGroup(G.generators, order_bound=2 * G.order()).order() == G.order()


def test_bound_below_the_orbit_product_raises():
    # 7 is no product of orbit lengths of at most 5 points, so the chain of
    # Sym(5) passes it without stopping and meets a product above it
    with pytest.raises(ValueError, match="above the bound 7"):
        PermGroup(sym(5).generators, order_bound=7).order()
    with pytest.raises(ValueError, match="above the bound 1"):
        PermGroup([cyc(3, (0, 1))], order_bound=1).order()


def test_bounded_chain_is_deterministic():
    def strong_gens(spec):
        action = build_family(FamilySpec.parse(spec)).action
        group = PermGroup(action.gen_perms, order_bound=action.order_bound)
        return [g.tolist() for g in group.chain.strong_gens_fixing_prefix(0)]
    for spec in ("delta:m=2", "gamma:sign=minus,t=5"):
        assert strong_gens(spec) == strong_gens(spec)
