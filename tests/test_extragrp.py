import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrasym import cli
from tetrasym.extragrp import (MINUS, PLUS, SIGNS, EVec, GElt, conj_by_a,
                               conj_by_b, double_coset_contains, evec_inv,
                               evec_mul, extension_group)


def all_evecs(t):
    return [EVec(t, v, z) for v in range(1 << (2 * t)) for z in (0, 1)]


def commutator(p, q):
    return p.inverse() * q.inverse() * p * q


# -- EVec --------------------------------------------------------------------

def test_evec_validation():
    with pytest.raises(ValueError):
        EVec(1, 0)
    with pytest.raises(ValueError):
        EVec(2, 16)
    with pytest.raises(ValueError):
        EVec(2, 0, 2)


def test_evec_t_mismatch():
    with pytest.raises(ValueError):
        evec_mul(EVec(2, 1), EVec(3, 1))


def test_squares_are_identity_or_central():
    t = 2
    for u in all_evecs(t):
        sq = u * u
        assert sq.v == 0
        assert (u * evec_inv(u)).is_identity()


def test_central_swap_costs_z():
    for t in (2, 3, 4):
        x0 = EVec(t, 1)
        xt = EVec(t, 1 << t)
        z = EVec(t, 0, 1)
        assert xt * x0 == x0 * xt * z


def test_evec_relation_suite():
    for t in (2, 3, 4):
        xs = [EVec(t, 1 << i) for i in range(2 * t)]
        z = EVec(t, 0, 1)
        assert (z * z).is_identity()
        for x in xs:
            assert (x * x).is_identity()
            assert commutator(x, z).is_identity()
        for i, j in itertools.product(range(2 * t), repeat=2):
            c = commutator(xs[i], xs[j])
            if abs(i - j) == t:
                assert c == z
            else:
                assert c.is_identity()


def test_evec_associativity_exhaustive_t2():
    vecs = all_evecs(2)
    for u, w in itertools.product(vecs, repeat=2):
        uw = u * w
        for y in vecs:
            assert (uw * y) == (u * (w * y))


def test_conj_examples():
    for t in (2, 3):
        assert conj_by_a(EVec(t, 1)) == EVec(t, 2)
        assert conj_by_b(EVec(t, 1)) == EVec(t, 1 << (t - 1))
        # the wrap-around pair picks up the z reordering cost
        u = EVec(t, (1 << (t - 1)) | (1 << (2 * t - 1)))
        assert conj_by_a(u) == EVec(t, 1 | (1 << t), 1)


def test_conj_maps_are_automorphisms_exhaustive_t2():
    vecs = all_evecs(2)
    for u, w in itertools.product(vecs, repeat=2):
        assert conj_by_a(u * w) == conj_by_a(u) * conj_by_a(w)
        assert conj_by_b(u * w) == conj_by_b(u) * conj_by_b(w)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 63), st.integers(0, 1), st.integers(0, 63), st.integers(0, 1))
def test_conj_maps_are_automorphisms_sampled_t3(v1, z1, v2, z2):
    u, w = EVec(3, v1, z1), EVec(3, v2, z2)
    assert conj_by_a(u * w) == conj_by_a(u) * conj_by_a(w)
    assert conj_by_b(u * w) == conj_by_b(u) * conj_by_b(w)


# -- GElt and the extension groups --------------------------------------------

@pytest.mark.parametrize("sign", SIGNS)
def test_group_identity_laws(sign):
    grp = extension_group(2, sign)
    rng = random.Random(0)
    els = list(grp.elements())
    for p in rng.sample(els, 40):
        assert p * grp.identity == p
        assert grp.identity * p == p
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()


@pytest.mark.parametrize("t", (3, 4))
@pytest.mark.parametrize("sign", SIGNS)
def test_group_associativity_sampled_larger_t(t, sign):
    grp = extension_group(t, sign)
    codes = [g.code for g in grp.elements()]
    mul = grp.mul_code
    rng = random.Random(t * 17)
    for _ in range(100_000):
        p, q, r = rng.choice(codes), rng.choice(codes), rng.choice(codes)
        assert mul(mul(p, q), r) == mul(p, mul(q, r))


def scalar_table(grp):
    """The group's codes, ascending, and the table of mul_code(p, q) with
    p running down the rows and q across."""
    codes = [g.code for g in grp.elements()]
    return np.array(codes), np.array([[grp.mul_code(p, q) for q in codes] for p in codes])


@functools.cache
def scalar_table_t2(sign):
    return scalar_table(extension_group(2, sign))


def nonassociative_triples(codes, table):
    """The number of triples (p, q, r) with (pq)r != p(qr) in a
    closed table.  The products become indices into codes; for the row of
    p, index[row] holds (pq)r and row[index] holds p(qr)."""
    index = np.searchsorted(codes, table)
    assert (codes[index] == table).all()
    return sum(int((index[row] != row[index]).sum()) for row in index)


@pytest.mark.parametrize("sign", SIGNS)
def test_group_associativity_exhaustive_t2(sign):
    # all 16.7M triples of the t=2 group
    assert nonassociative_triples(*scalar_table_t2(sign)) == 0


def test_assoc_checks_see_one_wrong_product(monkeypatch):
    # mul_code with the product a * b multiplied by x_0: the program's count
    # over every triple of the table must be the test's own sweep, 1,018;
    # EVec products are untouched
    grp = extension_group(2, MINUS)
    real, a, b, x0 = grp.mul_code, grp.a.code, grp.b.code, grp.x(0).code

    def mul_code(p, q):
        pq = real(p, q)
        return real(pq, x0) if (p, q) == (a, b) else pq

    monkeypatch.setattr(grp, "mul_code", mul_code)
    bad = nonassociative_triples(*scalar_table(grp))
    assert bad == 1018
    assert cli.gelt_exhaustive_failures(2, MINUS) == bad
    assert cli.evec_exhaustive_failures(2) == 0


@pytest.mark.parametrize("t", (2, 3, 4))
@pytest.mark.parametrize("sign", SIGNS)
def test_group_relations(t, sign):
    grp = extension_group(t, sign)
    a, b, z = grp.a, grp.b, grp.z
    two_t = 2 * t
    assert ((a * b) ** 2).is_identity()
    assert (b * b).is_identity()
    assert a.conjugate(b) == a.inverse()
    for i in range(two_t):
        assert grp.x(i).conjugate(a) == grp.x((i + 1) % two_t)
        assert grp.x(i).conjugate(b) == grp.x((t - 1 - i) % two_t)
    if sign == MINUS:
        assert a ** two_t == z
        assert a.order() == 4 * t
    else:
        assert (a ** two_t).is_identity()
        assert a.order() == 2 * t


@pytest.mark.parametrize("t", (2, 3))
def test_minus_a_inverse_normal_form(t):
    grp = extension_group(t, MINUS)
    assert grp.a.inverse() == (grp.a ** (2 * t - 1)) * grp.z


@pytest.mark.parametrize("t", (2, 3, 4))
@pytest.mark.parametrize("sign", SIGNS)
def test_enumeration_count(t, sign):
    els = list(extension_group(t, sign).elements())
    expected = t * 2 ** (2 * t + 3)
    assert len(els) == expected
    assert len(set(els)) == expected


def test_closure_by_hash_lookup():
    grp = extension_group(2, MINUS)
    els = set(grp.elements())
    rng = random.Random(2)
    sample = rng.sample(sorted(els), 32)
    for p in sample:
        for q in sample:
            assert p * q in els


def test_group_context_mismatch():
    p = extension_group(2, PLUS).a
    q = extension_group(2, MINUS).a
    with pytest.raises(ValueError):
        p * q


def test_range_validation():
    with pytest.raises(ValueError):
        extension_group(1, PLUS)
    with pytest.raises(ValueError):
        extension_group(2, "weird")


# -- the subgroup H -----------------------------------------------------------

@pytest.mark.parametrize("t", (2, 3, 4))
@pytest.mark.parametrize("sign", SIGNS)
def test_subgroup_h_structure(t, sign):
    grp = extension_group(t, sign)
    H = grp.subgroup_h()
    assert len(H) == 2 ** (t + 1)
    hset = frozenset(H.elements)
    for h1 in H.elements:
        for h2 in H.elements:
            assert h1 * h2 in hset
    # the index-2 part spanned by x_0..x_{t-1} is elementary abelian and
    # normalized by b
    small = [h for h in H.elements if h.b_exp == 0]
    assert len(small) == 2 ** t
    for h in small:
        assert (h * h).is_identity()
        assert h.conjugate(grp.b) in set(small)


@pytest.mark.parametrize("t", (2, 3, 4))
@pytest.mark.parametrize("sign", SIGNS)
def test_corefree_witness_and_arc_condition(t, sign):
    grp = extension_group(t, sign)
    H = grp.subgroup_h()
    hset = frozenset(H.elements)
    a = grp.a
    conj_t = {h.conjugate(a ** t) for h in H.elements}
    conj_1 = {h.conjugate(a) for h in H.elements}
    assert hset & conj_t & conj_1 == {grp.identity}
    a_inv = a.inverse()
    assert any(h1 * a * h2 == a_inv for h1 in H.elements for h2 in H.elements)


# -- double cosets -------------------------------------------------------------

@pytest.mark.parametrize("t", (2, 3, 4))
@pytest.mark.parametrize("sign", SIGNS)
def test_central_element_avoids_double_coset(t, sign):
    grp = extension_group(t, sign)
    H = grp.subgroup_h()
    assert not double_coset_contains(H, grp.a, grp.z)


@pytest.mark.parametrize("sign", SIGNS)
def test_double_coset_trivial_cases(sign):
    grp = extension_group(2, sign)
    H = grp.subgroup_h()
    assert double_coset_contains(H, grp.a, grp.identity)
    assert double_coset_contains(H, grp.identity, grp.x(0))


def test_double_coset_group_mismatch():
    H = extension_group(2, PLUS).subgroup_h()
    other = extension_group(2, MINUS)
    with pytest.raises(ValueError):
        double_coset_contains(H, other.a, other.z)


# -- serialization & census ------------------------------------------------------

@pytest.mark.parametrize("sign", SIGNS)
def test_word_roundtrip_exhaustive_t2(sign):
    # multiplying out the letters of g.word() gives g back, so the words
    # are also pairwise distinct
    grp = extension_group(2, sign)
    letters = {"e": grp.identity, "z": grp.z, "a": grp.a, "b": grp.b}
    letters.update(("x%d" % i, grp.x(i)) for i in range(4))
    words = set()
    for g in grp.elements():
        value = grp.identity
        for letter in g.word().split("*"):
            name, _, exp = letter.partition("^")
            value = value * letters[name] ** int(exp or 1)
        assert value == g
        words.add(g.word())
    assert len(words) == grp.order


def test_word_format():
    grp = extension_group(2, PLUS)
    assert grp.identity.word() == "e"
    assert (grp.x(0) * grp.x(3) * grp.z * grp.a ** 3 * grp.b).word() == "x0*x3*z*a^3*b"


@pytest.mark.parametrize("t", (2, 3))
def test_census_differs_between_signs(t):
    cp = extension_group(t, PLUS).element_order_census()
    cm = extension_group(t, MINUS).element_order_census()
    assert sum(cp.values()) == sum(cm.values()) == t * 2 ** (2 * t + 3)
    assert cp != cm


def test_from_parts_and_accessors():
    grp = extension_group(3, MINUS)
    g = grp.from_parts(EVec(3, 0b101, 1), 4, 1)
    assert g.evec == EVec(3, 0b101, 1)
    assert g.a_exp == 4
    assert g.b_exp == 1
    assert g.t == 3 and g.sign == MINUS


def test_from_parts_rejects_unreduced_exponents():
    # reducing k mod 2t would lose the z of a^(2t) = z in the minus group:
    # a^6 is z and a^-1 is z*a^5 at t=3, neither of which is e*a^(k mod 6)
    grp = extension_group(3, MINUS)
    e = EVec(3, 0)
    assert grp.a ** 6 == grp.z
    assert grp.a ** -1 == grp.from_parts(EVec(3, 0, 1), 5, 0)
    for k, beta in ((6, 0), (-1, 0), (7, 1), (0, 2), (0, -1)):
        with pytest.raises(ValueError):
            grp.from_parts(e, k, beta)


@functools.lru_cache(maxsize=1 << 14)
def reference_conj(t, k, beta, v, z):
    """EVec(t, v, z) conjugated by (a^k b^beta)^-1 through the decompose and
    remultiply maps: conj_by_b if beta, then conj_by_a (2t - k) mod 2t times."""
    w = EVec(t, v, z)
    if beta:
        w = conj_by_b(w)
    for _ in range(-k % (2 * t)):
        w = conj_by_a(w)
    return w


def reference_mul(grp, p, q):
    """Product of packed codes from the reference maps and the a-exponent
    rule a^(2t) = 1 (plus) or z (minus); shares no code with mul_code."""
    two_t = grp.two_t
    (e1, k1, b1), (e2, k2, b2) = (
        (EVec(grp.t, c & grp.vmask, (c >> two_t) & 1), (c >> grp.kshift) & 63,
         c >> grp.bshift) for c in (p, q))
    e = evec_mul(e1, reference_conj(grp.t, k1, b1, e2.v, e2.z))
    wraps, k = divmod(k1 - k2 if b1 else k1 + k2, two_t)
    if grp.minus and wraps % 2:
        e = evec_mul(e, EVec(grp.t, 0, 1))
    return e.v | (e.z << two_t) | (k << grp.kshift) | ((b1 ^ b2) << grp.bshift)


def random_code(grp, rng):
    return (rng.randrange(1 << (grp.two_t + 1)) | (rng.randrange(grp.two_t) << grp.kshift)
            | (rng.randrange(2) << grp.bshift))


def test_conj_table_matches_direct_path():
    # mul_code's closed-form conjugation (reverse the halves, rotate, flip z
    # by parity) must agree with conj_by_b then repeated conj_by_a: on every
    # (k, beta, e) for t <= 4 and on seeded samples for t = 5..10
    for t in range(2, 11):
        two_t = 2 * t
        if t <= 4:
            triples = list(itertools.product(range(two_t), (0, 1), range(1 << (two_t + 1))))
        else:
            rng = random.Random(100 + t)
            triples = [(rng.randrange(two_t), rng.randrange(2),
                        rng.randrange(1 << (two_t + 1))) for _ in range(150)]
        for sign in SIGNS:
            grp = extension_group(t, sign)
            for k, beta, e in triples:
                w = reference_conj(t, k, beta, e & grp.vmask, e >> two_t)
                head = (k << grp.kshift) | (beta << grp.bshift)
                assert grp.mul_code(head, e) == w.v | (w.z << two_t) | head


@pytest.mark.parametrize("t", range(2, 11))
@pytest.mark.parametrize("sign", SIGNS)
def test_mul_code_matches_reference_product(t, sign):
    grp = extension_group(t, sign)
    if t == 2:
        codes = [g.code for g in grp.elements()]
        pairs = itertools.product(codes, repeat=2)
    else:
        rng = random.Random(200 + t)
        pairs = [(random_code(grp, rng), random_code(grp, rng)) for _ in range(300)]
    for p, q in pairs:
        assert grp.mul_code(p, q) == reference_mul(grp, p, q)


@pytest.mark.parametrize("t", range(2, 11))
@pytest.mark.parametrize("sign", SIGNS)
def test_mul_codes_matches_mul_code(t, sign):
    # the array product against the scalar one on 20,000 seeded pairs, as
    # array*array, scalar*array and array*scalar
    grp = extension_group(t, sign)
    rng = random.Random(300 + t)
    ps = [random_code(grp, rng) for _ in range(20000)]
    qs = [random_code(grp, rng) for _ in range(20000)]
    P, Q = np.array(ps), np.array(qs)
    assert grp.mul_codes(P, Q).tolist() == list(map(grp.mul_code, ps, qs))
    assert grp.mul_codes(ps[0], Q).tolist() == [grp.mul_code(ps[0], q) for q in qs]
    assert grp.mul_codes(P, qs[0]).tolist() == [grp.mul_code(p, qs[0]) for p in ps]


@pytest.mark.parametrize("sign", SIGNS)
def test_mul_codes_matches_mul_code_on_all_pairs_t2(sign):
    codes, table = scalar_table_t2(sign)
    out = extension_group(2, sign).mul_codes(codes[:, None], codes[None, :])
    assert out.shape == (256, 256)
    assert out.tolist() == table.tolist()


@pytest.mark.parametrize("t", (2, 6, 10))
@pytest.mark.parametrize("sign", SIGNS)
def test_mul_codes_outer_shape(t, sign):
    # the (1, k) x (m, 1) shape of _CodeForm.outer: row i holds qs[i] after
    # each of ps, as the coset explorer reads it
    grp = extension_group(t, sign)
    rng = random.Random(500 + t)
    ps = [random_code(grp, rng) for _ in range(4)]
    qs = [random_code(grp, rng) for _ in range(300)]
    out = grp.mul_codes(np.array(ps)[None, :], np.array(qs)[:, None])
    assert out.shape == (300, 4) and out.dtype == np.int64
    assert out.tolist() == [[grp.mul_code(p, q) for p in ps] for q in qs]


@pytest.mark.parametrize("t", range(2, 11))
@pytest.mark.parametrize("sign", SIGNS)
def test_mul_codes_on_boundary_codes(t, sign):
    # every combination of the extreme field values: k in {0, 1, 2t-1},
    # beta and z in {0, 1}, and v empty, all ones, or one half full
    grp = extension_group(t, sign)
    vs = (0, grp.tmask, grp.tmask << t, grp.vmask)
    codes = [v | z << grp.two_t | k << grp.kshift | beta << grp.bshift
             for v in vs for z in (0, 1) for k in (0, 1, grp.two_t - 1)
             for beta in (0, 1)]
    C = np.array(codes)
    assert grp.mul_codes(C[:, None], C[None, :]).tolist() == [
        [grp.mul_code(p, q) for q in codes] for p in codes]


def test_mul_codes_tables_stay_small():
    # at t=10 the product tables of one group hold 2,846,720 bytes of int64:
    # LO and WZ of 84 rows of 1024, HI of 84 rows of 2048, HK of 84 rows of
    # 128 and PAR of 1024; the group keeps no other array
    grp = extension_group(10, MINUS)
    arrays = [x for x in vars(grp).values() if isinstance(x, np.ndarray)]
    assert len(arrays) == 5
    assert sum(x.nbytes for x in arrays) <= 2_900_000


def _evec_word(g):
    """g's word spelled out through EVec, as word() did before it read the
    packed code's bits."""
    ev = g.evec
    parts = ["x%d" % i for i in ev.support()] + ["z"] * ev.z
    if g.a_exp == 1:
        parts.append("a")
    elif g.a_exp:
        parts.append("a^%d" % g.a_exp)
    return "*".join(parts + ["b"] * g.b_exp) or "e"


@pytest.mark.parametrize("t", range(2, 11))
@pytest.mark.parametrize("sign", SIGNS)
def test_word_matches_evec_spelling(t, sign):
    grp = extension_group(t, sign)
    rng = random.Random(400 + t)
    elements = [grp.identity, grp.a, grp.b, grp.z] + [
        GElt(grp, random_code(grp, rng)) for _ in range(2000)]
    for g in elements:
        assert g.word() == _evec_word(g)


@pytest.mark.parametrize("sign", SIGNS)
def test_tableless_conjugation_path_at_large_t(sign):
    # t = 9, 10, the largest members, multiply through the same closed-form
    # conjugation as every other t: the relations and seeded associativity
    # hold there
    for t in (9, 10):
        grp = extension_group(t, sign)
        two_t = 2 * t
        a, b, z = grp.a, grp.b, grp.z
        for i in range(two_t):
            assert grp.x(i).conjugate(a) == grp.x((i + 1) % two_t)
            assert grp.x(i).conjugate(b) == grp.x((t - 1 - i) % two_t)
        assert a.conjugate(b) == a.inverse()
        assert ((a * b) ** 2).is_identity()
        if sign == MINUS:
            assert a ** two_t == z and a.order() == 4 * t
        else:
            assert (a ** two_t).is_identity() and a.order() == 2 * t
        rng = random.Random(t)
        els = [grp.from_parts(EVec(t, rng.randrange(1 << two_t), rng.randrange(2)),
                              rng.randrange(two_t), rng.randrange(2))
               for _ in range(20)]
        for p in els:
            assert (p * p.inverse()).is_identity()
        for _ in range(300):
            p, q, r = rng.choice(els), rng.choice(els), rng.choice(els)
            assert (p * q) * r == p * (q * r)
