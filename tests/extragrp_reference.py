"""Reference implementations over the extension groups that the tests
compare the library with and that no part of the program calls: the
conjugation automorphisms of the 2-group part, letter by letter, the
subgroup H by its closed form, the words of the base vertex's neighbours,
and the double-coset test by enumeration."""

from tetrasym.extragrp import EVec, ExtensionGroup, GElt, evec_mul


def _remap(u: EVec, index_map) -> EVec:
    """Apply the automorphism sending x_i to x_{index_map(i)} (and fixing z)
    by decomposing u into its sorted generator word, mapping each letter and
    remultiplying, so all reordering z-contributions come from evec_mul."""
    acc = EVec(u.t, 0, u.z)
    for i in range(2 * u.t):
        if u.v >> i & 1:
            acc = evec_mul(acc, EVec(u.t, 1 << index_map(i), 0))
    return acc


def conj_by_a(u: EVec) -> EVec:
    """Image of u under x_i -> x_{i+1 mod 2t}."""
    two_t = 2 * u.t
    return _remap(u, lambda i: (i + 1) % two_t)


def conj_by_b(u: EVec) -> EVec:
    """Image of u under x_i -> x_{t-1-i mod 2t}."""
    t, two_t = u.t, 2 * u.t
    return _remap(u, lambda i: (t - 1 - i) % two_t)


def subgroup_h(grp: ExtensionGroup) -> tuple:
    """H = <x_0, ..., x_{t-1}, b>, of order 2^(t+1), as the sorted tuple of
    its elements: x_0..x_{t-1} commute, and b permutes them."""
    codes = sorted((v | (beta << grp.bshift))
                   for v in range(1 << grp.t) for beta in (0, 1))
    return tuple(GElt(grp, c) for c in codes)


def first_sphere_words(grp: ExtensionGroup) -> list:
    """The four coset representatives of the base vertex's neighbours."""
    t, a = grp.t, grp.a
    ai = a.inverse()
    return [a, grp.x(2 * t - 1) * a, ai, grp.x(t) * ai]


def double_coset_contains(H: tuple, mid: GElt, probe: GElt) -> bool:
    """True iff probe lies in the double coset {h1^mid * h2 : h1, h2 in H},
    H a tuple of elements, with h^mid = mid^(-1) * h * mid.  Enumerates all
    |H|^2 products."""
    grp = H[0].group
    if mid.group is not grp or probe.group is not grp:
        raise ValueError("parameter mismatch")
    mid_inv = grp.inv_code(mid.code)
    conj = [grp.mul_code(grp.mul_code(mid_inv, h.code), mid.code) for h in H]
    target = probe.code
    h_codes = [h.code for h in H]
    for c in conj:
        for h2 in h_codes:
            if grp.mul_code(c, h2) == target:
                return True
    return False
