"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
lines, or drive the same checks through ``tetrasym matrix``.

Criterion 5 asserts the computed girth 6 for the 32-vertex minus-type
member, where the paper's table (and the library's expected-property table,
hence the failing ``tetrasym matrix`` row) gives 8.  The test backs the 6 with
a bounded cycle search that shares no code with ``graphalg.girth``, checks
that the published 8 is still in the expected-property table, and checks the
Moore bound that rules it out: a 4-regular graph of girth at least 7 needs
1 + 4 + 12 + 36 = 53 vertices.  See README.md for the analysis.
"""

import time

from tetrasym import families, graphalg
from tetrasym.cli import (evec_exhaustive_failures, family_checks,
                          gelt_exhaustive_failures, mul_codes_mismatches,
                          relation_suite)
from tetrasym.cosetgraph import SabidussiReport, sphere, validate_corefree
from tetrasym.extragrp import MINUS, PLUS, SIGNS, extension_group
from tetrasym.permgrp import PermGroup

from extragrp_reference import double_coset_contains, subgroup_h


def announce(cid, name, failures):
    status = "PASS" if not failures else "FAIL"
    print("criterion %02d %s  %s" % (cid, status, name))
    assert not failures, "criterion %d (%s): %s" % (cid, name, "; ".join(failures))


def test_criterion_01_extraspecial_engine_soundness():
    failures = []
    bad = evec_exhaustive_failures(2)
    if bad:
        failures.append("%d associativity failures in the 2-group part" % bad)
    for sign in SIGNS:
        bad = gelt_exhaustive_failures(2, sign)
        if bad:
            failures.append("%d associativity failures (%s)" % (bad, sign))
    for t in range(2, 11):
        for sign in SIGNS:
            if not relation_suite(t, sign):
                failures.append("relation suite failed at t=%d %s" % (t, sign))
            bad = mul_codes_mismatches(t, sign)
            if bad:
                failures.append("%d array products differ at t=%d %s" % (bad, t, sign))
            if t > 4:
                continue
            els = list(extension_group(t, sign).elements())
            want = t * 2 ** (2 * t + 3)
            if len(els) != want or len(set(els)) != want:
                failures.append("enumeration size at t=%d %s" % (t, sign))
    announce(1, "extraspecial engine soundness", failures)


def test_criterion_02_vertex_counts(fam):
    failures = []
    for r in range(3, 9):
        for s in range(1, r):
            n = fam.crs(r, s).graph.n
            if n != r * 2 ** s:
                failures.append("crs(%d,%d): %d != %d" % (r, s, n, r * 2 ** s))
    for t in range(2, 7):
        for sign in SIGNS:
            n = fam.gamma(t, sign).graph.n
            if n != t * 2 ** (t + 2):
                failures.append("gamma(%d,%s): %d" % (t, sign, n))
    if fam.delta().graph.n != 2520:
        failures.append("delta(2): %d != 2520" % fam.delta().graph.n)
    announce(2, "vertex counts", failures)


def test_criterion_03_stabiliser_orders(fam):
    failures = []
    for t in range(2, 6):
        for sign in SIGNS:
            fb = fam.gamma(t, sign)
            grp = PermGroup(fb.action.images)
            via_index = grp.order() // fb.graph.n
            via_chain = grp.point_stabiliser(0).order()
            if not via_index == via_chain == 2 ** (t + 1):
                failures.append("gamma(%d,%s): %d/%d" % (t, sign, via_index, via_chain))
    fb = fam.delta()
    grp = PermGroup(fb.action.images)
    if not grp.order() // fb.graph.n == grp.point_stabiliser(0).order() == 16:
        failures.append("delta(2) stabiliser != 16")
    announce(3, "stabiliser orders", failures)


def test_criterion_04_bound_equality(fam):
    failures = []
    for t in range(2, 7):
        for sign in SIGNS:
            fb = fam.gamma(t, sign)
            gv = fb.expected.group_order // fb.graph.n
            log2 = (gv // 2).bit_length() - 1
            if fb.graph.n != 2 * gv * log2:
                failures.append("gamma(%d,%s): %d != 2*%d*%d"
                                % (t, sign, fb.graph.n, gv, log2))
    announce(4, "bound equality", failures)


def cycle_search_girth(g, max_len):
    """Oracle: the shortest simple cycle of length at most max_len, by
    depth-limited DFS from each minimal start (None if there is none)."""
    best = None
    for start in range(g.n):
        stack = [(start, [start])]
        while stack:
            u, path = stack.pop()
            for w in g.adj[u]:
                if w == start and len(path) >= 3:
                    if best is None or len(path) < best:
                        best = len(path)
                elif w > start and w not in path and len(path) < max_len:
                    stack.append((w, path + [w]))
    return best


def test_criterion_05_girth_schedule(fam):
    # (2, MINUS) is 6, not the published 8: see the erratum checks below.
    schedule = {(2, PLUS): 4, (3, PLUS): 6, (2, MINUS): 6, (3, MINUS): 8}
    for t in (4, 5, 6):
        for sign in SIGNS:
            schedule[(t, sign)] = 8
    failures = []
    for (t, sign), expected in sorted(schedule.items()):
        actual = graphalg.girth(fam.gamma(t, sign).graph)
        if actual != expected:
            failures.append("gamma(%d,%s): girth %d != %d"
                            % (t, sign, actual, expected))
    for r in range(4, 9):
        for s in range(1, r):
            actual = graphalg.girth(fam.crs(r, s).graph)
            if actual != 4:
                failures.append("crs(%d,%d): girth %d != 4" % (r, s, actual))
    fb = fam.gamma(2, MINUS)
    g = fb.graph
    d = len(g.adj[0])
    moore_girth_7 = 1 + d + d * (d - 1) + d * (d - 1) ** 2
    if fb.expected.girth != 8:
        failures.append("gamma(2,minus): published girth 8 not kept (%d)"
                        % fb.expected.girth)
    if not (all(len(nbrs) == d for nbrs in g.adj) and g.n < moore_girth_7):
        failures.append("gamma(2,minus): %d vertices do not exclude girth 8"
                        % g.n)
    oracle = cycle_search_girth(g, 8)
    if oracle != 6:
        failures.append("gamma(2,minus): cycle search girth %s != 6" % oracle)
    announce(5, "girth schedule", failures)


def test_criterion_06_sphere_transversals(fam):
    failures = []
    two_sphere_targets = [(2, MINUS)] + [(t, sign) for t in (3, 4, 5)
                                         for sign in SIGNS]
    for t, sign in two_sphere_targets:
        fb = fam.gamma(t, sign)
        words = families.second_sphere_words(fb.group)
        cosets = {fb.coset.vertices_of([w])[0] for w in words}
        s2 = sphere(fb.graph, 0, 2)
        if not (len(words) == 12 and len(cosets) == 12 and cosets == s2):
            failures.append("gamma(%d,%s) second sphere" % (t, sign))
    for t, sign in [(3, MINUS), (4, PLUS), (4, MINUS), (5, PLUS), (5, MINUS)]:
        fb = fam.gamma(t, sign)
        words = families.third_sphere_words(fb.group)
        cosets = {fb.coset.vertices_of([w])[0] for w in words}
        if not (len(words) == 36 and len(cosets) == 36):
            failures.append("gamma(%d,%s): %d words, %d cosets"
                            % (t, sign, len(words), len(cosets)))
    announce(6, "sphere transversals", failures)


def test_criterion_07_double_coset(fam):
    # oracle: all |H|^2 products of a^-1 H a H, against the matrix's
    # double-coset row on every gamma member of the default matrix, and
    # next to the graph's reading (z lies in a^-1 H a H exactly when the
    # coset H*a*z is adjacent to H)
    failures = []
    for t in (2, 3, 4, 5, 6):
        for sign in SIGNS:
            grp = extension_group(t, sign)
            contains = double_coset_contains(subgroup_h(grp), grp.a, grp.z)
            if contains:
                failures.append("z in H^aH at t=%d %s" % (t, sign))
            fb = fam.gamma(t, sign)
            [row] = family_checks(fb, ["double-coset"])
            if row["actual"] != contains:
                failures.append("double-coset row %r at t=%d %s"
                                % (row["actual"], t, sign))
            if fb.coset.vertices_of([grp.a * grp.z])[0] in fb.graph.adj[0]:
                failures.append("H*a*z adjacent to H at t=%d %s" % (t, sign))
    announce(7, "double coset exclusion", failures)


def test_criterion_08_central_covers(fam):
    failures = []
    for t in (2, 3, 4, 5):
        for sign in SIGNS:
            fb = fam.gamma(t, sign)
            z = fb.coset.images_of(fb.group.z)
            rep = graphalg.quotient_by_subgroup_orbits(
                fb.graph, fb.action, [z])
            base = fam.crs(2 * t, t).graph
            witness = graphalg.isomorphic(rep.quotient, base)
            ok = (rep.fibre_size == 2 and rep.is_local_bijection
                  and witness is not None)
            if ok:
                for u in range(base.n):
                    if {witness(w) for w in rep.quotient.adj[u]} != set(
                            base.adj[witness(u)]):
                        ok = False
                        break
            if not ok:
                failures.append("gamma(%d,%s) cover" % (t, sign))
    announce(8, "central covers", failures)


def test_criterion_09_locally_d4(fam):
    failures = []
    for t in (2, 3, 4):
        for sign in SIGNS:
            lg = graphalg.local_group(fam.gamma(t, sign).action, 0)
            if not (lg.order() == 8 and lg.is_transitive()):
                failures.append("gamma(%d,%s) local group" % (t, sign))
        lg = graphalg.local_group(fam.crs(2 * t, t).action, 0)
        if not (lg.order() == 8 and lg.is_transitive()):
            failures.append("crs(%d,%d) local group" % (2 * t, t))
    announce(9, "locally dihedral vertex stabilisers", failures)


def test_criterion_10_blocks(fam):
    failures = []
    for t in (4, 5):
        for sign in SIGNS:
            fb = fam.gamma(t, sign)
            block = {fb.coset.vertices_of([w])[0]
                     for w in families.central_block_words(fb.group)}
            if len(block) != 4 or not graphalg.is_block(fb.action, block):
                failures.append("gamma(%d,%s) block" % (t, sign))
                continue
            inter = None
            for u in fb.graph.adj[0]:
                s3 = sphere(fb.graph, u, 3)
                inter = s3 if inter is None else inter & s3
            if block != (inter | {0}):
                failures.append("gamma(%d,%s) block characterisation" % (t, sign))
    announce(10, "blocks of imprimitivity", failures)


def test_criterion_11_automorphism_orders(fam):
    t0 = time.time()
    failures = []
    expected = {
        ("wreath", 4): 1152,
        ("gamma", 2, PLUS): 256,
        ("gamma", 2, MINUS): 2304,
        ("gamma", 3, PLUS): 1536,
        ("gamma", 3, MINUS): 1536,
        ("gamma", 4, PLUS): 8192,
        ("gamma", 4, MINUS): 8192,
        ("gamma", 5, PLUS): 40960,
        ("gamma", 5, MINUS): 40960,
        ("gamma", 6, PLUS): 196608,
        ("gamma", 6, MINUS): 196608,
        ("gamma", 7, PLUS): 917504,
        ("gamma", 7, MINUS): 917504,
    }
    for key, want in expected.items():
        graph = (fam.wreath(4) if key[0] == "wreath"
                 else fam.gamma(key[1], key[2])).graph
        got = graphalg.automorphism_group_order(graph)
        if got != want:
            failures.append("%s: %d != %d" % (key, got, want))
    elapsed = time.time() - t0
    if elapsed > 60:
        failures.append("runtime %.1fs exceeds 60s budget" % elapsed)
    announce(11, "automorphism group orders", failures)


def test_criterion_12_isomorphism_facts(fam):
    failures = []
    if graphalg.isomorphic(fam.gamma(2, PLUS).graph, fam.crs(4, 3).graph) is None:
        failures.append("gamma(2,plus) not matched to crs(4,3)")
    for t in range(2, 8):
        if graphalg.isomorphic(fam.gamma(t, PLUS).graph,
                               fam.gamma(t, MINUS).graph) is not None:
            failures.append("gamma(%d) signs wrongly isomorphic" % t)
    for r in range(4, 9):
        for s in range(2, r - 1):
            direct = families.praeger_xu_direct(r, s)
            if graphalg.isomorphic(direct, fam.crs(r, s).graph) is None:
                failures.append("crs(%d,%d) direct/coset" % (r, s))
    announce(12, "isomorphism facts", failures)


def test_criterion_13_symmetric_group_suite(fam):
    t0 = time.time()
    failures = []
    fb = fam.delta()
    if fb.graph.n != 2520 or not fb.graph.is_regular(4):
        failures.append("vertex count or valency")
    if len(sphere(fb.graph, 0, 0) | {v for d in range(1, 12)
                                     for v in sphere(fb.graph, 0, d)}) != 2520:
        failures.append("not connected")
    if graphalg.is_bipartite(fb.graph):
        failures.append("unexpectedly bipartite")
    if not graphalg.verify_arc_transitive(fb.graph, fb.action):
        failures.append("not arc-transitive")
    grp = PermGroup(fb.action.images)
    if grp.order() != 40320:
        failures.append("action group order %d" % grp.order())
    perms = families.delta_permutations(2)
    natural = PermGroup(perms["xs"] + [perms["h"], perms["a"]])
    if not natural.is_primitive():
        failures.append("natural degree-8 action not primitive")
    xs, h, a, g = perms["xs"], perms["h"], perms["a"], perms["g"]
    if g != a * h:
        failures.append("g != a*h")
    if not all(xs[i - 1].conjugate(h) == xs[3 - i] for i in (1, 2, 3)):
        failures.append("conjugation by h")  # x_i^h = x_{4-i} at m=2
    if not (xs[0].conjugate(g) == xs[1] and xs[1].conjugate(g) == xs[2]):
        failures.append("conjugation by g")
    rep = fb.coset.sabidussi()
    if not (rep == SabidussiReport(True, True, 4) and validate_corefree(fb.coset)):
        failures.append("coset-graph hypotheses")
    elapsed = time.time() - t0
    if elapsed > 30:
        failures.append("runtime %.1fs exceeds 30s budget" % elapsed)
    announce(13, "symmetric-group family suite", failures)


def test_criterion_14_group_nonisomorphism_witness():
    failures = []
    for t in (2, 3):
        cp = extension_group(t, PLUS).element_order_census()
        cm = extension_group(t, MINUS).element_order_census()
        if sum(cp.values()) != t * 2 ** (2 * t + 3):
            failures.append("census total at t=%d" % t)
        if cp == cm:
            failures.append("censuses agree at t=%d" % t)
    announce(14, "group non-isomorphism witness", failures)
