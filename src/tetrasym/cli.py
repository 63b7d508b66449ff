"""Command-line front end: generate family members, export graphs, run the
verification matrix, emit machine-readable JSON reports.

Criterion 1 checks the engine on whole Cayley tables at t=2: it counts every
non-associative triple of the 2-group part and of each extension group's
``mul_code``, one row of the table at a time.  The central-cover check
compares the z-quotient with crs(2t, t) built from its closed-form rows.

Exit codes: 0 all checks pass, 1 any check fails, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import sys
import time

import numpy as np

from tetrasym import families, graphalg
from tetrasym.cosetgraph import (edge_list_text, sphere, to_dot, to_json_obj,
                                 validate_corefree)
from tetrasym.extragrp import MAX_T, MINUS, PLUS, SIGNS, EVec, extension_group
from tetrasym.families import FamilySpec, build_family
from tetrasym.permgrp import PermGroup, Permutation, orbit_labels

SCHEMA_VERSION = 1

_CHAIN_CAP = 4000  # vertex cap of the chain checks on actions of no known order


def _millis(t0) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _peak_rss_mb() -> float:
    """The peak resident set size of this process so far, in MB (Linux
    reports ru_maxrss in KB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _check(name, source, expected, actual, t0):
    return {
        "name": name,
        "expected": expected,
        "actual": actual,
        "source": source,
        "pass": bool(expected is None or expected == actual),
        "millis": _millis(t0),
    }


def _skip(name, reason):
    return {"name": name, "skipped": True, "reason": reason}


# ---------------------------------------------------------------------------
# per-family checks (cmd_verify)
# ---------------------------------------------------------------------------

class _Skip(Exception):
    """Raised by a check that does not apply to this member; the message is
    the reason reported in the skip row."""


def _paper_or_derived(expected):
    return "paper" if expected is not None else "derived"


def _with_chain(build):
    # A chain bounded by a known order stops once it reaches it: its base
    # starts at vertex 0, which H fixes, so H's generators reach the bound
    # with no Schreier generator of the first level sifted, and the
    # stabiliser of vertex 0 is the chain's levels below the first.  The
    # coset build proved the action transitive, so that first level is all
    # the vertices, and no check here runs its BFS.  An unbounded chain
    # keeps a transversal element per point of its first basic orbit.
    if build.coset is None and build.graph.n > _CHAIN_CAP:
        raise _Skip("above stabiliser-chain cap")
    return build.action.group


def _with_coset(build):
    if build.coset is None:
        raise _Skip("not built as a coset graph")
    return build.coset


def _counts(build):
    return "paper", build.expected.vertex_count, build.graph.n


def _girth(build):
    exp = build.expected.girth
    return _paper_or_derived(exp), exp, graphalg.girth(build.graph, build.action)


def _bipartite(build):
    exp = build.expected.bipartite
    return _paper_or_derived(exp), exp, graphalg.is_bipartite(build.graph)


def _stabiliser(build):
    group = _with_chain(build)
    via_index = group.order() // build.graph.n
    via_chain = group.point_stabiliser(0).order()
    actual = via_index if via_index == via_chain else (via_index, via_chain)
    return "paper", build.expected.stabiliser_order, actual


def _group_order(build):
    exp = build.expected.group_order
    return _paper_or_derived(exp), exp, _with_chain(build).order()


def _local_group(build):
    _with_chain(build)
    lg = graphalg.local_group(build.action, 0)
    spec = build.spec
    paper = spec.family == "gamma" or (spec.family == "crs"
                                       and spec.get("r") == 2 * spec.get("s"))
    return ("paper" if paper else "derived",
            (8, True) if build.expected.locally_d4 else None,
            (lg.order(), lg.is_transitive()))


def _arc_transitive(build):
    return "paper", True, graphalg.verify_arc_transitive(build.graph, build.action)


def _sabidussi(build):
    rep = _with_coset(build).sabidussi()
    return "paper", (True, True, 4), (rep.connected, rep.symmetric, rep.valency)


def _corefree(build):
    return "paper", True, validate_corefree(_with_coset(build))


def _aut(build):
    exp = build.expected.aut_order
    if exp is None or build.graph.n > graphalg.AUT_CAP:
        raise _Skip("no expected order or above the %d-vertex cap" % graphalg.AUT_CAP)
    return "paper", exp, graphalg.automorphism_group_order(build.graph)


def _bound_equality(build):
    gv = build.expected.stabiliser_order
    return "paper", build.graph.n, 2 * gv * ((gv // 2).bit_length() - 1)


def _cover(build):
    z = build.coset.images_of(build.group.z)
    # the quotient has one vertex per <z>-orbit, each named by its least
    # point: count them before the quotient is built
    labels = orbit_labels([z], len(z))
    if np.count_nonzero(labels == np.arange(len(labels))) > graphalg.ISO_CAP:
        raise _Skip("z-quotient above the %d-vertex isomorphism cap" % graphalg.ISO_CAP)
    rep = graphalg.quotient_by_subgroup_orbits(build.graph, build.action, [z])
    t = build.spec.get("t")
    base = families.praeger_xu_direct(2 * t, t)
    iso = graphalg.isomorphic(rep.quotient, base) is not None
    return "paper", (2, True, True), (rep.fibre_size, rep.is_local_bijection, iso)


def _double_coset(build):
    # z lies in a^-1 H a H exactly when a*z lies in HaH
    return "paper", False, build.coset._in_hah(build.group.a * build.group.z)


def _blocks(build):
    if build.spec.get("t") < 4:
        raise _Skip("block facts proved for t >= 4")
    graph = build.graph
    block = set(build.coset.vertices_of(families.central_block_words(build.group)))
    inter = None
    for u in graph.neighbours(0):
        s3 = sphere(graph, u, 3)
        inter = s3 if inter is None else inter & s3
    return ("paper", (True, True),
            (graphalg.is_block(build.action, block), block == (inter | {0})))


def _spheres(build):
    t, sign = build.spec.get("t"), build.spec.get("sign")
    if t < 3 and sign != MINUS:
        raise _Skip("transversal facts hold for t >= 3 or minus sign")
    s2 = sphere(build.graph, 0, 2)
    w2 = families.second_sphere_words(build.group)
    v2 = set(build.coset.vertices_of(w2))
    got = [len(s2), len(w2), v2 == s2]
    expect = [12, 12, True]
    if (t, sign) in ((3, MINUS), (4, PLUS), (4, MINUS), (5, PLUS), (5, MINUS)):
        w3 = families.third_sphere_words(build.group)
        v3 = set(build.coset.vertices_of(w3))
        got += [len(w3), len(v3)]
        expect += [36, 36]
    return "paper", tuple(expect), tuple(got)


def _primitive(build):
    # the build's x_1..x_{2m-1}, h and a, which generate Sym(4m)
    natural = PermGroup(build.coset.iface.generators + (build.coset.a_elt,))
    return "paper", True, natural.is_primitive()


def _word_identities(build):
    m = build.spec.get("m")
    *xs, h = build.coset.iface.generators
    g = build.coset.a_elt * h
    ok = all(xs[i - 1].conjugate(h) == xs[2 * m - i - 1] for i in range(1, 2 * m))
    ok &= all(xs[i - 1].conjugate(g) == xs[i] for i in range(1, 2 * m - 1))
    ok &= xs[2 * m - 2].conjugate(g) == Permutation.from_cycles(4 * m, [(0, 4 * m - 2)])
    return "paper", True, ok


# name -> (the one family the check applies to, or None for all; check).
# A check returns (source, expected, actual) or raises _Skip; reports list
# the rows in this order.
_CHECKS = {
    "counts": (None, _counts),
    "girth": (None, _girth),
    "bipartite": (None, _bipartite),
    "stabiliser": (None, _stabiliser),
    "group-order": (None, _group_order),
    "local-group": (None, _local_group),
    "arc-transitive": (None, _arc_transitive),
    "sabidussi": (None, _sabidussi),
    "corefree": (None, _corefree),
    "aut": (None, _aut),
    "bound-equality": ("gamma", _bound_equality),
    "cover": ("gamma", _cover),
    "double-coset": ("gamma", _double_coset),
    "blocks": ("gamma", _blocks),
    "spheres": ("gamma", _spheres),
    "primitive": ("delta", _primitive),
    "word-identities": ("delta", _word_identities),
}

CHECK_NAMES = tuple(_CHECKS)


def _check_names(names):
    """The requested check names as a list, or None for all (names empty);
    raises ValueError on an unknown name."""
    unknown = list(dict.fromkeys(n for n in names or () if n not in _CHECKS))
    if unknown:
        raise ValueError("unknown checks %s (choose from %s)"
                         % (", ".join(map(repr, unknown)), ", ".join(CHECK_NAMES)))
    return list(names) if names else None


def family_checks(build: families.FamilyBuild, names=None) -> list:
    """Run the requested named checks (all when names is empty) against one
    family member.  A check that does not apply gives a skip row; an
    unknown name raises ValueError."""
    fam = build.spec.family
    wanted = _check_names(names)
    rows = []
    for name, (only, check) in _CHECKS.items():
        if (wanted is not None and name not in wanted) or only not in (None, fam):
            continue
        t0 = time.perf_counter()
        try:
            rows.append(_check(name, *check(build), t0))
        except _Skip as skip:
            rows.append(_skip(name, str(skip)))

    if wanted is not None:
        for name in wanted:
            if not any(r["name"] == name for r in rows):
                rows.append(_skip(name, "not applicable to family %s" % fam))
    return rows


def verification_report(spec: FamilySpec, checks=None, allow_large=False) -> dict:
    """The report of the named checks (all when None) on one member, with
    the time its build took and the process's peak RSS at the end."""
    _check_names(checks)  # before the build
    t0 = time.perf_counter()
    build = build_family(spec, allow_large=allow_large)
    build_millis = _millis(t0)
    rows = family_checks(build, checks)
    live = [r for r in rows if not r.get("skipped")]
    return {
        "schema": SCHEMA_VERSION,
        "spec": {"family": spec.family, "params": dict(spec.params)},
        "build_millis": build_millis,
        "checks": rows,
        "overall": all(r["pass"] for r in live),
        "peak_rss_mb": _peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# engine-level checks (criteria 1 and 14)
# ---------------------------------------------------------------------------

def relation_suite(t: int, sign: str) -> bool:
    """Every defining relation of the extension group, via the engine."""
    grp = extension_group(t, sign)
    two_t = 2 * t
    xs = [grp.x(i) for i in range(two_t)]
    z, a, b = grp.z, grp.a, grp.b

    def comm(p, q):
        return p.inverse() * q.inverse() * p * q

    ok = all((x * x).is_identity() for x in xs)
    ok &= (z * z).is_identity()
    ok &= all(comm(x, z).is_identity() for x in xs)
    for i in range(two_t):
        for j in range(two_t):
            c = comm(xs[i], xs[j])
            ok &= (c == z) if abs(i - j) == t else c.is_identity()
    ok &= all(xs[i].conjugate(a) == xs[(i + 1) % two_t] for i in range(two_t))
    ok &= all(xs[i].conjugate(b) == xs[(t - 1 - i) % two_t] for i in range(two_t))
    ok &= (b * b).is_identity()
    ok &= ((a * b) ** 2).is_identity()
    ok &= a.conjugate(b) == a.inverse()
    a_2t = a ** two_t
    ok &= (a_2t == z) if sign == MINUS else a_2t.is_identity()
    ok &= a.order() == (4 * t if sign == MINUS else 2 * t)
    return ok


def _cayley_table(elements, mul) -> np.ndarray:
    """table[i, j] = the index in elements of mul(elements[i], elements[j])."""
    index = {e: i for i, e in enumerate(elements)}
    return np.array([[index[mul(x, y)] for y in elements] for x in elements])


def _failing_triples(table: np.ndarray) -> int:
    """The number of triples (i, j, k) with (i j) k != i (j k) in the Cayley
    table, one row i at a time: for row = table[i], table[row] is (i j) k
    and row[table] is i (j k)."""
    return sum(int((table[row] != row[table]).sum()) for row in table)


def gelt_exhaustive_failures(t: int, sign: str) -> int:
    """The non-associative triples of ``mul_code``, over every triple of
    the extension group's Cayley table."""
    grp = extension_group(t, sign)
    codes = [g.code for g in grp.elements()]
    return _failing_triples(_cayley_table(codes, grp.mul_code))


def mul_codes_mismatches(t: int, sign: str) -> int:
    """The products on which the array kernel ``mul_codes`` and the scalar
    ``mul_code`` disagree, over 64 x 64 seeded pairs: each of 64 random
    codes times each of 64 more, as one array product in the (1, 64) x
    (64, 1) shape of the coset explorer's."""
    grp = extension_group(t, sign)
    rng = random.Random(12345 + t)

    def codes():
        return [rng.randrange(1 << (grp.two_t + 1)) | rng.randrange(grp.two_t) << grp.kshift
                | rng.randrange(2) << grp.bshift for _ in range(64)]
    ps, qs = codes(), codes()
    table = grp.mul_codes(np.array(ps)[None, :], np.array(qs)[:, None]).tolist()
    return sum(out != grp.mul_code(p, q)
               for q, row in zip(qs, table) for p, out in zip(ps, row))


def evec_exhaustive_failures(t: int) -> int:
    vecs = [EVec(t, v, zz) for v in range(1 << (2 * t)) for zz in (0, 1)]
    return _failing_triples(_cayley_table(vecs, EVec.__mul__))


# ---------------------------------------------------------------------------
# the acceptance matrix (cmd_matrix)
# ---------------------------------------------------------------------------

def _engine_rows():
    t0 = time.perf_counter()
    yield _check("evec-assoc-exhaustive-t2", "derived", 0,
                 evec_exhaustive_failures(2), t0)
    for sign in SIGNS:
        # every triple is counted; the row keeps the name that
        # bench/matrix_golden.json pins until the benchmark's next change
        t0 = time.perf_counter()
        yield _check("gelt-assoc-sampled-t2-%s" % sign, "derived", 0,
                     gelt_exhaustive_failures(2, sign), t0)
    for t in range(2, 11):
        for sign in SIGNS:
            t0 = time.perf_counter()
            yield _check("relations-t%d-%s" % (t, sign), "paper", True,
                         relation_suite(t, sign), t0)
            t0 = time.perf_counter()
            yield _check("mul-codes-t%d-%s" % (t, sign), "derived", 0,
                         mul_codes_mismatches(t, sign), t0)
            if t > 4:
                continue
            t0 = time.perf_counter()
            count = sum(1 for _ in extension_group(t, sign).elements())
            yield _check("enumeration-t%d-%s" % (t, sign), "paper",
                         t * 2 ** (2 * t + 3), count, t0)


def _member_rows(builds, check, specs):
    for spec in specs:
        for row in family_checks(builds[spec], [check]):
            row["family"] = spec
            yield row


def _iso_rows(builds, max_t):
    def graph(spec):
        return builds[spec].graph

    t0 = time.perf_counter()
    iso = graphalg.isomorphic(graph("gamma:sign=plus,t=2"), graph("crs:r=4,s=3"))
    yield _check("gamma2plus-iso-crs(4,3)", "paper", True, iso is not None, t0)
    for t in range(2, max_t + 1):
        name = "gamma%d-plus-vs-minus" % t
        plus, minus = graph("gamma:sign=plus,t=%d" % t), graph("gamma:sign=minus,t=%d" % t)
        if plus.n > graphalg.ISO_CAP:
            yield _skip(name, "above the %d-vertex isomorphism cap" % graphalg.ISO_CAP)
            continue
        t0 = time.perf_counter()
        iso = graphalg.isomorphic(plus, minus)
        yield _check(name, "paper", False, iso is not None, t0)
    for r in range(4, 9):
        for s in range(2, r - 1):
            t0 = time.perf_counter()
            iso = graphalg.isomorphic(families.praeger_xu_direct(r, s),
                                      graph("crs:r=%d,s=%d" % (r, s)))
            yield _check("crs(%d,%d)-direct-vs-coset" % (r, s), "paper", True,
                         iso is not None, t0)


def _delta_rows(builds):
    b = builds["delta:m=2"]
    t0 = time.perf_counter()
    yield _check("connected-tetravalent", "paper", (2520, True),
                 (b.graph.n, b.graph.is_regular(4)), t0)
    for row in family_checks(b, ["bipartite", "arc-transitive", "group-order",
                                 "stabiliser", "primitive", "word-identities",
                                 "sabidussi", "corefree"]):
        row["family"] = "delta:m=2"
        yield row


def _census_rows():
    for t in (2, 3):
        t0 = time.perf_counter()
        cp = extension_group(t, PLUS).element_order_census()
        cm = extension_group(t, MINUS).element_order_census()
        yield _check("census-differs-t%d" % t, "derived", True, cp != cm, t0)


def matrix_report(families_filter=None, max_t: int = 6) -> dict:
    """The acceptance matrix: each criterion's rows over the family members
    that families_filter (all when None) and max_t select, with each
    member's build time and the process's peak RSS at the end.  Refuses
    a max_t outside 2..MAX_T and an empty or unknown family filter before
    it builds anything."""
    if not 2 <= max_t <= MAX_T:
        raise ValueError("--max-t must be between 2 and %d" % MAX_T)
    if families_filter is not None:
        if not families_filter:
            raise ValueError("no families chosen (choose from %s)"
                             % ", ".join(families.FAMILIES))
        unknown = sorted(set(families_filter) - set(families.FAMILIES))
        if unknown:
            raise ValueError("unknown families %s (choose from %s)"
                             % (", ".join(map(repr, unknown)),
                                ", ".join(families.FAMILIES)))

    def on(name):
        return families_filter is None or name in families_filter

    def crs(rs):
        return ["crs:r=%d,s=%d" % (r, s) for r in rs
                for s in range(1, r)] if on("crs") else []

    def gamma(ts):
        return ["gamma:sign=%s,t=%d" % (sign, t) for t in ts if t <= max_t
                for sign in SIGNS] if on("gamma") else []

    delta = ["delta:m=2"] if on("delta") else []
    wreath = ["wreath:r=4"] if on("wreath") else []
    gamma_all = gamma(range(2, max_t + 1))
    specs = crs(range(3, 9)) + gamma_all + delta + wreath
    builds, build_millis = {}, {}
    for spec in specs:
        t0 = time.perf_counter()
        builds[spec] = build_family(FamilySpec.parse(spec))
        build_millis[spec] = _millis(t0)
    gamma_to_5 = gamma(range(2, 6))
    locally_d4 = [s for t in (2, 3, 4) if t <= max_t for s in gamma([t])
                  + (["crs:r=%d,s=%d" % (2 * t, t)] if on("crs") else [])]

    # (id, name, whether it runs, its rows).  The rows are generators, so a
    # criterion's work starts after its progress line.
    table = (
        (1, "extraspecial engine soundness", families_filter is None, _engine_rows()),
        (2, "vertex counts", bool(specs), _member_rows(builds, "counts", specs)),
        (3, "stabiliser orders", on("gamma") or on("delta"),
         _member_rows(builds, "stabiliser", gamma_to_5 + delta)),
        (4, "bound equality", on("gamma"),
         _member_rows(builds, "bound-equality", gamma_all)),
        # crs(3, s) contains triangles, so its girth is not asserted.
        (5, "girth schedule", on("crs") or on("gamma"),
         _member_rows(builds, "girth", crs(range(4, 9)) + gamma_all)),
        (6, "sphere transversals", on("gamma"),
         _member_rows(builds, "spheres", [s for s in gamma_to_5
                                          if s != "gamma:sign=%s,t=2" % PLUS])),
        (7, "double coset exclusion", on("gamma"),
         _member_rows(builds, "double-coset", gamma_all)),
        (8, "central covers", on("gamma"), _member_rows(builds, "cover", gamma_to_5)),
        (9, "locally dihedral vertex actions", on("gamma"),
         _member_rows(builds, "local-group", locally_d4)),
        (10, "blocks of imprimitivity", on("gamma"),
         _member_rows(builds, "blocks", gamma((4, 5)))),
        (11, "automorphism group orders", on("gamma") or on("wreath"),
         _member_rows(builds, "aut", wreath + gamma_all)),
        (12, "isomorphism facts", on("gamma") and on("crs"), _iso_rows(builds, max_t)),
        (13, "symmetric-group family suite", on("delta"), _delta_rows(builds)),
        (14, "group non-isomorphism witness", families_filter is None, _census_rows()),
    )

    criteria = []
    for cid, name, runs, rows in table:
        if not runs:
            continue
        print("criterion %2d  %s" % (cid, name), file=sys.stderr, flush=True)
        rows = list(rows)
        criteria.append({"id": cid, "name": name, "checks": rows,
                         "pass": all(r["pass"] for r in rows if not r.get("skipped"))})
    return {
        "schema": SCHEMA_VERSION,
        "build_millis": build_millis,
        "criteria": criteria,
        "overall": all(c["pass"] for c in criteria),
        "peak_rss_mb": _peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _output(out_path):
    """Yield the function that writes a command's text: to stdout, or to
    ``out_path``.  The file is opened before the command's work, so an
    unwritable path fails at once, and in append mode, so it is emptied only
    when the text is written: a run that fails leaves an earlier report
    whole, and removes the file if it made it."""
    if not out_path:
        yield sys.stdout.write
        return
    existed = os.path.exists(out_path)
    with open(out_path, "a") as fh:
        def write(text: str):
            fh.truncate(0)
            fh.write(text)
        try:
            yield write
        except BaseException:
            if not existed:
                os.unlink(out_path)
            raise


def cmd_generate(args) -> int:
    spec = FamilySpec.parse(args.spec)
    with _output(args.out) as write:
        build = build_family(spec, allow_large=args.allow_large)
        if args.format == "edges":
            text = edge_list_text(build.graph)
        elif args.format == "dot":
            text = to_dot(build.graph)
        else:
            text = json.dumps(to_json_obj(build.graph), sort_keys=True) + "\n"
        write(text)
    return 0


def cmd_verify(args) -> int:
    spec = FamilySpec.parse(args.spec)
    checks = args.checks.split(",") if args.checks is not None else None
    with _output(args.out) as write:
        report = verification_report(spec, checks, allow_large=args.allow_large)
        write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["overall"] else 1


def cmd_matrix(args) -> int:
    fams = args.families.split(",") if args.families is not None else None
    with _output(args.out) as write:
        report = matrix_report(families_filter=fams, max_t=args.max_t)
        for crit in report["criteria"]:
            print("criterion %2d  %-38s %s" % (crit["id"], crit["name"],
                                               "PASS" if crit["pass"] else "FAIL"),
                  file=sys.stderr)
        write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["overall"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tetrasym",
        description="Build and verify four families of tetravalent "
                    "arc-transitive graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    spec_help = ("family spec, e.g. 'wreath:r=5', 'crs:r=6,s=3', "
                 "'gamma:t=4,sign=minus', 'delta:m=2'")
    large_help = ("build a member above the size guard of 100000 vertices, "
                  "such as delta:m=3")

    p = sub.add_parser("generate", help="export one family member as a graph file")
    p.add_argument("spec", help=spec_help)
    p.add_argument("--format", choices=("edges", "dot", "json"), default="edges")
    p.add_argument("--out", default=None)
    p.add_argument("--allow-large", action="store_true", help=large_help)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="run checks for one family member")
    p.add_argument("spec", help=spec_help)
    p.add_argument("--checks", default=None,
                   help="comma list from: %s" % ",".join(CHECK_NAMES))
    p.add_argument("--out", default=None)
    p.add_argument("--allow-large", action="store_true", help=large_help)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("matrix", help="run the full verification matrix")
    p.add_argument("--out", default=None)
    p.add_argument("--families", default=None,
                   help="comma list restricting to these families")
    p.add_argument("--max-t", type=int, default=6,
                   help="largest parameter for the extension-group family "
                        "(2 to %d)" % MAX_T)
    p.set_defaults(fn=cmd_matrix)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError (a member too large for the memory there is) may
        # come with no message
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
