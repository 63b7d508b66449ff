import json
from pathlib import Path

import pytest

from tetrasym import cli, cosetgraph, extragrp, families, graphalg, permgrp
from tetrasym.cli import family_checks, main
from tetrasym.cosetgraph import edge_list_text
from tetrasym.families import FamilySpec, build_family

# Each file pins one CLI run: its arguments, exit code and JSON report with
# every timing and memory field removed.  Reports may change only in those.
DATA = Path(__file__).parent / "data"
# the per-check "millis", and the per-spec "build_millis" and process-wide
# "peak_rss_mb" of the verify and matrix reports
IGNORED = frozenset({"millis", "build_millis", "peak_rss_mb"})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_millis(obj):
    if isinstance(obj, dict):
        return {k: without_millis(v) for k, v in obj.items() if k not in IGNORED}
    if isinstance(obj, list):
        return [without_millis(v) for v in obj]
    return obj


def run_golden(capsys, name):
    """Run the CLI with the arguments stored in data/NAME.json and check the
    exit code and the whole report against the stored ones."""
    golden = json.loads((DATA / (name + ".json")).read_text())
    code, out, err = run(capsys, *golden["argv"])
    report = json.loads(out)
    assert code == golden["exit"]
    assert without_millis(report) == golden["report"]
    return code, report, err


# -- generate -------------------------------------------------------------------

def test_generate_edge_list_counts(capsys):
    code, out, _ = run(capsys, "generate", "gamma:t=2,sign=plus")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 64  # 32 vertices, 4-regular
    assert all(int(a) < int(b) for a, b in (ln.split() for ln in lines))
    assert lines == sorted(lines, key=lambda ln: tuple(map(int, ln.split())))


def test_generate_wreath_r3(capsys):
    code, out, _ = run(capsys, "generate", "wreath:r=3")
    assert code == 0
    assert len(out.strip().splitlines()) == 12


def test_generate_is_deterministic(capsys):
    _, out1, _ = run(capsys, "generate", "crs:r=6,s=2", "--format", "json")
    _, out2, _ = run(capsys, "generate", "crs:r=6,s=2", "--format", "json")
    assert out1 == out2


def test_generate_dot(capsys):
    code, out, _ = run(capsys, "generate", "wreath:r=3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph g {")
    assert out.rstrip().endswith("}")


def test_generate_json_schema(capsys):
    code, out, _ = run(capsys, "generate", "crs:r=4,s=2", "--format", "json")
    obj = json.loads(out)
    assert obj["n"] == 16
    assert len(obj["edges"]) == 32
    assert len(obj["labels"]) == 16


def test_generate_to_file(tmp_path, capsys):
    target = tmp_path / "graph.txt"
    code, out, _ = run(capsys, "generate", "wreath:r=4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert len(target.read_text().splitlines()) == 16


def test_unwritable_out_usage_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "graph.txt", tmp_path):
        code, out, err = run(capsys, "generate", "wreath:r=3", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize("command", [["generate", "wreath:r=3"],
                                     ["verify", "wreath:r=3"], ["matrix"]])
def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch,
                                              command):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started before --out was opened")

    for name in ("build_family", "verification_report", "matrix_report"):
        monkeypatch.setattr(cli, name, no_work)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *command, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err


def test_failed_run_keeps_earlier_report(tmp_path, capsys, monkeypatch):
    def failing_matrix(**kwargs):
        raise ValueError("matrix failed")

    monkeypatch.setattr(cli, "matrix_report", failing_matrix)
    earlier = tmp_path / "earlier.json"
    report = '{"overall": true}\n' * 20
    earlier.write_text(report)
    fresh = tmp_path / "fresh.json"
    for target in (earlier, fresh):
        code, _, err = run(capsys, "matrix", "--out", str(target))
        assert code == 2 and "matrix failed" in err
    assert earlier.read_text() == report
    assert not fresh.exists()
    # a shorter report replaces a longer one whole
    monkeypatch.undo()
    code, _, _ = run(capsys, "generate", "wreath:r=3", "--out", str(earlier))
    assert code == 0
    assert earlier.read_text() == edge_list_text(build_family(
        FamilySpec.parse("wreath:r=3")).graph)


def test_generate_bad_spec_usage_error(capsys):
    code, _, err = run(capsys, "generate", "gamma:t=banana")
    assert code == 2
    code, _, err = run(capsys, "generate", "noexist:r=3")
    assert code == 2


@pytest.mark.parametrize("spec, message", [
    ("gamma:t=abc,sign=plus", "must be an integer"),
    ("crs:r=6,s=3,foo=1", "takes parameters r, s"),
    ("crs:r=14,s=13", "has 114688 vertices"),
    ("delta:m=3", "pass --allow-large on the command line, or allow_large=True"),
    ("crs:r=6,s=3,s=4", "parameter s given twice"),
])
def test_verify_malformed_spec_usage_error(capsys, spec, message):
    code, out, err = run(capsys, "verify", spec)
    assert code == 2
    assert out == ""
    assert message in err


def test_generate_large_guard(capsys, monkeypatch):
    code, out, err = run(capsys, "generate", "wreath:r=50001")
    assert code == 2
    assert out == ""
    assert "has 100002 vertices" in err
    assert "allow_large" in err
    assert "--allow-large" in err
    # the guard is the closed-form vertex count alone; the environment
    # variable that used to lower it is not read
    monkeypatch.setenv("TETRASYM_MAX_VERTICES", "8")
    code, out, _ = run(capsys, "generate", "wreath:r=5")
    assert code == 0
    assert len(out.splitlines()) == 20


@pytest.mark.parametrize("spec, n", [("wreath:r=50001", 100002),
                                     ("crs:r=14,s=13", 114688),
                                     ("delta:m=3", 7484400)])
def test_generate_vertex_guard_every_family(capsys, monkeypatch, spec, n):
    # each family refuses a member above the guard before it builds any
    # group or graph
    def no_build(*args, **kwargs):
        raise AssertionError("built before the size guard")

    monkeypatch.setattr(families, "build_coset_graph", no_build)
    monkeypatch.setattr(families, "GroupIface", no_build)
    monkeypatch.setattr(families.Graph, "from_edges", no_build)
    # the direct constructions hand their neighbour rows to Graph itself
    monkeypatch.setattr(families, "Graph", no_build)
    monkeypatch.setattr(extragrp, "extension_group", no_build)
    for command in ("generate", "verify"):
        code, out, err = run(capsys, command, spec)
        assert code == 2
        assert out == ""
        assert "has %d vertices, above the size guard of 100000" % n in err
        assert "--allow-large" in err


# -- verify ---------------------------------------------------------------------

def test_verify_passing_family(capsys):
    code, report, _ = run_golden(capsys, "verify_crs_r6_s3")
    assert code == 0
    assert report["schema"] == 1
    assert report["overall"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"counts", "girth", "bipartite", "stabiliser", "sabidussi",
            "corefree", "aut"} <= names
    for check in report["checks"]:
        assert check.get("skipped") or check["source"] in ("paper", "derived")


def test_verify_known_failing_member(capsys):
    # the 32-vertex minus-type member: its expected-girth table entry (8) is
    # unattainable (a 4-regular girth-8 graph needs >= 53 vertices), so this
    # one check fails by design; everything else passes
    code, report, _ = run_golden(capsys, "verify_gamma_t2_minus")
    assert code == 1
    failing = [c for c in report["checks"]
               if not c.get("skipped") and not c["pass"]]
    assert [c["name"] for c in failing] == ["girth"]
    assert failing[0]["expected"] == 8
    assert failing[0]["actual"] == 6


def test_verify_checks_subset(capsys):
    code, report, _ = run_golden(capsys, "verify_gamma_t3_minus_subset")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["counts"]["pass"] and by_name["girth"]["pass"]
    assert by_name["cover"]["pass"]


@pytest.mark.parametrize("checks, named", [("counts,nonsense", "'nonsense'"),
                                           (",", "''"), ("", "''")])
def test_verify_unknown_check_usage_error(capsys, monkeypatch, checks, named):
    # an unknown name is refused before the build, with the valid names
    def no_build(*args, **kwargs):
        raise AssertionError("built before the check names were read")

    monkeypatch.setattr(cli, "build_family", no_build)
    code, out, err = run(capsys, "verify", "gamma:t=3,sign=minus",
                         "--checks", checks)
    assert code == 2
    assert out == ""
    assert "unknown checks %s (choose from %s)" % (named, ", ".join(cli.CHECK_NAMES)) in err
    with pytest.raises(ValueError, match="unknown checks 'nonsense'"):
        family_checks(build_family(FamilySpec.parse("wreath:r=3")), ["nonsense"])


def test_verify_gamma_t_above_the_limit_usage_error(capsys):
    code, out, err = run(capsys, "verify", "gamma:t=11,sign=minus")
    assert code == 2
    assert out == ""
    assert "t out of range: 11 (need 2 <= t <= 10)" in err


def test_verify_not_applicable_check_reported(capsys):
    code, report, _ = run_golden(capsys, "verify_wreath_r5_cover_counts")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["cover"]["skipped"]
    assert by_name["counts"]["pass"]


def test_verify_report_stable_modulo_millis(capsys):
    run_golden(capsys, "verify_crs_r5_s2")
    run_golden(capsys, "verify_crs_r5_s2")


def test_reports_give_build_time_and_peak_rss(capsys):
    # verify gives its one build's time; matrix one per member it built
    _, report, _ = run_golden(capsys, "verify_crs_r5_s2")
    assert isinstance(report["build_millis"], int) and report["build_millis"] >= 0
    assert isinstance(report["peak_rss_mb"], float) and report["peak_rss_mb"] > 0
    for name, specs in (("matrix_delta", {"delta:m=2"}),
                        ("matrix_wreath", {"wreath:r=4"})):
        _, report, _ = run_golden(capsys, name)
        assert set(report["build_millis"]) == specs
        assert all(isinstance(m, int) and m >= 0
                   for m in report["build_millis"].values())
        assert isinstance(report["peak_rss_mb"], float) and report["peak_rss_mb"] > 0


def test_verify_cover_above_iso_cap_skips(capsys, monkeypatch):
    # a valid member whose z-quotient (48 vertices here) is above the
    # isomorphism cap gets a skip row, not a usage error
    monkeypatch.setattr(graphalg, "ISO_CAP", 40)
    skip = {"name": "cover", "skipped": True,
            "reason": "z-quotient above the 40-vertex isomorphism cap"}
    code, out, _ = run(capsys, "verify", "gamma:t=3,sign=minus", "--checks", "cover")
    assert code == 0
    assert json.loads(out)["checks"] == [skip]
    # a full verify reports the skipped check too
    code, out, _ = run(capsys, "verify", "gamma:t=3,sign=minus")
    assert code == 0
    assert skip in json.loads(out)["checks"]


def test_cover_skip_never_builds_the_quotient(monkeypatch):
    # the cap is tested on the count of <z>-orbits, before the quotient's
    # loops over every arc run; at the cap itself the quotient is built
    build = build_family(FamilySpec.parse("gamma:t=3,sign=minus"))
    quotient = graphalg.quotient_by_subgroup_orbits
    built = []

    def counting(*args):
        built.append(args)
        return quotient(*args)

    monkeypatch.setattr(graphalg, "quotient_by_subgroup_orbits", counting)
    monkeypatch.setattr(graphalg, "ISO_CAP", 47)
    assert family_checks(build, ["cover"]) == [
        {"name": "cover", "skipped": True,
         "reason": "z-quotient above the 47-vertex isomorphism cap"}]
    assert built == []
    monkeypatch.setattr(graphalg, "ISO_CAP", 48)
    rows = family_checks(build, ["cover"])
    assert [(r["name"], r["actual"], r["pass"]) for r in rows] == [
        ("cover", (2, True, True), True)]
    assert len(built) == 1


def test_cover_builds_no_coset_graph_for_its_base(monkeypatch):
    # the base crs(2t, t) is read from its closed-form rows: once the member
    # is built, the check runs no coset build at all
    build = build_family(FamilySpec.parse("gamma:t=3,sign=minus"))

    def refuse(*args, **kwargs):
        raise AssertionError("coset build in the cover check")
    monkeypatch.setattr(families, "praeger_xu_coset", refuse)
    monkeypatch.setattr(families, "build_coset_graph", refuse)
    monkeypatch.setattr(cosetgraph, "build_coset_graph", refuse)
    rows = family_checks(build, ["cover"])
    assert [(r["name"], r["actual"], r["pass"]) for r in rows] == [
        ("cover", (2, True, True), True)]


def test_chain_checks_above_the_cap_on_a_bounded_action(capsys):
    # gamma t=8 has 8192 vertices; its action's chain is bounded by the
    # order its build certified, so the chain checks run there
    code, out, _ = run(capsys, "verify", "gamma:sign=minus,t=8",
                       "--checks", "stabiliser,group-order,local-group")
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)["checks"]}
    assert all(r["pass"] for r in rows.values())
    assert rows["stabiliser"]["actual"] == 512
    assert rows["group-order"]["actual"] == 8 * 2 ** 19
    assert rows["local-group"]["actual"] == [8, True]


def test_chain_cap_skips_only_unbounded_actions(capsys, monkeypatch):
    # the wreath action has no certified order bound, so the cap still
    # applies to it; a coset family's action runs above the same cap
    monkeypatch.setattr(cli, "_CHAIN_CAP", 8)
    code, out, _ = run(capsys, "verify", "wreath:r=5", "--checks", "stabiliser")
    assert code == 0
    assert json.loads(out)["checks"] == [
        {"name": "stabiliser", "skipped": True, "reason": "above stabiliser-chain cap"}]
    code, out, _ = run(capsys, "verify", "gamma:sign=plus,t=2", "--checks", "stabiliser")
    assert code == 0
    [row] = json.loads(out)["checks"]
    assert row["pass"] and row["actual"] == 8


@pytest.mark.parametrize("r", range(3, 9))
def test_local_group_every_crs_member(fam, r):
    # crs(r, r-1) has vertex-stabilisers of order 4, so it is not locally D4;
    # every other member is
    for s in range(1, r):
        [row] = family_checks(fam.crs(r, s), ["local-group"])
        assert row["pass"], (r, s)
        assert row["actual"] == ((8, True) if s <= r - 2 else (4, True))


def test_verify_delta_quick_checks(capsys):
    code, report, _ = run_golden(capsys, "verify_delta_m2_quick")
    assert code == 0
    assert {c["name"] for c in report["checks"] if not c.get("skipped")} == {
        "counts", "primitive", "word-identities", "bipartite"}


# -- matrix ---------------------------------------------------------------------

def test_matrix_wreath_only(capsys):
    code, report, _ = run_golden(capsys, "matrix_wreath")
    assert code == 0
    assert report["overall"] is True
    ids = [c["id"] for c in report["criteria"]]
    assert 11 in ids
    aut_rows = [row for c in report["criteria"] if c["id"] == 11
                for row in c["checks"]]
    assert any(row.get("expected") == 1152 and row["pass"] for row in aut_rows)


def test_matrix_gamma_small(capsys):
    code, report, err = run_golden(capsys, "matrix_gamma_crs_t2")
    assert code == 1  # the known girth discrepancy at t=2 minus
    girth_rows = [row for c in report["criteria"] if c["id"] == 5
                  for row in c["checks"] if not row["pass"]]
    assert len(girth_rows) == 1
    assert girth_rows[0]["family"] == "gamma:sign=minus,t=2"
    assert "PASS" in err and "FAIL" in err


def test_matrix_delta_only(capsys):
    code, report, _ = run_golden(capsys, "matrix_delta")
    assert code == 0
    assert [c["id"] for c in report["criteria"]] == [2, 3, 13]


def test_matrix_usage_errors(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built before --max-t was checked")

    monkeypatch.setattr(cli, "build_family", no_build)
    for max_t in ("1", "11"):
        code, out, err = run(capsys, "matrix", "--max-t", max_t)
        assert code == 2
        assert out == ""
        assert "--max-t must be between 2 and 10" in err
    with pytest.raises(SystemExit):  # nothing the matrix builds is large
        run(capsys, "matrix", "--allow-large")
    code, out, err = run(capsys, "matrix", "--families", "wreth")
    assert code == 2
    assert out == ""
    assert "wreth" in err and "wreath, crs, gamma, delta" in err


def test_matrix_empty_family_name_is_a_usage_error(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built with an empty family name")

    monkeypatch.setattr(cli, "build_family", no_build)
    code, out, err = run(capsys, "matrix", "--families", "")
    assert (code, out) == (2, "")
    assert "unknown families '' (choose from wreath, crs, gamma, delta)" in err
    code, out, err = run(capsys, "matrix", "--families", "wreath,")
    assert (code, out) == (2, "")
    assert "unknown families '' (choose from" in err
    code, out, err = run(capsys, "matrix", "--families", "wreth,,delta")
    assert (code, out) == (2, "")
    assert "unknown families '', 'wreth' (choose from" in err


def test_matrix_report_checks_its_inputs_before_any_build(monkeypatch):
    # called directly, not through the command line: a max_t out of range
    # or an empty family filter would otherwise build members (max_t=11
    # builds every member up to t=10) or pass criteria with no rows
    def no_build(*args, **kwargs):
        raise AssertionError("built before the inputs were checked")

    monkeypatch.setattr(cli, "build_family", no_build)
    for kwargs in ({"max_t": 1}, {"max_t": 11}, {"max_t": 1, "families_filter": ["gamma"]},
                   {"max_t": 11, "families_filter": ["delta"]}):
        with pytest.raises(ValueError, match="--max-t must be between 2 and 10"):
            cli.matrix_report(**kwargs)
    with pytest.raises(ValueError, match=r"no families chosen \(choose from wreath, "):
        cli.matrix_report(families_filter=[])


# -- one stabiliser chain per vertex action -------------------------------------

@pytest.mark.parametrize("spec, checks", [
    ("gamma:sign=minus,t=3", ["stabiliser", "group-order", "local-group"]),
    ("delta:m=2", ["stabiliser", "group-order"]),
])
def test_one_chain_per_vertex_action(monkeypatch, spec, checks):
    build = build_family(FamilySpec.parse(spec))
    gens = {tuple(p.tolist()) for p in build.action.images}
    built = []

    class CountingChain(permgrp._StabChain):
        def __init__(self, degree, arrays, base_prefix=(), bound=None,
                     transitive=False):
            if degree == build.graph.n and {tuple(a.tolist()) for a in arrays} == gens:
                built.append(base_prefix)
            super().__init__(degree, arrays, base_prefix, bound, transitive)

    monkeypatch.setattr(permgrp, "_StabChain", CountingChain)
    rows = family_checks(build, checks)
    assert [r["name"] for r in rows] == checks
    assert all(r["pass"] for r in rows)
    assert len(built) == 1


@pytest.mark.parametrize("spec, checks, labellings", [
    ("delta:m=2", ["group-order", "stabiliser", "arc-transitive"], 0),
    ("gamma:sign=minus,t=3", ["girth", "arc-transitive"], 0),
    ("wreath:r=4", ["girth", "group-order", "arc-transitive"], 1),
])
def test_checks_repeat_no_proof_of_transitivity(monkeypatch, spec, checks,
                                                labellings):
    # a coset build has reached every coset from H: the checks label no
    # vertex orbits and run no BFS for the first level of the chain, whose
    # orbit is all the vertices.  The wreath action labels them once and
    # grows its first level.
    build = build_family(FamilySpec.parse(spec))
    labelled, grown = [], []
    label, grow = permgrp.orbit_labels, permgrp._Level._grow

    def counting_label(gens, degree):
        labelled.append(degree)
        return label(gens, degree)

    def counting_grow(level, *args):
        grown.append(level)
        return grow(level, *args)

    monkeypatch.setattr(permgrp, "orbit_labels", counting_label)
    monkeypatch.setattr(permgrp._Level, "_grow", counting_grow)
    rows = family_checks(build, checks)
    assert sorted(r["name"] for r in rows) == sorted(checks)
    assert all(r["pass"] for r in rows)
    assert labelled.count(build.graph.n) == labellings
    chain = build.action.group._chain
    assert (chain is not None) == ("group-order" in checks)
    if chain is not None:
        # the base points are distinct, so a level grown at the first one
        # is level 0
        first = chain.levels[0].point
        assert any(lv.point == first for lv in grown) == bool(labellings)


@pytest.mark.parametrize("spec", ["delta:m=2", "gamma:sign=minus,t=3",
                                  "crs:r=6,s=3", "wreath:r=4"])
def test_stabiliser_of_vertex_0_runs_no_second_chain(monkeypatch, spec):
    # vertex 0 is the first base point of the action's chain, so its
    # stabiliser is that chain's levels 1.., shared, and no chain on the
    # vertices is built after it (the local group's chain is on the four
    # neighbours of vertex 0)
    build = build_family(FamilySpec.parse(spec))
    G = build.action.group
    chain = G.chain
    built = []
    init = permgrp._StabChain.__init__

    def counting(self, degree, *args, **kwargs):
        if degree == build.graph.n:
            built.append(args)
        init(self, degree, *args, **kwargs)

    monkeypatch.setattr(permgrp._StabChain, "__init__", counting)
    stab = G.point_stabiliser(0)
    assert stab.order() == G.order() // build.graph.n
    assert all(stab.contains(g) for g in stab.arrays())
    assert not stab.contains(next(g for g in build.action.images if g[0] != 0))
    assert graphalg.local_group(build.action, 0).is_transitive()
    rows = family_checks(build, ["stabiliser", "local-group"])
    assert [r["name"] for r in rows] == ["stabiliser", "local-group"]
    assert all(r["pass"] for r in rows)
    assert built == []
    assert len(stab.chain.levels) == len(chain.levels) - 1
    assert all(level is chain.levels[i + 1]
               for i, level in enumerate(stab.chain.levels))


def test_girth_check_runs_one_bfs_on_a_transitive_action(monkeypatch):
    build = build_family(FamilySpec.parse("gamma:t=10,sign=minus"))
    roots = []
    bfs = graphalg._shortest_cycle_from

    def counting(adj, root, best):
        roots.append(root)
        return bfs(adj, root, best)

    monkeypatch.setattr(graphalg, "_shortest_cycle_from", counting)
    rows = family_checks(build, ["girth"])
    assert [(r["name"], r["actual"], r["pass"]) for r in rows] == [("girth", 8, True)]
    assert roots == [0]
