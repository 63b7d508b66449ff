import json
from pathlib import Path

import pytest

from tetrasym.cli import main

# Each file pins one CLI run: its arguments, exit code and JSON report with
# every "millis" field removed.  Reports may change only in their timings.
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_millis(obj):
    if isinstance(obj, dict):
        return {k: without_millis(v) for k, v in obj.items() if k != "millis"}
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


def test_generate_bad_spec_usage_error(capsys):
    code, _, err = run(capsys, "generate", "gamma:t=banana")
    assert code == 2
    code, _, err = run(capsys, "generate", "noexist:r=3")
    assert code == 2


@pytest.mark.parametrize("spec, message", [
    ("gamma:t=abc,sign=plus", "must be an integer"),
    ("crs:r=6,s=3,foo=1", "takes parameters r, s"),
])
def test_verify_malformed_spec_usage_error(capsys, spec, message):
    code, out, err = run(capsys, "verify", spec)
    assert code == 2
    assert out == ""
    assert message in err


def test_generate_large_guard(capsys):
    code, _, err = run(capsys, "generate", "gamma:t=7,sign=plus")
    assert code == 2
    assert "allow_large" in err


@pytest.mark.parametrize("spec", ["wreath:r=5", "crs:r=5,s=1"])
def test_generate_vertex_guard_every_family(capsys, monkeypatch, spec):
    monkeypatch.setenv("TETRASYM_MAX_VERTICES", "8")
    code, out, err = run(capsys, "generate", spec)
    assert code == 2
    assert out == ""
    assert "has 10 vertices, above the size guard 8" in err


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
    assert by_name["nonsense"]["skipped"]


def test_verify_not_applicable_check_reported(capsys):
    code, report, _ = run_golden(capsys, "verify_wreath_r5_cover_counts")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["cover"]["skipped"]
    assert by_name["counts"]["pass"]


def test_verify_report_stable_modulo_millis(capsys):
    run_golden(capsys, "verify_crs_r5_s2")
    run_golden(capsys, "verify_crs_r5_s2")


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


def test_matrix_usage_errors(capsys):
    code, _, _ = run(capsys, "matrix", "--max-t", "1")
    assert code == 2
    code, _, _ = run(capsys, "matrix", "--max-t", "7")
    assert code == 2
    code, out, err = run(capsys, "matrix", "--families", "wreth")
    assert code == 2
    assert out == ""
    assert "wreth" in err and "wreath, crs, gamma, delta" in err
