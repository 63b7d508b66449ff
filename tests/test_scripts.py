import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stabiliser_growth_csv(tmp_path):
    out = tmp_path / "growth.csv"
    assert load_script("stabiliser_growth").main(["--max-t", "3", "--out", str(out)]) == 0
    with out.open(newline="") as f:
        header, *rows = list(csv.reader(f))
    assert header == ["family", "params", "vertices", "stabiliser_order", "bound_rhs"]
    # wreath r=3..8, crs r=4..8 with every s < r, gamma t=2..3 in both
    # signs, delta m=2 and the closed-form m=3, 4
    assert len(rows) == 6 + (3 + 4 + 5 + 6 + 7) + 4 + 3
    gamma = [row for row in rows if row[0] == "gamma"]
    assert [row[1] for row in gamma] == ["t=2,sign=plus", "t=2,sign=minus",
                                         "t=3,sign=plus", "t=3,sign=minus"]
    assert all(row[2] == row[4] for row in gamma)  # the bound holds with equality
    # the stabiliser column is measured on each built member's vertex action
    # and equals the paper's orders: 2^r, 2^(r-s+1), 2^(t+1), 2^(2m)
    assert [row[3] for row in rows if row[0] == "wreath"] == [
        str(2 ** r) for r in range(3, 9)]
    assert [row[3] for row in rows if row[0] == "crs"] == [
        str(2 ** (r - s + 1)) for r in range(4, 9) for s in range(1, r)]
    assert [row[3] for row in gamma] == ["8", "8", "16", "16"]
    assert [row[3] for row in rows if row[0] == "delta"] == ["16", "64", "256"]


def test_stabiliser_growth_fails_on_a_wrong_measurement(tmp_path, monkeypatch, capsys):
    # a stabiliser chain that answered |G_0| = 1 must stop the script
    from tetrasym.permgrp import PermGroup
    monkeypatch.setattr(PermGroup, "point_stabiliser",
                        lambda group, x: PermGroup([], degree=group.degree))
    out = tmp_path / "growth.csv"
    assert load_script("stabiliser_growth").main(["--max-t", "2", "--out", str(out)]) == 1
    assert "wreath r=3: |G_0| measured 1, expected 8" in capsys.readouterr().err
