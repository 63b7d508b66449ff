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
