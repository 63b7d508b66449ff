"""Smoke test of the benchmark at tiny size (gamma t=3, crs(6,3)).

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "smoke",
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_gate_flags_a_tampered_verdict():
    workloads.import_program()
    work = workloads.WORKLOADS["smoke"]
    actual, _ = work.body(work.prepare(7, 0))
    known = work.known(None, actual)
    assert all(workloads.judge(known, actual).values())

    name = "crs:r=6,s=3/girth"
    verdicts = workloads.judge(known, dict(actual, **{name: 6}))
    assert [n for n, ok in verdicts.items() if not ok] == [name]
    without = {n: value for n, value in actual.items() if n != name}
    assert not workloads.judge(known, without)[name]

    result, code = run.summarise(dict.fromkeys(run.END_TO_END, 1.0), run.END_TO_END,
                                 [{"verdicts": verdicts}])
    assert code == 1 and not result["correct"] and result["failed"] == 1


def test_matrix_gate_keeps_the_erratum_and_flags_changed_rows():
    work = workloads.WORKLOADS["matrix"]
    golden = work.prepare(7, 0)
    erratum = "05 girth gamma:sign=minus,t=2"
    assert [row for row, ok in golden.items() if not ok] == [erratum]
    assert all(workloads.judge(work.known(golden, golden), golden).values())

    tampered = dict(golden, **{erratum: True})
    tampered.pop("13 corefree delta:m=2")
    tampered["11 aut gamma:sign=plus,t=4"] = False
    verdicts = workloads.judge(work.known(golden, tampered), tampered)
    assert sorted(n for n, ok in verdicts.items() if not ok) == [
        erratum, "11 aut gamma:sign=plus,t=4", "13 corefree delta:m=2"]
