"""The tetrasym benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
Each iteration of a workload runs in a fresh single process
(``workloads.py``) with ``threads=1`` and no pool.  Iterations repeat until
the next one would end after ``--seconds`` (at least one runs), and each
metric is the median over the iterations.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its unit, the wrong
verdicts, and the provenance.  The exit code is 0 when every verdict matches
its known answer, 1 when some do not, and 2 when the program cannot be run.

Workloads in BENCHMARK.json (``workloads.py`` has the known answers):

- ``gamma-t6``: cold build and verify of ``gamma:t=6`` in both signs;
  nearly all coset exploration over packed ``extragrp`` codes.
- ``delta``: build ``delta:m=2`` and run the criterion-13 suite; the same
  explorer over permutations, and Schreier-Sims chains.
- ``search``: the criterion-11 automorphism targets and criterion-12
  isomorphism pairs, each second graph relabelled from the seed;
  refinement and backtracking.

``matrix`` (``cli.matrix_report()`` with default arguments) and
``gamma-large`` (``gamma:t=7``, both signs) run the same way by hand; one
iteration of either takes 15-25 s, too few per run for steady figures.

End-to-end metrics (``--trace 0``):

- ``wall_s``: wall time of the timed body.
- ``setup_s``: from spawning the process to the start of the body:
  interpreter, imports and, for ``search``, the builds and relabelling.
  Set-up-only processes top the samples up to ``SETUP_SAMPLES``.
- ``peak_rss_mb``: peak RSS of the iteration's process.
- ``build_s``: time inside the five family constructors, timed by wrappers
  on just those functions.  On ``search`` they run in set-up, so the
  set-up-only processes sample it too.
- ``verify_s``: ``wall_s`` minus the constructor time inside the body.

Verdicts that differ from the known answer, or that raised, are the wrong
verdicts: ``failed`` out of ``attempted`` checks.

Per-layer metrics (``--trace 1``) come from the iterations that run with
the span wrappers of ``spans.py`` installed, and from the micro-loops of
``micro.py``.  The first half of the time runs untraced; ``trace_overhead_s``
is the traced minus the untraced median ``wall_s``.  A layer that does not
run in a workload reads 0 there.

The smoke test, ``python3 -m pytest bench/test_bench.py``, runs the tiny
``smoke`` workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 8
DEADLINE_S = 170  # a run, children included, ends within this

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "build_s": "s", "verify_s": "s"}

PER_LAYER = {
    "extragrp.mul_code_ns": "ns", "extragrp.mul_code_ops": "count",
    "extragrp.gelt_mul_ns": "ns", "extragrp.gelt_mul_ops": "count",
    "extragrp.group_init_s": "s",
    "permgrp.perm_mul_ns": "ns", "permgrp.perm_mul_ops": "count",
    "permgrp.chain_s": "s", "permgrp.chain_calls": "count",
    "cosetgraph.build_coset_graph_s": "s",
    "cosetgraph.explore_us_per_vertex": "us",
    "cosetgraph.explored_vertices": "count",
    "cosetgraph.validate_s": "s", "cosetgraph.sabidussi_s": "s",
    "cosetgraph.corefree_s": "s", "cosetgraph.explorations_per_member": "ratio",
    "families.gamma_s": "s", "families.crs_s": "s", "families.delta_s": "s",
    "families.wreath_s": "s", "families.crs_direct_s": "s",
    "families.builds_per_spec": "ratio",
    "graphalg.aut_s": "s", "graphalg.isomorphic_s": "s",
    "graphalg.aut_calls": "count", "graphalg.isomorphic_calls": "count",
    "graphalg.girth_s": "s", "graphalg.arc_transitive_s": "s",
    "graphalg.quotient_s": "s", "graphalg.local_group_s": "s",
    **{"cli.criterion_%02d_ms" % i: "ms" for i in range(1, 15)},
    "cli.matrix_self_s": "s",
    "trace_overhead_s": "s",
}


def child(workload: str, seed: int, iteration: int, trace: bool,
          setup_only: bool = False) -> dict:
    """Run one iteration in a fresh process and return its result; the
    process is killed at the run's deadline."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload,
           "--seed", str(seed), "--iteration", str(iteration),
           "--trace", str(int(trace))] + (["--setup-only"] if setup_only else [])
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, STARTED + DEADLINE_S - spawned))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - spawned
    return result


def iterate(workload: str, seed: int, seconds: float, trace: bool,
            first: int = 0) -> list:
    """Iterations until the next would end after ``seconds`` (at least one)."""
    results = []
    start = time.monotonic()
    while True:
        results.append(child(workload, seed, first + len(results), trace))
        elapsed = time.monotonic() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def median(results: list, key: str) -> float:
    """The median over the results that measured ``key``, else 0."""
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """(metrics, the iterations' results)."""
    if not trace:
        runs = iterate(workload, seed, seconds, False)
        probes = [child(workload, seed, len(runs) + i, False, setup_only=True)
                  for i in range(SETUP_SAMPLES - len(runs))]
        metrics = {name: median(runs + probes if name in ("setup_s", "build_s") else runs, name)
                   for name in END_TO_END}
        return metrics, runs
    plain = iterate(workload, seed, seconds / 2, False)
    traced = iterate(workload, seed, seconds / 2, True, first=len(plain))
    metrics = {name: median([r["layers"] for r in traced], name) for name in PER_LAYER}
    metrics["trace_overhead_s"] = median(traced, "wall_s") - median(plain, "wall_s")
    return metrics, plain + traced


def summarise(metrics: dict, units: dict, runs: list) -> tuple:
    """(result object, exit code), printing the human-readable lines."""
    wrong = [name for r in runs for name, ok in r["verdicts"].items() if not ok]
    attempted = sum(len(r["verdicts"]) for r in runs)
    for name in units:
        print("  %-36s %16.6f %s" % (name, metrics[name], units[name]))
    print("  %-36s %16d of %d checks in %d iteration(s)"
          % ("wrong_verdicts", len(wrong), attempted, len(runs)))
    for name in sorted(set(wrong)):
        print("  wrong verdict: %s" % name)
    result = {"correct": not wrong, "attempted": attempted, "failed": len(wrong),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    return result, 0 if not wrong else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        metrics, runs = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except subprocess.SubprocessError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    result, code = summarise(metrics, PER_LAYER if args.trace else END_TO_END, runs)
    print("provenance " + json.dumps(runs[0]["provenance"], sort_keys=True))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
