"""One iteration of one benchmark workload, in this process.

``run.py`` starts this file once per iteration, each time in a fresh
interpreter, so every iteration pays the cold costs that a user of tetrasym
pays: the imports, the group tables and the graph builds.  The program runs
in this one process with ``threads=1`` and no pool.

    python3 bench/workloads.py WORKLOAD --seed N --iteration I --trace 0|1 [--setup-only]

The last line of standard output is one JSON object: when set-up ended (on
CLOCK_MONOTONIC, which the parent shares), the body's wall, build and verify
times, the peak RSS, one verdict per check (true when it matches the known
answer), provenance, and, when traced, the per-layer metrics.  The traced
iteration also writes its spans to ``.bench_out/`` as Chrome trace-event
JSON.  Exit code 2 means the program could not be imported from ``src/``.

``matrix_golden.json`` holds ``matrix_rows()`` of the report of
``tetrasym matrix`` at the commit that added this benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import micro  # noqa: E402
import spans  # noqa: E402


def import_program():
    """Import tetrasym from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tetrasym
    if Path(tetrasym.__file__).resolve().parent != src.resolve() / "tetrasym":
        raise ImportError("tetrasym imported from %s, not %s"
                          % (tetrasym.__file__, src))


def _plain(value):
    return json.loads(json.dumps(value))


def judge(known: dict, actual: dict) -> dict:
    """Check name -> whether the actual value equals the known answer.  A
    check with no actual value (it raised, or the row went missing) is
    wrong."""
    return {name: name in actual and _plain(actual[name]) == answer
            for name, answer in known.items()}


class BuildVerify:
    """Cold builds of family members, each followed by named checks of
    ``cli.family_checks`` and a 4-regularity check."""

    def __init__(self, answers: dict):
        self.answers = answers  # spec -> {check name: known answer}

    def prepare(self, seed, iteration):
        return None

    def known(self, state, actual):
        return {"%s/%s" % (spec, check): answer
                for spec, checks in self.answers.items()
                for check, answer in checks.items()}

    def body(self, state):
        from tetrasym import cli, families
        actual = {}
        for spec, checks in self.answers.items():
            try:
                build = families.build_family(families.FamilySpec.parse(spec),
                                              allow_large=True)
                actual[spec + "/regular"] = build.graph.is_regular(4)
                names = [c for c in checks if c != "regular"]
                for row in cli.family_checks(build, names):
                    if "actual" in row:
                        actual["%s/%s" % (spec, row["name"])] = row["actual"]
                del build
            except Exception:
                traceback.print_exc()
        return actual, {}


def matrix_rows(report: dict) -> dict:
    """'criterion name family' -> pass, for every row that was not skipped."""
    return {"%02d %s %s" % (crit["id"], row["name"], row.get("family", "-")): row["pass"]
            for crit in report["criteria"] for row in crit["checks"]
            if not row.get("skipped")}


class Matrix:
    """``cli.matrix_report()`` with default arguments.  Every golden row must
    be present with its golden pass value (the criterion-5 erratum row fails
    there, so failing is its right verdict); a row added since must pass."""

    def prepare(self, seed, iteration):
        return json.loads((HERE / "matrix_golden.json").read_text())

    def known(self, golden, actual):
        return {**dict.fromkeys(actual, True), **golden}

    def body(self, golden):
        from tetrasym import cli
        try:
            report = cli.matrix_report()
        except Exception:
            traceback.print_exc()
            return {}, {}
        layers = {"cli.criterion_%02d_ms" % crit["id"]:
                  sum(row.get("millis", 0) for row in crit["checks"])
                  for crit in report["criteria"]}
        return matrix_rows(report), layers


def _relabel(graph, rng):
    from tetrasym.cosetgraph import Graph
    images = list(range(graph.n))
    rng.shuffle(images)
    return Graph.from_edges(graph.n, [(images[u], images[v]) for u, v in graph.edges()])


def _is_isomorphism(g1, g2, mapping) -> bool:
    return all({mapping(w) for w in g1.adj[u]} == set(g2.adj[mapping(u)])
               for u in range(g1.n))


class Search:
    """The criterion-11 automorphism targets and the criterion-12
    isomorphism pairs.  The target, and the second graph of each pair, is
    relabelled by a vertex permutation drawn from the seed and the iteration,
    so a search order tuned to the coset numbering shows.  Builds and
    relabelling are set-up."""

    AUT = {"wreath:r=4": 1152,
           "gamma:sign=plus,t=2": 256, "gamma:sign=minus,t=2": 2304,
           "gamma:sign=plus,t=3": 1536, "gamma:sign=minus,t=3": 1536}
    ISO = [("gamma2plus-iso-crs(4,3)", "gamma:sign=plus,t=2", "crs:r=4,s=3", True)]
    ISO += [("gamma%d-plus-vs-minus" % t, "gamma:sign=plus,t=%d" % t,
             "gamma:sign=minus,t=%d" % t, False) for t in (2, 3, 4)]
    ISO += [("crs(%d,%d)-direct-vs-coset" % (r, s), (r, s), "crs:r=%d,s=%d" % (r, s), True)
            for r in range(4, 9) for s in range(2, r - 1)]

    def prepare(self, seed, iteration):
        from tetrasym import families
        rng = random.Random("%d/%d" % (seed, iteration))
        built = {}

        def graph(spec):
            if isinstance(spec, tuple):
                return families.praeger_xu_direct(*spec)
            if spec not in built:
                built[spec] = families.build_family(families.FamilySpec.parse(spec)).graph
            return built[spec]

        aut = [(spec, _relabel(graph(spec), rng)) for spec in self.AUT]
        iso = [(name, graph(first), _relabel(graph(second), rng))
               for name, first, second, _ in self.ISO]
        return aut, iso

    def known(self, state, actual):
        return {**{"aut " + spec: order for spec, order in self.AUT.items()},
                **{name: answer for name, _, _, answer in self.ISO}}

    def body(self, state):
        from tetrasym import graphalg
        aut, iso = state
        actual = {}
        for spec, g in aut:
            try:
                actual["aut " + spec] = graphalg.automorphism_group_order(g)
            except Exception:
                traceback.print_exc()
        for name, g1, g2 in iso:
            try:
                mapping = graphalg.isomorphic(g1, g2)
                if mapping is None:
                    actual[name] = False
                elif _is_isomorphism(g1, g2, mapping):
                    actual[name] = True
                else:
                    actual[name] = "not an isomorphism"
            except Exception:
                traceback.print_exc()
        return actual, {}


def _gamma(t: int) -> dict:
    vertices = t * 2 ** (t + 2)
    return {"gamma:sign=%s,t=%d" % (sign, t): {
        "counts": vertices, "regular": True, "girth": 8, "bipartite": True,
        "arc-transitive": True} for sign in ("plus", "minus")}


WORKLOADS = {
    "gamma-t6": BuildVerify(_gamma(6)),
    "delta": BuildVerify({"delta:m=2": {
        "counts": 2520, "regular": True, "bipartite": False,
        "arc-transitive": True, "group-order": 40320, "stabiliser": 16,
        "primitive": True, "word-identities": True,
        "sabidussi": [True, True, 4], "corefree": True}}),
    "search": Search(),
    # One iteration of these takes 15-25 s, too long for steady figures on
    # a shared 2-core host, so BENCHMARK.json leaves them out; run by hand.
    "matrix": Matrix(),
    "gamma-large": BuildVerify(_gamma(7)),
    # Tiny, for the benchmark's own smoke test.
    "smoke": BuildVerify({
        "gamma:sign=minus,t=3": {"counts": 96, "regular": True, "girth": 8,
                                 "bipartite": True, "arc-transitive": True},
        "crs:r=6,s=3": {"counts": 48, "regular": True, "girth": 4,
                        "bipartite": True, "arc-transitive": True}}),
}


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _commit(),
            "execution": "each iteration in a fresh single process, "
                         "threads=1, no pool"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iteration", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print("error: cannot import tetrasym from this checkout: %s" % exc,
              file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    # Untraced, only the family constructors are timed (for build_s).
    rec = spans.Recorder().install(only=None if args.trace else spans.CONSTRUCTORS)
    state = work.prepare(args.seed, args.iteration)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        probe = {"ready": ready}
        if rec.calls(spans.CONSTRUCTORS):
            probe["build_s"] = rec.inclusive(spans.CONSTRUCTORS)
        print(json.dumps(probe))
        return 0

    t0 = time.perf_counter()
    actual, layers = work.body(state)
    wall = time.perf_counter() - t0
    rec.uninstall()
    result = {
        "ready": ready,
        "wall_s": wall,
        "build_s": rec.inclusive(spans.CONSTRUCTORS),
        "verify_s": wall - rec.inclusive(spans.CONSTRUCTORS, since=t0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts": judge(work.known(state, actual), actual),
        "provenance": dict(provenance(), seed=args.seed),
    }
    if args.trace:
        layers.update(rec.layer_metrics(since=t0))
        layers.update(micro.micro_metrics(args.seed))
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / ("trace-%s-seed%d-%d.json"
                          % (args.workload, args.seed, args.iteration))
        meta = dict(result["provenance"], workload=args.workload,
                    iteration=args.iteration)
        path.write_text(json.dumps(rec.chrome_trace(meta, body_start=t0)))
    result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
