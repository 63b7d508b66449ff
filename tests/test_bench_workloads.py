"""The `search` benchmark workload (bench/workloads.py) relabels graphs with
``Graph.from_edges``, calls ``graphalg.isomorphic`` and checks its result by
calling it on each vertex and reading ``Graph.adj``.  Running those helpers
here makes a change that breaks that use fail this suite instead of every
benchmark iteration.  One iteration of the workload's searches is also run
here, to bound how often they refine, and one of the `matrix` workload, to
judge the default matrix against its golden rows."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from tetrasym import graphalg
from tetrasym.families import FamilySpec, build_family, praeger_xu_direct

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # the module puts bench/ on sys.path to import its siblings
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("tetrasym_bench_workloads",
                                                      WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("spec", ["gamma:t=3,sign=minus", "crs:r=6,s=3"])
def test_search_workload_helpers_accept_an_isomorphism(workloads, spec):
    graph = build_family(FamilySpec.parse(spec)).graph
    firsts = [graph]
    if spec.startswith("crs"):
        firsts.append(praeger_xu_direct(6, 3))  # the criterion-12 direct graph
    rng = random.Random(spec)
    for first in firsts:
        second = workloads._relabel(graph, rng)
        assert second.n == graph.n and second.edges() != graph.edges()
        mapping = graphalg.isomorphic(first, second)
        assert mapping is not None
        assert workloads._is_isomorphism(first, second, mapping)
    # the check is no formality: the identity map is not an isomorphism
    assert not workloads._is_isomorphism(graph, second, lambda v: v)


def test_search_workload_refines_at_most_222_times(workloads, monkeypatch):
    # The searches of one iteration (seed 1, iteration 0) call _refine 222
    # times: a faster search body must come from cheaper rounds or fewer
    # calls, never from a search tree that changed shape unnoticed.
    search = workloads.WORKLOADS["search"]
    state = search.prepare(1, 0)
    calls, real_refine = [], graphalg._refine

    def refine(pad, colours, script=None):
        calls.append(1)
        return real_refine(pad, colours, script)

    monkeypatch.setattr(graphalg, "_refine", refine)
    actual, _ = search.body(state)
    assert all(workloads.judge(search.known(state, actual), actual).values())
    assert len(calls) <= 222


def test_matrix_workload_matches_the_golden(workloads):
    # the default matrix against bench/matrix_golden.json: a renamed,
    # dropped or flipped row fails here
    matrix = workloads.WORKLOADS["matrix"]
    golden = matrix.prepare(1, 0)
    actual, _ = matrix.body(golden)
    verdicts = workloads.judge(matrix.known(golden, actual), actual)
    assert [name for name, ok in verdicts.items() if not ok] == []
