"""The `search` benchmark workload (bench/workloads.py) relabels graphs with
``Graph.from_edges``, calls ``graphalg.isomorphic`` and checks its result by
calling it on each vertex and reading ``Graph.adj``.  Running those helpers
here makes a change that breaks that use fail this suite instead of every
benchmark iteration."""

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
