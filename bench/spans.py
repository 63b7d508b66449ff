"""Span and counter recording around tetrasym's layer boundaries.

The benchmark installs these wrappers from outside the program: every public
function of each layer module, plus the few methods and private helpers the
per-layer metrics need, is replaced in every ``tetrasym`` namespace that holds
it, and ``uninstall`` puts the originals back.  Element arithmetic is left
unwrapped, because a span per multiplication would swamp the trace; the
micro-loops in ``micro.py`` measure it instead.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
top level).  The recorder keeps one stack of open spans, so it assumes one
thread, which is how the benchmark runs the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("extragrp", "permgrp", "cosetgraph", "families", "graphalg", "cli")

# Per-element arithmetic, called millions of times in one build.
UNWRAPPED = frozenset({"extragrp.evec_mul", "extragrp.evec_inv",
                       "extragrp.conj_by_a", "extragrp.conj_by_b"})

# Wrapped in addition to the public module-level functions.
EXTRA = ("permgrp.PermGroup.order", "permgrp.PermGroup.point_stabiliser",
         "permgrp.PermGroup.is_primitive",
         "cosetgraph._explore", "cosetgraph._explore_compact",
         "cosetgraph.Graph.__post_init__",
         "cosetgraph.VertexAction.__post_init__")

CONSTRUCTORS = frozenset({"families.wreath_graph", "families.praeger_xu_direct",
                          "families.praeger_xu_coset", "families.gamma",
                          "families.delta"})
EXPLORERS = frozenset({"cosetgraph._explore", "cosetgraph._explore_compact"})
CHAIN = frozenset({"permgrp.PermGroup.order", "permgrp.PermGroup.point_stabiliser",
                   "permgrp.PermGroup.is_primitive"})


def _on_explore(name, fn):
    def hook(args, kwargs, result):
        iface, a_elt = args[0], args[1]
        triple = (tuple(map(repr, iface.generators)), len(iface.subgroup), repr(a_elt))
        return [("explored", len(result[0])), ("triple", triple)]
    return hook


def _on_construct(name, fn):
    signature = inspect.signature(fn)

    def hook(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return [("member", (name, tuple(bound.arguments.items())))]
    return hook


# name -> (name, function) -> hook(args, kwargs, result) -> [(kind, value)]
HOOKS = {name: _on_explore for name in EXPLORERS}
HOOKS.update({name: _on_construct for name in CONSTRUCTORS})


class Recorder:
    """Spans, plus notes ``(start, kind, value)`` that hooks take from a
    span's arguments and result."""

    def __init__(self):
        self.spans: list = []
        self.notes: list = []
        self._open: list = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        hook = HOOKS[name](name, fn) if name in HOOKS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if hook is not None:
                self.notes += [(span[1], kind, value)
                               for kind, value in hook(args, kwargs, result)]
            return result
        return traced

    def install(self, only=None) -> "Recorder":
        """Wrap every target (or only the named ones) in place."""
        mods = {layer: importlib.import_module("tetrasym." + layer)
                for layer in LAYERS}
        namespaces = [sys.modules["tetrasym"], *mods.values()]
        targets = []
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    targets.append((name, None, obj))
        for name in EXTRA:
            layer, *owner, attr = name.split(".")
            holder = getattr(mods[layer], owner[0]) if owner else None
            obj = vars(holder)[attr] if owner else getattr(mods[layer], attr)
            targets.append((name, holder, obj))
        for name, holder, obj in targets:
            if only is not None and name not in only:
                continue
            wrapper = self.wrap(name, obj)
            if holder is not None:
                setattr(holder, name.rsplit(".", 1)[1], wrapper)
                self._undo.append((holder, name.rsplit(".", 1)[1], obj))
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is obj:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, obj))
        return self

    def uninstall(self):
        while self._undo:
            holder, key, obj = self._undo.pop()
            setattr(holder, key, obj)

    def calls(self, names, since: float = 0.0) -> int:
        return sum(1 for s in self.spans if s[0] in names and s[1] >= since)

    def inclusive(self, names, since: float = 0.0) -> float:
        """Time in spans named in ``names`` that have no ancestor named in
        ``names`` (so recursion and nesting are not counted twice)."""
        spans, total = self.spans, 0.0
        for name, t0, t1, parent in spans:
            if name in names and t0 >= since:
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    total += t1 - t0
        return total

    def self_time(self, names, since: float = 0.0) -> float:
        """Time in spans named in ``names`` minus the time of their child spans."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return sum(t1 - t0 - child[i]
                   for i, (name, t0, t1, _) in enumerate(self.spans)
                   if name in names and t0 >= since)

    def layer_metrics(self, since: float) -> dict:
        """The per-layer metrics over the spans that start at or after
        ``since``."""
        explored, triples, members = 0, set(), set()
        for t0, kind, value in self.notes:
            if t0 < since:
                continue
            if kind == "explored":
                explored += value
            elif kind == "triple":
                triples.add(value)
            else:
                members.add(value)
        explore_s = self.inclusive(EXPLORERS, since)
        out = {
            "extragrp.group_init_s": self.inclusive({"extragrp.extension_group"}, since),
            "permgrp.chain_s": self.inclusive(CHAIN, since),
            "permgrp.chain_calls": self.calls(CHAIN, since),
            "cosetgraph.build_coset_graph_s":
                self.inclusive({"cosetgraph.build_coset_graph"}, since),
            "cosetgraph.explore_us_per_vertex":
                explore_s / explored * 1e6 if explored else 0.0,
            "cosetgraph.explored_vertices": explored,
            "cosetgraph.validate_s": self.inclusive(
                {"cosetgraph.Graph.__post_init__",
                 "cosetgraph.VertexAction.__post_init__"}, since),
            "cosetgraph.sabidussi_s":
                self.inclusive({"cosetgraph.validate_sabidussi"}, since),
            "cosetgraph.corefree_s":
                self.inclusive({"cosetgraph.validate_corefree"}, since),
            "cosetgraph.explorations_per_member":
                self.calls(EXPLORERS, since) / len(triples) if triples else 0.0,
            "families.builds_per_spec":
                self.calls(CONSTRUCTORS, since) / len(members) if members else 0.0,
            "graphalg.aut_calls":
                self.calls({"graphalg.automorphism_group_order"}, since),
            "graphalg.isomorphic_calls": self.calls({"graphalg.isomorphic"}, since),
            "cli.matrix_self_s": self.self_time({"cli.matrix_report"}, since),
        }
        for metric, fn in (("gamma", "gamma"), ("crs", "praeger_xu_coset"),
                           ("delta", "delta"), ("wreath", "wreath_graph"),
                           ("crs_direct", "praeger_xu_direct")):
            out["families.%s_s" % metric] = self.self_time({"families." + fn}, since)
        for metric, fn in (("aut", "automorphism_group_order"),
                           ("isomorphic", "isomorphic"), ("girth", "girth"),
                           ("arc_transitive", "verify_arc_transitive"),
                           ("quotient", "quotient_by_subgroup_orbits"),
                           ("local_group", "local_group")):
            out["graphalg.%s_s" % metric] = self.inclusive({"graphalg." + fn}, since)
        return out

    def chrome_trace(self, metadata: dict, body_start: float) -> dict:
        """The spans as Chrome trace-event JSON (loads in Perfetto), with an
        instant event where the timed body starts."""
        base = min([body_start] + [s[1] for s in self.spans])
        pid = os.getpid()
        events = [{"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                   "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                   "pid": pid, "tid": 1, "args": {"id": i, "parent": parent}}
                  for i, (name, t0, t1, parent) in enumerate(self.spans)]
        events.append({"name": "bench.body_start", "ph": "i", "s": "g",
                       "ts": (body_start - base) * 1e6, "pid": pid, "tid": 1})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": metadata}
