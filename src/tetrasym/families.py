"""Constructors for the four graph families, each bundled with the
expected-property table that the verification layer checks the built graph
against (never the other way around).

The Praeger-Xu graphs crs(r, s) are built two independent ways — a direct
path-on-fibres construction and a coset-graph construction — so each can
serve as an oracle for the other.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from tetrasym import extragrp
from tetrasym.cosetgraph import (CosetGraphBuild, Graph, GroupIface,
                                 VertexAction, build_coset_graph,
                                 check_vertex_guard)
from tetrasym.permgrp import Permutation

__all__ = [
    "FamilySpec", "ExpectedProperties", "FamilyBuild",
    "wreath_graph", "praeger_xu_direct", "praeger_xu_coset",
    "gamma", "delta", "build_family",
    "first_sphere_words", "second_sphere_words", "third_sphere_words",
    "central_block_words",
]

# Each family's parameters and their types.
_PARAMS = {"wreath": {"r": int}, "crs": {"r": int, "s": int},
           "gamma": {"t": int, "sign": str}, "delta": {"m": int}}
FAMILIES = tuple(_PARAMS)

# Construction limits without the explicit large-build opt-in.
_GAMMA_DEFAULT_MAX_T = 6
_GAMMA_HARD_MAX_T = 10
_DELTA_DEFAULT_MAX_M = 2
_DELTA_HARD_MAX_M = 3
_LARGE_MEMBER = ("%s is above the default size guard: pass --allow-large on the "
                 "command line, or allow_large=True from Python")


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer/str parameters, e.g. gamma:t=3,sign=minus."""

    family: str
    params: tuple  # sorted (key, value) pairs

    @classmethod
    def make(cls, family: str, **params) -> "FamilySpec":
        return cls(family, tuple(sorted(params.items())))

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        m = re.fullmatch(r"(\w+):([\w=,+-]+)", text.strip())
        if not m:
            raise ValueError("cannot parse family spec %r "
                             "(expected e.g. 'crs:r=6,s=3')" % text)
        family, body = m.group(1), m.group(2)
        if family not in FAMILIES:
            raise ValueError("unknown family %r (choose from %s)"
                             % (family, ", ".join(FAMILIES)))
        params = {}
        for item in body.split(","):
            if "=" not in item:
                raise ValueError("bad parameter %r in %r" % (item, text))
            key, val = item.split("=", 1)
            params[key] = int(val) if re.fullmatch(r"-?\d+", val) else val
        return cls.make(family, **params)

    def get(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def __str__(self):
        return "%s:%s" % (self.family,
                          ",".join("%s=%s" % kv for kv in self.params))


@dataclass(frozen=True)
class ExpectedProperties:
    """Property table a constructed family member is expected to satisfy.
    None entries are not asserted; the verifier computes and reports them."""

    vertex_count: int
    stabiliser_order: int
    girth: int | None
    bipartite: bool | None
    locally_d4: bool
    aut_order: int | None = None
    group_order: int | None = None


@dataclass
class FamilyBuild:
    spec: FamilySpec
    graph: Graph
    action: VertexAction
    expected: ExpectedProperties
    coset: CosetGraphBuild | None = None
    group: object = None  # the extragrp.ExtensionGroup for gamma members


# ---------------------------------------------------------------------------
# wreath graphs
# ---------------------------------------------------------------------------

def _wreath_vertex(r: int, v: int, i: int) -> int:
    return 2 * (v % r) + i


def _wreath_perm(r: int, fn) -> Permutation:
    """The permutation of the wreath-graph vertices sending (v, i) to fn(v, i)."""
    images = [0] * (2 * r)
    for v in range(r):
        for i in (0, 1):
            w, j = fn(v, i)
            images[_wreath_vertex(r, v, i)] = _wreath_vertex(r, w, j)
    return Permutation(images)


def wreath_graph(r: int, max_vertices: int | None = None) -> FamilyBuild:
    """The 2r-vertex graph on fibres V_0..V_{r-1} (two vertices each) with
    every vertex of V_j joined to all of V_{j-1} and V_{j+1}, together with
    its arc-transitive action: fibre swaps x_0..x_{r-1}, the fibre rotation
    a and the fibre reflection b."""
    if r < 3:
        raise ValueError("wreath graph needs r >= 3")
    n = 2 * r
    check_vertex_guard("wreath graph", n, max_vertices)
    edges = []
    for v in range(r):
        for i in (0, 1):
            for j in (0, 1):
                edges.append((_wreath_vertex(r, v, i), _wreath_vertex(r, v + 1, j)))
    labels = tuple("(%d,%d)" % (v, i) for v in range(r) for i in (0, 1))
    graph = Graph.from_edges(n, edges, labels)
    assert graph.is_regular(4)

    gens = [_wreath_perm(r, lambda v, i, k=k: (v, i ^ 1) if v == k else (v, i))
            for k in range(r)]
    gens.append(_wreath_perm(r, lambda v, i: (v + 1, i)))      # a
    gens.append(_wreath_perm(r, lambda v, i: (-v % r, i)))     # b
    action = VertexAction(graph, tuple(gens))
    expected = ExpectedProperties(
        vertex_count=n,
        stabiliser_order=2 ** r,
        girth=4 if r >= 4 else None,
        bipartite=True if r % 2 == 0 else None,
        locally_d4=True,
        aut_order=1152 if r == 4 else 2 ** r * 2 * r,
        group_order=2 ** r * 2 * r,
    )
    return FamilyBuild(FamilySpec.make("wreath", r=r), graph, action, expected)


# ---------------------------------------------------------------------------
# Praeger-Xu graphs crs(r, s)
# ---------------------------------------------------------------------------

def praeger_xu_direct(r: int, s: int) -> Graph:
    """Vertices are the s-vertex paths of the wreath graph with at most one
    vertex per fibre, encoded as (start fibre j, choices eps_0..eps_{s-1});
    two paths are adjacent exactly when one extends the other's tail by one
    fibre.  Defined for 2 <= s <= r-2; s=1 is the wreath graph itself."""
    if s == 1:
        return wreath_graph(r).graph
    if not (2 <= s <= r - 2):
        raise ValueError("direct construction needs 2 <= s <= r-2 (s=1 is "
                         "the wreath graph); coset form covers s = r-1")

    def vid(j, eps):
        return j * (1 << s) + eps

    edges = []
    for j in range(r):
        for eps in range(1 << s):
            tail = eps >> 1
            for top in (0, 1):
                edges.append((vid(j, eps), vid((j + 1) % r, tail | (top << (s - 1)))))
    labels = tuple("(%d;%s)" % (j, format(eps, "0%db" % s)[::-1])
                   for j in range(r) for eps in range(1 << s))
    graph = Graph.from_edges(r * (1 << s), edges, labels)
    assert graph.is_regular(4)
    return graph


def _crs_expected(r: int, s: int) -> ExpectedProperties:
    if r == 4:
        aut = {1: 1152, 2: 384, 3: 256}[s]
    else:
        aut = 2 ** r * 2 * r
    return ExpectedProperties(
        vertex_count=r * 2 ** s,
        stabiliser_order=2 ** (r - s + 1),
        girth=4 if r >= 4 else None,
        bipartite=True if r % 2 == 0 else None,
        locally_d4=True,
        aut_order=aut,
        group_order=2 ** r * 2 * r,
    )


def _pair_canon(pairs, beta: Permutation):
    """min(H*x) for H = E x| <beta>, where E is generated by the commuting
    transpositions of ``pairs`` and the involution beta normalises E.  Since
    (h*x)(i) = x(h(i)), E*x runs through every way of swapping the images of
    each pair, so its minimum sorts each pair; H*x is E*x together with
    E*(beta*x)."""
    def normal(x: Permutation) -> tuple:
        images = list(x.images)
        for i, j in pairs:
            if images[i] > images[j]:
                images[i], images[j] = images[j], images[i]
        return tuple(images)

    def canon(x: Permutation) -> Permutation:
        return Permutation._unchecked(min(normal(x), normal(beta * x)))
    return canon


def praeger_xu_coset(r: int, s: int, max_vertices: int | None = None) -> FamilyBuild:
    """crs(r, s) as the coset graph of (G, H, a) with G the group generated
    on the wreath-graph vertices by the fibre swaps x_i, the rotation a and
    the reflection b_s: (v,i) -> (r-s-1-v, i), and H = <x_0..x_{r-s-1}, b_s>."""
    if r < 3 or not 1 <= s <= r - 1:
        raise ValueError("need r >= 3 and 1 <= s <= r-1")
    if r - s + 1 > 10:
        raise ValueError("subgroup H of order 2^%d is beyond the closure guard"
                         % (r - s + 1))
    xs = [_wreath_perm(r, lambda v, i, k=k: (v, i ^ 1) if v == k else (v, i))
          for k in range(r - s)]
    a = _wreath_perm(r, lambda v, i: (v + 1, i))
    b_s = _wreath_perm(r, lambda v, i: ((r - s - 1 - v) % r, i))

    iface = GroupIface(
        generators=tuple(xs) + (b_s,),
        identity=Permutation.identity(2 * r),
        order=2 ** r * 2 * r,
        label=lambda p: p.cycle_string(),
        canon=_pair_canon([(2 * k, 2 * k + 1) for k in range(r - s)], b_s),
    )
    coset = build_coset_graph(iface, a, max_vertices=max_vertices)
    return FamilyBuild(FamilySpec.make("crs", r=r, s=s), coset.graph,
                       coset.action, _crs_expected(r, s), coset=coset)


# ---------------------------------------------------------------------------
# gamma graphs (coset graphs over the extraspecial extensions)
# ---------------------------------------------------------------------------

def _gamma_girth(t: int, sign: str) -> int:
    if t == 2 and sign == extragrp.PLUS:
        return 4
    if t == 3 and sign == extragrp.PLUS:
        return 6
    return 8


def _gamma_aut(t: int, sign: str) -> int:
    order = t * 2 ** (2 * t + 3)
    if t == 2 and sign == extragrp.MINUS:
        return 9 * order
    return order


def _gamma_canon(grp: extragrp.ExtensionGroup):
    """min(H*g) for H = E x| <b> with E = <x_0..x_{t-1}>: left
    multiplication by E flips the low t bits of the packed code (the z cross
    term needs x_{t..2t-1} on the left), so E*g is least with those bits
    clear, and H*g is E*g together with b*(E*g) = E*(b*g)."""
    keep, b = ~grp.tmask, grp.b.code

    def canon(g: extragrp.GElt) -> extragrp.GElt:
        code = g.code & keep
        return extragrp.GElt(grp, min(code, grp.mul_code(b, code) & keep))
    return canon


def gamma(t: int, sign: str, allow_large: bool = False,
          max_vertices: int | None = None) -> FamilyBuild:
    """The coset graph of (G, H, a) over the plus- or minus-type extension
    group of order t*2^(2t+3), with H = <x_0..x_{t-1}, b>; t*2^(t+2)
    vertices and vertex-stabilisers of order 2^(t+1)."""
    if not 2 <= t <= _GAMMA_HARD_MAX_T:
        raise ValueError("t out of range: %d" % t)
    if t > _GAMMA_DEFAULT_MAX_T and not allow_large:
        raise ValueError(_LARGE_MEMBER % ("gamma t=%d" % t))
    grp = extragrp.extension_group(t, sign)
    iface = GroupIface(
        generators=tuple(grp.x(i) for i in range(t)) + (grp.b,),
        identity=grp.identity,
        order=grp.order,
        label=lambda g: g.word(),
        canon=_gamma_canon(grp),
    )
    coset = build_coset_graph(iface, grp.a, max_vertices=max_vertices)
    expected = ExpectedProperties(
        vertex_count=t * 2 ** (t + 2),
        stabiliser_order=2 ** (t + 1),
        girth=_gamma_girth(t, sign),
        bipartite=True,
        locally_d4=True,
        aut_order=_gamma_aut(t, sign),
        group_order=grp.order,
    )
    return FamilyBuild(FamilySpec.make("gamma", t=t, sign=sign), coset.graph,
                       coset.action, expected, coset=coset, group=grp)


def first_sphere_words(grp: extragrp.ExtensionGroup) -> list:
    """The four coset representatives of the base vertex's neighbours."""
    t, a = grp.t, grp.a
    ai = a.inverse()
    return [a, grp.x(2 * t - 1) * a, ai, grp.x(t) * ai]


def second_sphere_words(grp: extragrp.ExtensionGroup) -> list:
    """Distance-two transversal words (12 distinct elements for t >= 3 and
    for the t=2 minus group)."""
    t, a, z = grp.t, grp.a, grp.z
    x = grp.x
    ai = a.inverse()
    words = []
    for e1 in (0, 1):
        for e2 in (0, 1):
            words.append(x(2 * t - 2) ** e1 * x(2 * t - 1) ** e2 * a * a)
    for e1 in (0, 1):
        for e2 in (0, 1):
            words.append(x(t) ** e1 * x(t + 1) ** e2 * ai * ai)
    words += [x(t), x(t) * z, x(2 * t - 1), x(2 * t - 1) * z]
    return _dedupe(words)


def third_sphere_words(grp: extragrp.ExtensionGroup) -> list:
    """Distance-three transversal words (36 distinct elements for t >= 3)."""
    t, a, z = grp.t, grp.a, grp.z
    x = grp.x
    ai = a.inverse()
    words = []
    for e1 in (0, 1):
        for e2 in (0, 1):
            for e3 in (0, 1):
                words.append(x(2 * t - 3) ** e1 * x(2 * t - 2) ** e2
                             * x(2 * t - 1) ** e3 * a ** 3)
                words.append(x(t) ** e1 * x(t + 1) ** e2 * x((t + 2) % (2 * t)) ** e3
                             * ai ** 3)
                words.append(x(t) ** e1 * x(2 * t - 1) ** e2 * z ** e3 * a)
                words.append(x(t) ** e1 * x(t + 1) ** e2 * z ** e3 * ai)
    for e1 in (0, 1):
        for e2 in (0, 1):
            words.append(x(2 * t - 2) * x(2 * t - 1) ** e1 * z ** e2 * a)
            words.append(x(t) ** e1 * x(2 * t - 1) * z ** e2 * a)
    return _dedupe(words)


def central_block_words(grp: extragrp.ExtensionGroup) -> list:
    """Representatives of the four cosets forming the block of imprimitivity
    that pairs each vertex with its central translate."""
    t = grp.t
    w = grp.x(t) * grp.x(2 * t - 1)
    return [grp.identity, w, grp.z, w * grp.z]


def _dedupe(words: list) -> list:
    out = []
    seen = set()
    for w in words:
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# delta graphs (coset graphs over the full symmetric group)
# ---------------------------------------------------------------------------

def delta_permutations(m: int) -> dict:
    """The defining permutations on 4m points, shifted to 0-based:
    x_i = (2i-2, 2i-1), the involutions h and a, and g = a*h."""
    n = 4 * m
    xs = [Permutation.from_cycles(n, [(2 * i - 2, 2 * i - 1)])
          for i in range(1, 2 * m)]
    h_cycles = [(n - 2, n - 1)]
    a_cycles = [(n - 3, n - 1)]
    for i in range(1, m):
        h_cycles += [(2 * i - 2, n - 2 * i - 2), (2 * i - 1, n - 2 * i - 1)]
        a_cycles += [(2 * i - 2, n - 2 * i - 4), (2 * i - 1, n - 2 * i - 3)]
    h = Permutation.from_cycles(n, h_cycles)
    a = Permutation.from_cycles(n, a_cycles)
    return {"xs": xs, "h": h, "a": a, "g": a * h}


def delta(m: int, allow_large: bool = False,
          max_vertices: int | None = None) -> FamilyBuild:
    """The coset graph of (Sym(4m), H, a) with H = <x_1..x_{2m-1}, h> of
    order 2^(2m); (4m)!/2^(2m) vertices.  m=3 (7484400 vertices) requires
    allow_large=True and is built like m=2, vertex action included, but in
    pure Python that takes about a quarter of an hour and several GB."""
    if m < 2:
        raise ValueError("delta needs m >= 2")
    if m > _DELTA_HARD_MAX_M:
        raise ValueError("delta is limited to m <= %d" % _DELTA_HARD_MAX_M)
    if m > _DELTA_DEFAULT_MAX_M and not allow_large:
        raise ValueError(_LARGE_MEMBER % ("delta m=%d" % m))
    n = 4 * m
    if max_vertices is None and allow_large:
        max_vertices = math.factorial(n) // 2 ** (2 * m)
    perms = delta_permutations(m)
    iface = GroupIface(
        generators=tuple(perms["xs"]) + (perms["h"],),
        identity=Permutation.identity(n),
        order=math.factorial(n),
        label=lambda p: p.cycle_string(),
        canon=_pair_canon([(2 * i, 2 * i + 1) for i in range(2 * m - 1)],
                          perms["h"]),
    )
    coset = build_coset_graph(iface, perms["a"], max_vertices=max_vertices)
    expected = ExpectedProperties(
        vertex_count=math.factorial(n) // 2 ** (2 * m),
        stabiliser_order=2 ** (2 * m),
        girth=None,
        bipartite=False,
        locally_d4=True,
        aut_order=None,
        group_order=math.factorial(n),
    )
    return FamilyBuild(FamilySpec.make("delta", m=m), coset.graph,
                       coset.action, expected, coset=coset)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _check_params(spec: FamilySpec) -> None:
    """Reject a spec whose parameter names or types differ from its
    family's _PARAMS entry."""
    if spec.family not in _PARAMS:
        raise ValueError("unknown family %r (choose from %s)"
                         % (spec.family, ", ".join(FAMILIES)))
    types = _PARAMS[spec.family]
    given = dict(spec.params)
    if given.keys() != types.keys():
        raise ValueError("family %s takes parameters %s, got %s"
                         % (spec.family, ", ".join(types),
                            ", ".join(sorted(given)) or "none"))
    for key, typ in types.items():
        if not isinstance(given[key], typ):
            raise ValueError("parameter %s=%s of family %s must be %s"
                             % (key, given[key], spec.family,
                                "an integer" if typ is int else "a name"))


def build_family(spec: FamilySpec, allow_large: bool = False,
                 max_vertices: int | None = None) -> FamilyBuild:
    _check_params(spec)
    if spec.family == "wreath":
        return wreath_graph(spec.get("r"), max_vertices=max_vertices)
    if spec.family == "crs":
        return praeger_xu_coset(spec.get("r"), spec.get("s"),
                                max_vertices=max_vertices)
    if spec.family == "gamma":
        return gamma(spec.get("t"), spec.get("sign"),
                     allow_large=allow_large, max_vertices=max_vertices)
    return delta(spec.get("m"), allow_large=allow_large, max_vertices=max_vertices)
