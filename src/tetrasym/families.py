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

import numpy as np

from tetrasym import extragrp
from tetrasym.cosetgraph import (CosetGraphBuild, Graph, GroupIface,
                                 VertexAction, _RowForm, build_coset_graph)
from tetrasym.permgrp import Permutation

__all__ = [
    "FamilySpec", "ExpectedProperties", "FamilyBuild",
    "wreath_graph", "praeger_xu_direct", "praeger_xu_coset",
    "gamma", "delta", "build_family",
    "second_sphere_words", "third_sphere_words", "central_block_words",
]

# Each family's parameters and their types.
_PARAMS = {"wreath": {"r": int}, "crs": {"r": int, "s": int},
           "gamma": {"t": int, "sign": str}, "delta": {"m": int}}
FAMILIES = tuple(_PARAMS)

# The size guard: a member with more vertices is built only with allow_large.
_MAX_VERTICES = 100_000
# The largest m that delta is built for (from 2); gamma's t stops at
# extragrp.MAX_T.
_DELTA_MAX_M = 3


def _check_size(what: str, n: int, allow_large: bool) -> None:
    """Refuse a member of n vertices above the size guard, unless allow_large."""
    if n > _MAX_VERTICES and not allow_large:
        raise ValueError("%s has %d vertices, above the size guard of %d: pass "
                         "--allow-large on the command line, or allow_large=True "
                         "from Python" % (what, n, _MAX_VERTICES))


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
            if key in params:
                raise ValueError("parameter %s given twice in %r" % (key, text))
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


def wreath_graph(r: int, allow_large: bool = False) -> FamilyBuild:
    """The 2r-vertex graph on fibres V_0..V_{r-1} (two vertices each) with
    every vertex of V_j joined to all of V_{j-1} and V_{j+1}, together with
    its arc-transitive action, generated by the swap x_0 of fibre V_0, the
    fibre rotation a and the fibre reflection b.  The other fibre swaps,
    x_k = x_0^(a^k), are left out of the generators: r of them would make
    the action's build quadratic in r."""
    if r < 3:
        raise ValueError("wreath graph needs r >= 3")
    n = 2 * r
    _check_size("wreath r=%d" % r, n, allow_large)
    # (v, i) is joined to both vertices of V_{v-1} and of V_{v+1}
    fibre = np.arange(n) // 2
    before, after = 2 * ((fibre - 1) % r), 2 * ((fibre + 1) % r)
    rows = np.sort(np.stack([before, before + 1, after, after + 1], axis=1), axis=1)
    graph = Graph(n, rows, lambda: ("(%d,%d)" % (v, i) for v in range(r) for i in (0, 1)))

    gens = (_wreath_perm(r, lambda v, i: (v, i ^ 1) if v == 0 else (v, i)),  # x_0
            _wreath_perm(r, lambda v, i: (v + 1, i)),                        # a
            _wreath_perm(r, lambda v, i: (-v % r, i)))                       # b
    action = VertexAction(graph, gens)
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

def praeger_xu_direct(r: int, s: int, allow_large: bool = False) -> Graph:
    """Vertices are the s-vertex paths of the wreath graph with at most one
    vertex per fibre, encoded as (start fibre j, choices eps_0..eps_{s-1});
    two paths are adjacent exactly when one extends the other's tail by one
    fibre.  Defined for 2 <= s <= r-2; s=1 is the wreath graph itself."""
    if not (s == 1 or 2 <= s <= r - 2):
        raise ValueError("direct construction needs 2 <= s <= r-2 (s=1 is "
                         "the wreath graph); coset form covers s = r-1")
    _check_size("crs r=%d,s=%d (direct)" % (r, s), r * 2 ** s, allow_large)
    if s == 1:
        return wreath_graph(r, allow_large=True).graph

    # vertex j * 2^s + eps; (j, eps) extends to (j+1, eps >> 1 | top << s-1)
    # and is extended from (j-1, (eps << 1 | bottom) mod 2^s), for top and
    # bottom in {0, 1}
    size = 1 << s
    j, eps = np.divmod(np.arange(r * size), size)
    after = (j + 1) % r * size + (eps >> 1)
    before = (j - 1) % r * size + ((eps << 1) & (size - 1))
    rows = np.sort(np.stack([after, after + size // 2, before, before + 1], axis=1),
                   axis=1)
    return Graph(r * size, rows,
                 lambda: ("(%d;%s)" % (k, format(e, "0%db" % s)[::-1])
                          for k in range(r) for e in range(size)))


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
        # crs(r, r-1) has vertex-stabilisers of order 4, too small for D4
        locally_d4=s <= r - 2,
        aut_order=aut,
        group_order=2 ** r * 2 * r,
    )


def _pair_canon(pairs, beta: Permutation):
    """min(H*x) for H = E x| <beta>, where E is generated by the commuting
    transpositions of ``pairs`` and the involution beta normalises E, over
    image rows.  Since (h*x)(i) = x(h(i)), E*x runs through every way of
    swapping the images of each pair, so its minimum sorts each pair; H*x
    is E*x together with E*(beta*x), the smaller by ``_RowForm.minimum``."""
    lo, hi = np.array(pairs).T
    beta_images = np.array(beta.images)
    minimum = _RowForm(beta.degree).minimum

    def normal(rows: np.ndarray) -> np.ndarray:
        out = rows.copy()
        out[:, lo] = np.minimum(rows[:, lo], rows[:, hi])
        out[:, hi] = np.maximum(rows[:, lo], rows[:, hi])
        return out

    def canon(rows: np.ndarray) -> np.ndarray:
        return minimum(normal(rows), normal(rows[:, beta_images]))
    return canon


def praeger_xu_coset(r: int, s: int, allow_large: bool = False) -> FamilyBuild:
    """crs(r, s) as the coset graph of (G, H, a) with G the group generated
    on the wreath-graph vertices by the fibre swaps x_i, the rotation a and
    the reflection b_s: (v,i) -> (r-s-1-v, i), and H = <x_0..x_{r-s-1}, b_s>."""
    if r < 3 or not 1 <= s <= r - 1:
        raise ValueError("need r >= 3 and 1 <= s <= r-1")
    if r - s + 1 > 10:
        raise ValueError("subgroup H of order 2^%d is beyond the closure guard"
                         % (r - s + 1))
    _check_size("crs r=%d,s=%d" % (r, s), r * 2 ** s, allow_large)
    xs = [_wreath_perm(r, lambda v, i, k=k: (v, i ^ 1) if v == k else (v, i))
          for k in range(r - s)]
    a = _wreath_perm(r, lambda v, i: (v + 1, i))
    b_s = _wreath_perm(r, lambda v, i: ((r - s - 1 - v) % r, i))

    iface = GroupIface(
        generators=tuple(xs) + (b_s,),
        identity=Permutation.identity(2 * r),
        order=2 ** r * 2 * r,
        canon=_pair_canon([(2 * k, 2 * k + 1) for k in range(r - s)], b_s),
    )
    coset = build_coset_graph(iface, a)
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
    clear, and H*g is E*g together with b*(E*g) = E*(b*g).  Works on
    int64 arrays of packed codes."""
    keep, b = ~grp.tmask, grp.b.code

    def canon(codes: np.ndarray) -> np.ndarray:
        codes = codes & keep
        return np.minimum(codes, grp.mul_codes(b, codes) & keep)
    return canon


def gamma(t: int, sign: str, allow_large: bool = False) -> FamilyBuild:
    """The coset graph of (G, H, a) over the plus- or minus-type extension
    group of order t*2^(2t+3), with H = <x_0..x_{t-1}, b>; t*2^(t+2)
    vertices and vertex-stabilisers of order 2^(t+1)."""
    if not 2 <= t <= extragrp.MAX_T:
        raise ValueError("t out of range: %d (need 2 <= t <= %d)" % (t, extragrp.MAX_T))
    _check_size("gamma t=%d" % t, t * 2 ** (t + 2), allow_large)
    grp = extragrp.extension_group(t, sign)
    iface = GroupIface(
        generators=tuple(grp.x(i) for i in range(t)) + (grp.b,),
        identity=grp.identity,
        order=grp.order,
        canon=_gamma_canon(grp),
    )
    coset = build_coset_graph(iface, grp.a)
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
    return list(dict.fromkeys(words))


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
    return list(dict.fromkeys(words))


def central_block_words(grp: extragrp.ExtensionGroup) -> list:
    """Representatives of the four cosets forming the block of imprimitivity
    that pairs each vertex with its central translate."""
    t = grp.t
    w = grp.x(t) * grp.x(2 * t - 1)
    return [grp.identity, w, grp.z, w * grp.z]


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


def delta(m: int, allow_large: bool = False) -> FamilyBuild:
    """The coset graph of (Sym(4m), H, a) with H = <x_1..x_{2m-1}, h> of
    order 2^(2m); (4m)!/2^(2m) vertices.  m=3 (7484400 vertices) is above
    the size guard, so it needs allow_large=True; it is built like m=2,
    vertex action included.  README gives the build times of both."""
    if m < 2:
        raise ValueError("delta needs m >= 2")
    if m > _DELTA_MAX_M:
        raise ValueError("delta is limited to m <= %d" % _DELTA_MAX_M)
    n = 4 * m
    _check_size("delta m=%d" % m, math.factorial(n) // 2 ** (2 * m), allow_large)
    perms = delta_permutations(m)
    iface = GroupIface(
        generators=tuple(perms["xs"]) + (perms["h"],),
        identity=Permutation.identity(n),
        order=math.factorial(n),
        canon=_pair_canon([(2 * i, 2 * i + 1) for i in range(2 * m - 1)],
                          perms["h"]),
    )
    coset = build_coset_graph(iface, perms["a"])
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


def build_family(spec: FamilySpec, allow_large: bool = False) -> FamilyBuild:
    _check_params(spec)
    if spec.family == "wreath":
        return wreath_graph(spec.get("r"), allow_large)
    if spec.family == "crs":
        return praeger_xu_coset(spec.get("r"), spec.get("s"), allow_large)
    if spec.family == "gamma":
        return gamma(spec.get("t"), spec.get("sign"), allow_large)
    return delta(spec.get("m"), allow_large)
