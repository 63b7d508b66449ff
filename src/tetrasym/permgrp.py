"""Permutation-group engine: orbits, order, membership, stabilisers,
transitivity, blocks and primitivity.

Orbits are labelled by one array routine, ``orbit_labels``: min-label
hooking with pointer jumping (Shiloach & Vishkin, *An O(log n) parallel
connectivity algorithm*, J. Algorithms 3, 1982).  Each round hooks every
class's least point to the least class a generator joins it to, then follows
the hooks to their ends.  A class joined to another merges within two
rounds (if all its neighbours hook below it, it hooks to them next), so an
orbit of n points takes O(log n) rounds of O(log n) jumps, each a few
gathers per generator.  A group labels its points once and keeps the
labels, which its orbits, the orbit of a point, its transitivity and the
graph checks (girth's roots, the arc certificate) all read; the arc orbit
labels the arcs with the same routine.  The chain grows its basic orbits by
a BFS instead, because its Schreier vectors need the BFS tree.
``PermGroup.min_block`` keeps Atkinson's union-find: its merges cascade one
pair at a time, which array rounds do slowly.

Group data is computed through a deterministic (non-randomised)
Schreier-Sims stabiliser chain so that any failure reproduces
bit-for-bit across runs.

Each level of the chain keeps its basic orbit as a Schreier vector, q ->
(p, i) with q the image of p under the level's i-th generator.  A
transversal element u_q, and its inverse, is built only when asked for, by
tracing the vector back to the base point, and kept once built; so a level
costs O(degree) memory plus the elements the run has used, not O(degree)
per orbit point (Seress, *Permutation Group Algorithms*, CUP 2003, §4.1).

Known-order stop (Seress §4.5; Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005, §4.4).  A group may be given an upper
bound on its order; its chain then stops as soon as the product of the basic
orbit lengths equals the bound, and raises ValueError if the product goes
above it.  The stop is exact: each partial basic orbit lies inside the true
one, so the product is at most |G|, which is at most the bound; when the
product equals the bound every inclusion is an equality and the chain is a
complete base and strong generating set, so order, membership, point
stabilisers and enumeration are exact.  A bound that is never reached (an
action that is not faithful, say) leaves the run to complete as without
one.  A bound must be a true upper bound: one below |G| that equals some
partial product would stop the run early.  The coset-graph builder supplies
the bound for its vertex actions: it certifies |<H, a>| = |G| by reaching
all |G|/|H| cosets, and the action is a homomorphic image of <H, a>.

Base at the least moved point.  A chain given no base starts it at the
least point that some generator moves, which is vertex 0 of a transitive
action.  In a coset action H fixes vertex 0, so H's generators build the
levels below the first by themselves; the run works from the deepest level
up, their chain brings the product to n·|H| = |G|, and the known-order stop
ends the run before any Schreier generator of the first level is sifted.
A complete chain also gives its point stabilisers an exact order,
|G_x| = |G| / |b^G| for x in the first basic orbit; for any other x a second
chain is based at x and gives |G_x| the same way (see ``point_stabiliser``).
"""

from __future__ import annotations

import threading
from math import lcm

import numpy as np

__all__ = ["Permutation", "PermGroup", "orbit_labels", "mul_rows", "row_keys",
           "min_rows"]


class Permutation:
    """An immutable bijection on {0..n-1}, stored as its image tuple.

    Composition convention, fixed project-wide: ``(p * q)(x) == q(p(x))``,
    i.e. the left factor acts first.  With this convention conjugation reads
    ``p.conjugate(g) == g.inverse() * p * g`` and matches the usual
    right-action notation x^g.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        n = len(images)
        seen = bytearray(n)
        for x in images:
            if not 0 <= x < n or seen[x]:
                raise ValueError("not a permutation of 0..%d: %r" % (n - 1, images))
            seen[x] = 1
        object.__setattr__(self, "images", images)

    @classmethod
    def _unchecked(cls, images: tuple) -> "Permutation":
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._unchecked(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        images = list(range(n))
        for cyc in cycles:
            cyc = [int(x) for x in cyc]
            for x in cyc:
                if not 0 <= x < n:
                    raise ValueError("cycle point %d out of range 0..%d" % (x, n - 1))
            if len(set(cyc)) != len(cyc):
                raise ValueError("repeated point in cycle %r" % (cyc,))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __array__(self, dtype=None, copy=None):
        """The image array: ``np.asarray(p, np.int32)`` is how groups,
        actions and graphs take a Permutation as a vertex map."""
        return np.array(self.images, dtype=dtype)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(x) == q(p(x)): apply self first, then other.
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        q = other.images
        return Permutation._unchecked(tuple(q[x] for x in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation._unchecked(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self, g: "Permutation") -> "Permutation":
        """x^g in right-action notation: g.inverse() * self * g."""
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self):
        """Non-trivial cycles, each starting at its smallest point."""
        seen = bytearray(self.degree)
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                continue
            cyc = [i]
            seen[i] = 1
            j = self.images[i]
            while j != i:
                seen[j] = 1
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycs)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __lt__(self, other):
        # Fixed total order on elements: lexicographic on the image tuple.
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r)" % (list(self.images),)

    def __str__(self):
        return self.cycle_string()


# ---------------------------------------------------------------------------
# Array form: permutations on at most 256 points as unsigned-byte image rows,
# whose bytes compare in the order Permutation.__lt__ compares image tuples
# ---------------------------------------------------------------------------

def mul_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise products p*q, (p*q)(x) == q(p(x)), as gathers; either factor
    may be a single row."""
    if q.ndim == 1:
        return q[p]
    if p.ndim == 1:
        return q[:, p]
    return np.take_along_axis(q, p, axis=1)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row, ordered and compared as the rows: numpy sorts,
    searches and compares them bytewise."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def min_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The lexicographically smaller row of each pair a[i], b[i]."""
    first = (a != b).argmax(axis=1)
    at = np.arange(len(a))
    return np.where((a[at, first] < b[at, first])[:, None], a, b)


# ---------------------------------------------------------------------------
# Orbit labels over int image arrays
# ---------------------------------------------------------------------------

def orbit_labels(gens: list, degree: int) -> np.ndarray:
    """The least point of each point's orbit under the group generated by
    gens (int image arrays on 0..degree-1), as an int64 array.

    label[x] is the least point of x's class, every class starting as one
    point.  Each round hooks every class's least point to the least label
    that some generator joins the class to, follows the hooks to their ends
    (root = root[root] until stable) and relabels, until no label changes.
    Hooks only point down, so they cannot cycle.  The generators are taken
    one at a time, so the round holds a few arrays of degree points."""
    label = np.arange(degree, dtype=np.int64)
    while True:
        root = label.copy()
        for g in gens:
            image = label[g]
            np.minimum.at(root, np.maximum(label, image), np.minimum(label, image))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        relabelled = root[label]
        if np.array_equal(relabelled, label):
            return label
        label = relabelled


# ---------------------------------------------------------------------------
# Stabiliser chain (deterministic Schreier-Sims)
# ---------------------------------------------------------------------------

def _compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # apply p first, then q
    return np.take(q, p)


def _invert(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


class _Level:
    """One level of the chain: a base point, the strong generators that fix
    the earlier base points, and the basic orbit as a Schreier vector."""

    __slots__ = ("point", "gens", "orbit", "sv", "_u", "_u_inv", "done",
                 "cursor")

    def __init__(self, point: int, identity: np.ndarray):
        self.point = point
        self.gens: list[np.ndarray] = []
        self.orbit = np.array([point])  # in discovery order
        # Schreier vector: sv[q] = (p, i) with q = gens[i](p), so that
        # u_q = u_p * gens[i]; (-1, -1) off the orbit, (point, -1) at the
        # base point.  So q lies in the orbit exactly when sv[q, 0] >= 0.
        self.sv = np.full((len(identity), 2), -1, dtype=np.int32)
        self.sv[point, 0] = point
        self._u = {point: identity}  # the transversal elements built so far
        self._u_inv = {point: identity}
        # done[k]: how many generators have been paired with orbit[k]
        # as Schreier generators; cursor: the first point with one left.
        self.done = [0]
        self.cursor = 0

    def __contains__(self, q: int) -> bool:
        return bool(self.sv[q, 0] >= 0)

    def add_gen(self, g: np.ndarray):
        """Append g and close the orbit, extend-only: Schreier-vector
        entries are never rewritten, which keeps already-processed Schreier
        pairs valid.  The old orbit was closed under the old generators, so
        it is probed with g alone, then the new points with every
        generator, one BFS level at a time.  New points are appended in
        (discoverer, generator) order, as a one-point-at-a-time BFS would."""
        self.gens.append(g)
        self.cursor = 0
        frontier = self._grow(self.orbit, [g], len(self.gens) - 1)
        while len(frontier):
            frontier = self._grow(frontier, self.gens, 0)
        self.done.extend([0] * (len(self.orbit) - len(self.done)))

    def _grow(self, points: np.ndarray, gens: list, first: int) -> np.ndarray:
        """Append the images of points under gens (numbered from first) that
        are not yet in the orbit; returns them."""
        images = np.stack([np.take(g, points) for g in gens], axis=1).ravel()
        fresh = np.flatnonzero(self.sv[images, 0] < 0)
        # each new point once, at its first place in the point-major
        # (point, generator) image array
        _, once = np.unique(images[fresh], return_index=True)
        at = fresh[np.sort(once)]
        new = images[at]
        self.sv[new, 0] = points[at // len(gens)]
        self.sv[new, 1] = first + at % len(gens)
        self.orbit = np.concatenate((self.orbit, new))
        return new

    def u(self, q: int) -> np.ndarray:
        """The transversal element mapping the base point to q, built by
        tracing the Schreier vector back to the nearest element built."""
        path = []
        while q not in self._u:
            p, gi = self.sv[q].tolist()
            path.append((q, gi))
            q = p
        up = self._u[q]
        for q, gi in reversed(path):
            up = self._u[q] = _compose(up, self.gens[gi])
        return up

    def u_inv(self, q: int) -> np.ndarray:
        inv = self._u_inv.get(q)
        if inv is None:
            inv = self._u_inv[q] = _invert(self.u(q))
        return inv


class _StabChain:
    """A deterministic Schreier-Sims chain of <gens>, its base starting
    with ``base_prefix`` or, if that is empty, the least moved point.

    With ``bound`` (an upper bound on |<gens>|) the run stops as soon as the
    product of the basic orbit lengths reaches it, and raises if the product
    goes above it; see the module docstring."""

    def __init__(self, degree: int, gens: list[np.ndarray], base_prefix=(),
                 bound: int | None = None):
        self.degree = degree
        self.bound = bound
        self.identity = np.arange(degree, dtype=np.int32)
        self.levels: list[_Level] = [_Level(b, self.identity) for b in base_prefix]
        gens = [g for g in gens if not self._is_id(g)]
        if not self.levels and gens:
            # the least moved point: vertex 0 of a transitive action
            first = min(int(np.argmax(g != self.identity)) for g in gens)
            self.levels.append(_Level(first, self.identity))
        for g in gens:
            self._insert_gen(g, 0)
        self._run()

    def _is_id(self, g: np.ndarray) -> bool:
        return bool((g == self.identity).all())

    def _insert_gen(self, g: np.ndarray, lo: int):
        """Add strong generator g to levels lo..j, j the first base point moved."""
        j = None
        for k in range(lo, len(self.levels)):
            if g[self.levels[k].point] != self.levels[k].point:
                j = k
                break
        if j is None:
            moved = int(np.nonzero(g != self.identity)[0][0])
            self.levels.append(_Level(moved, self.identity))
            j = len(self.levels) - 1
        for k in range(lo, j + 1):
            self.levels[k].add_gen(g)
        return j

    def _strip(self, g: np.ndarray, start: int):
        """Sift g through levels start.., returning (residue, stuck_level)."""
        for k in range(start, len(self.levels)):
            lv = self.levels[k]
            beta = int(g[lv.point])
            if beta == lv.point:
                continue
            if beta not in lv:
                return g, k
            g = _compose(g, lv.u_inv(beta))
        return g, len(self.levels)

    def _complete(self) -> bool:
        """True once the orbit product reaches the bound: then the chain is
        a complete base and strong generating set."""
        if self.bound is None:
            return False
        product = self.order()
        if product > self.bound:
            raise ValueError("stabiliser chain reached order %d, above the "
                             "bound %d" % (product, self.bound))
        return product == self.bound

    def _run(self):
        i = len(self.levels) - 1
        while not self._complete() and i >= 0:
            found = self._process_level(i)
            if found is None:
                i -= 1
                continue
            h, j_stuck = found
            if j_stuck == len(self.levels):
                moved = int(np.nonzero(h != self.identity)[0][0])
                self.levels.append(_Level(moved, self.identity))
            i = self._insert_gen(h, i + 1)

    def _process_level(self, i: int):
        """Sift the Schreier generators u_p * s * u_q^-1 of level i, in orbit
        then generator order, until one leaves a non-identity residue."""
        lv = self.levels[i]
        gens, done = lv.gens, lv.done
        while lv.cursor < len(lv.orbit):
            k = lv.cursor
            p = int(lv.orbit[k])
            while done[k] < len(gens):
                gi = done[k]
                done[k] += 1
                s = gens[gi]
                q = int(s[p])
                if lv.sv[q].tolist() == [p, gi]:
                    continue  # u_q = u_p * s: a trivial Schreier generator
                residue, j = self._strip(
                    _compose(_compose(lv.u(p), s), lv.u_inv(q)), i + 1)
                if not self._is_id(residue):
                    return residue, j
            lv.cursor += 1
        return None

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.orbit)
        return n

    def contains(self, g: np.ndarray) -> bool:
        residue, _ = self._strip(g, 0)
        return self._is_id(residue)

    def strong_gens_fixing_prefix(self, k: int) -> list[np.ndarray]:
        """Strong generators of the stabiliser of the first k base points,
        in order of first appearance.  ``_insert_gen`` appends one array
        object to every level that holds it, so identity deduplicates."""
        return list({id(g): g for lv in self.levels[k:] for g in lv.gens}.values())

    def iter_elements(self):
        """Every group element exactly once (products along the chain)."""

        def rec(k: int):
            if k == len(self.levels):
                yield self.identity
                return
            lv = self.levels[k]
            for h in rec(k + 1):
                for p in lv.orbit.tolist():
                    yield _compose(h, lv.u(p))

        return rec(0)


class PermGroup:
    """Group generated by a set of permutations of {0..degree-1}.

    The generators may be given as int image arrays or as Permutation
    objects (taken as bijections without a check; ``VertexAction`` checks
    its own).  The group keeps them as int32 arrays (``arrays()``).
    ``order_bound``, when given, is an upper bound on the group's order: the
    chain stops once it reaches it (see the module docstring).
    The stabiliser-chain data is built lazily, at most once, behind a lock;
    after that the group is safe to share between threads.
    """

    def __init__(self, generators, degree: int | None = None,
                 order_bound: int | None = None):
        arrays = [np.asarray(g, dtype=np.int32) for g in generators]
        if degree is None:
            if not arrays:
                raise ValueError("degree required for an empty generating set")
            degree = len(arrays[0])
        for g in arrays:
            if len(g) != degree:
                raise ValueError("degree mismatch: %d vs %d" % (len(g), degree))
        self.degree = degree
        self._arrays = arrays
        self.order_bound = order_bound
        self._chain: _StabChain | None = None
        self._labels: np.ndarray | None = None
        self._lock = threading.Lock()

    def __repr__(self):
        return "PermGroup(degree=%d, ngens=%d)" % (self.degree, len(self._arrays))

    def arrays(self) -> list[np.ndarray]:
        """The generators as int32 image arrays; callers must not write to
        them."""
        return self._arrays

    @property
    def chain(self) -> _StabChain:
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    self._chain = _StabChain(self.degree, self.arrays(),
                                             bound=self.order_bound)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, p) -> bool:
        """Membership of p, an int image array or a Permutation."""
        g = np.asarray(p, dtype=np.int32)
        if len(g) != self.degree:
            raise ValueError("degree mismatch: %d vs %d" % (len(g), self.degree))
        return self.chain.contains(g)

    def __contains__(self, p) -> bool:
        return self.contains(p)

    def orbit_labels(self) -> np.ndarray:
        """The least point of each point's orbit, as a read-only int64
        array, labelled on the first call and then kept: the group's
        orbits, its transitivity and the graph checks share one labelling.
        Two threads that make the first call together each label the
        orbits and keep the same array."""
        if self._labels is None:
            labels = orbit_labels(self.arrays(), self.degree)
            labels.flags.writeable = False
            self._labels = labels
        return self._labels

    def orbit(self, x: int) -> set:
        """The orbit of point x."""
        if not 0 <= x < self.degree:
            raise ValueError("point %d out of range" % x)
        label = self.orbit_labels()
        return set(np.flatnonzero(label == label[x]).tolist())

    def orbits(self) -> list[set]:
        """The orbits, ordered by their least points."""
        if not self.degree:
            return []
        label = self.orbit_labels()
        order = np.argsort(label, kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), self.degree]
        order = order.tolist()
        return [set(order[a:b]) for a, b in zip(cuts, cuts[1:])]

    def is_transitive(self) -> bool:
        """True iff every point lies in the orbit of point 0."""
        return self.degree > 0 and not self.orbit_labels().any()

    def point_stabiliser(self, x: int) -> "PermGroup":
        """The stabiliser of x, read off a complete chain whose first basic
        orbit holds x: this group's own chain, or, for x outside its first
        basic orbit, a second chain with base starting at x, bounded by the
        first chain's (exact) order.

        G_x = u^-1 G_b u, where b is the chain's first base point and u the
        transversal element mapping b to x (Seress, *Permutation Group
        Algorithms*, 2003): the strong generators fixing b are conjugated
        by u (u is the identity when x = b), and the stabiliser is bounded
        by its exact order |G| / |b^G|, since the chain is complete.  Its
        own chain must still reach that bound from the conjugated
        generators; had they generated less, it would complete and report
        the smaller order.  When every generator fixes x the stabiliser is
        the whole group.
        """
        if not 0 <= x < self.degree:
            raise ValueError("point %d out of range" % x)
        if all(g[x] == x for g in self._arrays):
            return self
        chain = self.chain
        if x not in chain.levels[0]:
            chain = _StabChain(self.degree, self.arrays(), (x,), bound=chain.order())
        top = chain.levels[0]
        arrays = chain.strong_gens_fixing_prefix(1)
        if x != top.point:
            u, u_inv = top.u(x), top.u_inv(x)
            arrays = [_compose(_compose(u_inv, s), u) for s in arrays]
        return PermGroup(arrays, degree=self.degree,
                         order_bound=chain.order() // len(top.orbit))

    def is_primitive(self) -> bool:
        """True iff the (transitive) action admits no nontrivial block system.

        Runs the minimal-block search seeded by every pair {0, x}; primitive
        iff each seed generates the trivial one-block system.
        """
        if not self.is_transitive():
            raise ValueError("primitivity is only defined for transitive groups")
        if self.degree <= 2:
            return True
        for x in range(1, self.degree):
            if len(self.min_block((0, x))) < self.degree:
                return False
        return True

    def min_block(self, points) -> frozenset:
        """The smallest block of imprimitivity containing all the points
        (Atkinson's union-find refinement, Math. Comp. 29, 1975, seeded by
        uniting every point with the first)."""
        points = list(points)
        if not points:
            raise ValueError("empty point set")
        for x in points:
            if not 0 <= x < self.degree:
                raise ValueError("point %d out of range" % x)
        parent = list(range(self.degree))

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        def union(u, v):
            # A merged pair is queued: every generator must map it into one
            # class as well.
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
                queue.append((ru, rv))

        queue: list = []
        for x in points[1:]:
            union(points[0], x)
        gens = [g.tolist() for g in self._arrays]
        while queue:
            u, v = queue.pop()
            for g in gens:
                union(g[u], g[v])
        root = find(points[0])
        return frozenset(u for u in range(self.degree) if find(u) == root)

    def elements(self, cap: int = 10 ** 6) -> list[Permutation]:
        """All group elements; refuses when the order exceeds cap."""
        n = self.order()
        if n > cap:
            raise ValueError("group too large to enumerate: %d > %d" % (n, cap))
        out = [Permutation._unchecked(tuple(arr.tolist()))
               for arr in self.chain.iter_elements()]
        assert len(out) == n
        return out
