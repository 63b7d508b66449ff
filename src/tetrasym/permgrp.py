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
labels, which its transitivity and the
graph checks (girth's roots, the arc certificate) all read; the arc orbit
labels the arcs with the same routine.  A group whose caller has proved it
transitive (a coset build, which reaches every coset from H; see
``PermGroup._take_certificate``) starts with the labels all zero and labels
nothing.  The chain grows its basic orbits by a BFS instead, because its
Schreier vectors need the BFS tree; the first level of a group known to be
transitive runs that BFS only when something reads the tree (see below).
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
Computational Group Theory*, 2005, §4.4).  A chain may be given an upper
bound on its group's order; it then stops as soon as the product of the
basic orbit lengths equals the bound, and raises ValueError if the product
goes above it.  The stop is exact: each partial basic orbit lies inside the
true one, so the product is at most |G|, which is at most the bound; when the
product equals the bound every inclusion is an equality and the chain is a
complete base and strong generating set, so order, membership, point
stabilisers are exact.  A bound that is never reached (an
action that is not faithful, say) leaves the run to complete as without
one.  A bound must be a true upper bound: one below |G| that equals some
partial product would stop the run early.  A group takes its bound only
from the coset-graph builder, with the proof that it is transitive
(``PermGroup._take_certificate``): the builder certifies |<H, a>| = |G| by
reaching all |G|/|H| cosets, and its vertex action is a homomorphic image
of <H, a>.

Base at the least moved point.  A chain given no base starts it at the
least point that some generator moves, which is vertex 0 of a transitive
action.  In a coset action H fixes vertex 0, so H's generators build the
levels below the first by themselves; the run works from the deepest level
up, their chain brings the product to n·|H| = |G|, and the known-order stop
ends the run before any Schreier generator of the first level is sifted.
Levels 1.. of a complete chain are a complete chain of the stabiliser of
its first base point (Seress §4.1), so the stabiliser of vertex 0 shares
them and runs no Schreier-Sims of its own; the stabiliser of any other
point is read off a chain based at that point (see ``point_stabiliser``).

Levels grow when read.  A level records the generators the run gives it
and closes its basic orbit under them when something reads the orbit: its
size, membership in it or a transversal element.  It takes the pending
generators in the order they were added, each by the same extend-only BFS
steps, so its orbit and Schreier vector equal those of a level grown as
each generator came.  The first basic orbit of a transitive group is every
point, so the first level of a chain of a group known to be transitive is
``whole``: its size is n and it holds every point without a search.
Order, the stabiliser of the first base point and its local action read
nothing else of that level; only sifting through it (``contains``, the
first level's Schreier generators when the bound is never reached, a
chain based at another point) grows it, and growing it checks that the
orbit is every point.
"""

from __future__ import annotations

import threading
from math import lcm
from operator import index

import numpy as np

__all__ = ["Permutation", "PermGroup", "orbit_labels"]


class Permutation:
    """An immutable bijection on {0..n-1}, stored as its image tuple.

    Composition convention, fixed project-wide: ``(p * q)(x) == q(p(x))``,
    i.e. the left factor acts first.  With this convention conjugation reads
    ``p.conjugate(g) == g.inverse() * p * g`` and matches the usual
    right-action notation x^g.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(map(_point, images))
        _bijection(images, len(images))
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
            cyc = [_point(x) for x in cyc]
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


def _point(x) -> int:
    """x as a point id: refused, not truncated, unless it is an integer."""
    try:
        return index(x)
    except TypeError:
        raise ValueError("point %r is not an integer" % (x,)) from None


def _bijection(g, n: int) -> np.ndarray:
    """g, an integer image array or a Permutation, as an int32 array once it
    is checked, before the narrowing, to be a bijection of 0..n-1: integer
    ids, n of them, each in range, and every point hit (an n-byte mask)."""
    images = np.asarray(g)
    if images.size and images.dtype.kind not in "iu":
        # integers beyond int64 make a float64 or an object array
        if images.dtype.kind in "fO" and all(
                isinstance(x, int) for x in np.asarray(g, dtype=object).flat):
            raise ValueError("not a permutation: ids out of range 0..%d" % (n - 1))
        raise ValueError("not a permutation: ids of dtype %s" % images.dtype)
    if images.shape != (n,):
        raise ValueError("degree mismatch: shape %s vs %d points" % (images.shape, n))
    seen = np.zeros(n, dtype=np.bool_)
    if n and images.min() >= 0 and images.max() < n:
        seen[images] = True
    if not seen.all():
        raise ValueError("not a permutation: not a bijection of 0..%d" % (n - 1))
    return images.astype(np.int32, copy=False)


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


def _least_moved(g: np.ndarray, identity: np.ndarray) -> int | None:
    """The least point that g moves, or None when g is the identity: one
    comparison with the identity."""
    moved = g != identity
    at = int(moved.argmax())
    return at if moved[at] else None


def _blank_sv(point: int, degree: int) -> np.ndarray:
    sv = np.full((degree, 2), -1, dtype=np.int32)
    sv[point, 0] = point
    return sv


class _Level:
    """One level of the chain: a base point, the strong generators that fix
    the earlier base points, and the basic orbit as a Schreier vector.

    ``add_gen`` only records a generator.  The orbit takes in the pending
    generators when it is next read (``grown``, which ``size`` and
    membership call, and ``u``, so ``u_inv``, before it traces the Schreier
    vector), one at a time in the order they were added, so it equals the
    orbit of a level grown as each generator came.  A
    ``whole`` level (the first of a chain of a group known to be transitive)
    has every point in its orbit: its size and membership need no search,
    and its Schreier vector is made only when something reads it."""

    __slots__ = ("point", "whole", "gens", "applied", "orbit", "sv", "_u",
                 "_u_inv", "done", "cursor", "_lock")

    def __init__(self, point: int, identity: np.ndarray, whole: bool = False):
        self.point, self.whole = point, whole
        self.gens: list[np.ndarray] = []
        self.applied = 0  # the orbit is closed under gens[:applied]
        self.orbit = np.array([point])  # in discovery order
        # Schreier vector: sv[q] = (p, i) with q = gens[i](p), so that
        # u_q = u_p * gens[i]; (-1, -1) off the orbit, (point, -1) at the
        # base point.  So q lies in the orbit exactly when sv[q, 0] >= 0.
        # A whole level makes it when it first grows.
        self.sv = None if whole else _blank_sv(point, len(identity))
        self._u = {point: identity}  # the transversal elements built so far
        self._u_inv = {point: identity}
        # done[k]: how many generators have been paired with orbit[k]
        # as Schreier generators; cursor: the first point with one left.
        self.done = [0]
        self.cursor = 0
        self._lock = threading.Lock()

    def __contains__(self, q: int) -> bool:
        if self.whole:
            return True
        if self.applied < len(self.gens):
            self.grown()
        return bool(self.sv[q, 0] >= 0)

    @property
    def size(self) -> int:
        """The length of the basic orbit: of a whole level, the degree (the
        length of the identity, u of the base point)."""
        return len(self._u[self.point]) if self.whole else len(self.grown().orbit)

    def add_gen(self, g: np.ndarray):
        """Append g; the orbit takes it in when next read."""
        self.gens.append(g)
        self.cursor = 0

    def grown(self) -> "_Level":
        """This level, its orbit closed under every generator, under the
        level's lock.  Extend-only: Schreier-vector entries are never
        rewritten, which keeps already-processed Schreier pairs valid.  For
        each pending generator g in turn, the orbit (closed under the
        generators before g) is probed with g alone, then the new points
        with every generator up to g, one BFS level at a time.  New points
        are appended in (discoverer, generator) order, as a
        one-point-at-a-time BFS would."""
        if self.applied < len(self.gens):
            with self._lock:
                if self.sv is None:
                    self.sv = _blank_sv(self.point, self.size)
                gens = self.gens
                for k in range(self.applied, len(gens)):
                    frontier = self._grow(self.orbit, gens[k:k + 1], k)
                    while len(frontier):
                        frontier = self._grow(frontier, gens[:k + 1], 0)
                if self.whole and len(self.orbit) != len(self.sv):
                    raise ValueError("a group taken as transitive has an orbit "
                                     "of %d of its %d points"
                                     % (len(self.orbit), len(self.sv)))
                self.done.extend([0] * (len(self.orbit) - len(self.done)))
                self.applied = len(gens)
        return self

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
            p, gi = self.grown().sv[q].tolist()
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
    goes above it; see the module docstring.  With ``transitive`` (the
    caller knows <gens> to be transitive on all ``degree`` points) the first
    level is marked ``whole``."""

    def __init__(self, degree: int, gens: list[np.ndarray], base_prefix=(),
                 bound: int | None = None, transitive: bool = False):
        self.degree = degree
        self.bound = bound
        self.identity = np.arange(degree, dtype=np.int32)
        moved = [(g, m) for g in gens if (m := _least_moved(g, self.identity)) is not None]
        if not base_prefix and moved:
            # the least moved point: vertex 0 of a transitive action
            base_prefix = (min(m for _, m in moved),)
        self.levels: list[_Level] = [
            _Level(b, self.identity, whole=transitive and not k)
            for k, b in enumerate(base_prefix)]
        for g, m in moved:
            self._insert_gen(g, m, 0)
        self._run()

    def _insert_gen(self, g: np.ndarray, moved: int, lo: int) -> int:
        """Add strong generator g, whose least moved point is ``moved``, to
        levels lo..j and return j: the first level whose base point g
        moves, or a new last level based at ``moved`` when g fixes them
        all.  Only here are levels added below those of the base prefix."""
        j = next((k for k in range(lo, len(self.levels))
                  if g[self.levels[k].point] != self.levels[k].point),
                 len(self.levels))
        if j == len(self.levels):
            self.levels.append(_Level(moved, self.identity))
        for lv in self.levels[lo:j + 1]:
            lv.add_gen(g)
        return j

    def _strip(self, g: np.ndarray, start: int) -> np.ndarray:
        """Sift g through levels start.., returning the residue: the
        identity, or an element that moves the base point of the level it
        stopped at (or of no level) and fixes those before it."""
        for lv in self.levels[start:]:
            beta = g.item(lv.point)
            if beta == lv.point:
                continue
            if beta not in lv:
                return g
            g = _compose(g, lv.u_inv(beta))
        return g

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
            else:
                i = self._insert_gen(*found, i + 1)

    def _process_level(self, i: int):
        """Sift the Schreier generators u_p * s * u_q^-1 of level i, in orbit
        then generator order, until one leaves a non-identity residue;
        returns it with its least moved point, or None."""
        lv = self.levels[i].grown()
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
                residue = self._strip(
                    _compose(_compose(lv.u(p), s), lv.u_inv(q)), i + 1)
                moved = _least_moved(residue, self.identity)
                if moved is not None:
                    return residue, moved
            lv.cursor += 1
        return None

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= lv.size
        return n

    def contains(self, g: np.ndarray) -> bool:
        return _least_moved(self._strip(g, 0), self.identity) is None

    def strong_gens_fixing_prefix(self, k: int) -> list[np.ndarray]:
        """Strong generators of the stabiliser of the first k base points,
        in order of first appearance.  ``_insert_gen`` appends one array
        object to every level that holds it, so identity deduplicates."""
        return list({id(g): g for lv in self.levels[k:] for g in lv.gens}.values())

    def tail(self, k: int) -> "_StabChain":
        """Levels k.. of this chain, shared, as a chain of their own.  Of a
        complete chain they are a complete chain of the stabiliser of the
        first k base points, so the tail is not run."""
        tail = object.__new__(type(self))
        tail.degree, tail.identity = self.degree, self.identity
        tail.levels = self.levels[k:]
        tail.bound = tail.order()
        return tail



class PermGroup:
    """Group generated by a set of permutations of {0..degree-1}.

    The generators may be given as int image arrays or as Permutation
    objects; each is checked to be a bijection of the points and kept as
    an int32 array (``arrays()``).
    The stabiliser-chain data is built lazily, at most once, behind a lock;
    after that the group is safe to share between threads.
    """

    def __init__(self, generators, degree: int | None = None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree required for an empty generating set")
            first = np.asarray(generators[0])
            if first.ndim != 1:
                raise ValueError("generator 0 is not an image array: %s" % first)
            degree = len(first)
        self.degree = degree
        # each as given: an id beyond int64 is told from a float by its type
        self._arrays = [_bijection(g, degree) for g in generators]
        self._chain: _StabChain | None = None
        self._labels: np.ndarray | None = None
        self._certified: int | None = None  # see _take_certificate
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
                    self._chain = _StabChain(
                        self.degree, self.arrays(), bound=self._certified,
                        transitive=self._certified is not None)
        return self._chain

    def _take_certificate(self, order: int):
        """Take the group as transitive and of order at most ``order``, which
        the caller has proved (a coset build reaches every coset from H, and
        its action is an image of a group of that order), before the orbit
        labels or the chain are made: the labels are then the read-only
        all-zero array, and the chain's first level is whole and its run
        stops at ``order`` (see the module docstring)."""
        self._certified = order

    def order(self) -> int:
        return self.chain.order()

    def contains(self, p) -> bool:
        """Membership of p, an int image array or a Permutation, which must
        be a bijection of the points."""
        return self.chain.contains(_bijection(p, self.degree))

    def __contains__(self, p) -> bool:
        return self.contains(p)

    def orbit_labels(self) -> np.ndarray:
        """The least point of each point's orbit, as a read-only int64
        array, labelled on the first call and then kept: the group's
        transitivity and the graph checks share one labelling.
        A group known to be transitive labels nothing: its labels are the
        all-zero array, one value broadcast, which takes no memory.  Two
        threads that make the first call together each label the orbits and
        keep the same array."""
        if self._labels is None:
            if self._certified is not None:
                labels = np.broadcast_to(np.int64(0), (self.degree,))
            else:
                labels = orbit_labels(self.arrays(), self.degree)
                labels.flags.writeable = False
            self._labels = labels
        return self._labels


    def is_transitive(self) -> bool:
        """True iff every point lies in the orbit of point 0."""
        return self.degree > 0 and not self.orbit_labels().any()

    def point_stabiliser(self, x: int) -> "PermGroup":
        """The stabiliser of x: levels 1.. of a complete chain based at x,
        shared with it (Seress, *Permutation Group Algorithms*, 2003,
        §4.1).  That chain is this group's own when x is its first base
        point (vertex 0 of a transitive action), and otherwise a chain with
        base starting at x, bounded by this group's exact order (with a
        whole first level when the group is known to be transitive).  When
        every generator fixes x the stabiliser is the whole group.
        """
        if not 0 <= x < self.degree:
            raise ValueError("point %d out of range" % x)
        if all(g[x] == x for g in self._arrays):
            return self
        chain = self.chain
        if chain.levels[0].point != x:
            chain = _StabChain(self.degree, self.arrays(), (x,), bound=chain.order(),
                               transitive=self._certified is not None)
        tail = chain.tail(1)
        # the strong generators are chain products: taken without a check
        stab = PermGroup((), self.degree)
        stab._arrays, stab._chain = tail.strong_gens_fixing_prefix(0), tail
        return stab

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
