"""Exact normal-form arithmetic for a pair of order t*2^(2t+3) groups: the
split ("plus") and non-split ("minus") extensions of an extraspecial 2-group
of order 2^(2t+1) by a dihedral group of order 4t.

Elements are words e * a^k * b^beta in normal form, where e lies in the
2-group spanned by involutions x_0..x_{2t-1} and a central involution z.
The defining relations, all enforced by the multiplication here and locked
down by the exhaustive test-suite:

    x_i^2 = z^2 = [x_i, z] = 1
    [x_i, x_j] = 1        whenever |i - j| != t  (literal index distance)
    [x_i, x_{t+i}] = z    for 0 <= i <= t-1
    x_i^a = x_{i+1},  x_i^b = x_{t-1-i}          (indices mod 2t)
    b^2 = 1,  a^b = a^(-1)
    a^(2t) = 1 in the plus group,  a^(2t) = z in the minus group
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

__all__ = [
    "PLUS", "MINUS", "SIGNS",
    "EVec", "evec_mul", "evec_inv", "conj_by_a", "conj_by_b",
    "GElt", "ExtensionGroup", "extension_group",
    "SubgroupH", "enumerate_group", "double_coset_contains",
]

PLUS = "plus"
MINUS = "minus"
SIGNS = (PLUS, MINUS)

# Above this t the conjugation tables would dominate memory; conjugation
# falls back to per-element decompose/remultiply.
_TABLE_MAX_T = 8


@dataclass(frozen=True)
class EVec:
    """Element x_0^{v_0} ... x_{2t-1}^{v_{2t-1}} z^z of the 2-group part,
    with exponent bit i of ``v`` belonging to x_i."""

    t: int
    v: int
    z: int = 0

    def __post_init__(self):
        if self.t < 2:
            raise ValueError("t must be >= 2")
        if not 0 <= self.v < 1 << (2 * self.t):
            raise ValueError("exponent vector out of range for t=%d" % self.t)
        if self.z not in (0, 1):
            raise ValueError("z exponent must be 0 or 1")

    def __mul__(self, other: "EVec") -> "EVec":
        return evec_mul(self, other)

    def inverse(self) -> "EVec":
        return evec_inv(self)

    def is_identity(self) -> bool:
        return self.v == 0 and self.z == 0

    def support(self) -> list[int]:
        return [i for i in range(2 * self.t) if (self.v >> i) & 1]


def evec_mul(u: EVec, w: EVec) -> EVec:
    """Product of two normal forms.

    Sorting the concatenated word costs one central factor z for every pair
    where x_j from the right factor moves left past x_{j+t} from the left
    factor (j < t), so the z exponent is
    u.z + w.z + sum_{j<t} u_{j+t} * w_j  over GF(2).
    """
    if u.t != w.t:
        raise ValueError("parameter mismatch: t=%d vs t=%d" % (u.t, w.t))
    t = u.t
    cross = (u.v >> t) & w.v & ((1 << t) - 1)
    return EVec(t, u.v ^ w.v, u.z ^ w.z ^ (cross.bit_count() & 1))


def evec_inv(u: EVec) -> EVec:
    # u*u = z^c with c = sum_j u_{j+t} u_j, hence u^-1 = u * z^c.
    c = ((u.v >> u.t) & u.v & ((1 << u.t) - 1)).bit_count() & 1
    return EVec(u.t, u.v, u.z ^ c)


def _remap(u: EVec, index_map) -> EVec:
    """Apply the automorphism sending x_i to x_{index_map(i)} (and fixing z)
    by decomposing u into its sorted generator word, mapping each letter and
    remultiplying, so all reordering z-contributions come from evec_mul."""
    acc = EVec(u.t, 0, u.z)
    for i in u.support():
        acc = evec_mul(acc, EVec(u.t, 1 << index_map(i), 0))
    return acc


def conj_by_a(u: EVec) -> EVec:
    """Image of u under x_i -> x_{i+1 mod 2t}."""
    two_t = 2 * u.t
    return _remap(u, lambda i: (i + 1) % two_t)


def conj_by_b(u: EVec) -> EVec:
    """Image of u under x_i -> x_{t-1-i mod 2t}."""
    t, two_t = u.t, 2 * u.t
    return _remap(u, lambda i: (t - 1 - i) % two_t)


# ---------------------------------------------------------------------------
# The full extension groups
# ---------------------------------------------------------------------------

class GElt:
    """Group element in normal form e * a^k * b^beta, packed into one int."""

    __slots__ = ("group", "code")

    def __init__(self, group: "ExtensionGroup", code: int):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "code", code)

    def __setattr__(self, name, value):
        raise AttributeError("GElt is immutable")

    @property
    def t(self) -> int:
        return self.group.t

    @property
    def sign(self) -> str:
        return self.group.sign

    @property
    def evec(self) -> EVec:
        g = self.group
        return EVec(g.t, self.code & g.vmask, (self.code >> g.two_t) & 1)

    @property
    def a_exp(self) -> int:
        return (self.code >> self.group.kshift) & 63

    @property
    def b_exp(self) -> int:
        return self.code >> self.group.bshift

    def __mul__(self, other: "GElt") -> "GElt":
        g = self.group
        if other.group is not g:
            raise ValueError("parameter mismatch: %r vs %r" % (g, other.group))
        return GElt(g, g.mul_code(self.code, other.code))

    def inverse(self) -> "GElt":
        g = self.group
        return GElt(g, g.inv_code(self.code))

    def __pow__(self, n: int) -> "GElt":
        if n < 0:
            return self.inverse() ** (-n)
        g = self.group
        acc, base = g.identity.code, self.code
        while n:
            if n & 1:
                acc = g.mul_code(acc, base)
            base = g.mul_code(base, base)
            n >>= 1
        return GElt(g, acc)

    def conjugate(self, w: "GElt") -> "GElt":
        return w.inverse() * self * w

    def is_identity(self) -> bool:
        return self.code == 0

    def order(self) -> int:
        g = self.group
        n, c = 1, self.code
        while c != 0:
            c = g.mul_code(c, self.code)
            n += 1
        return n

    def word(self) -> str:
        return self.group.word(self)

    def __eq__(self, other):
        if not isinstance(other, GElt):
            return NotImplemented
        return self.group is other.group and self.code == other.code

    def __lt__(self, other):
        # Fixed total order: the packed normal form.
        if not isinstance(other, GElt) or other.group is not self.group:
            return NotImplemented
        return self.code < other.code

    def __hash__(self):
        return hash((self.group.t, self.group.sign, self.code))

    def __repr__(self):
        return "GElt(t=%d, %s, %s)" % (self.t, self.sign, self.word())


class ExtensionGroup:
    """Multiplication context for one (t, sign) pair.  Obtain instances via
    :func:`extension_group`, which caches them so element contexts can be
    compared by identity."""

    def __init__(self, t: int, sign: str):
        if not 2 <= t <= 10:
            raise ValueError("t out of range: %d (need 2 <= t <= 10)" % t)
        if sign not in SIGNS:
            raise ValueError("sign must be %r or %r" % SIGNS)
        self.t = t
        self.sign = sign
        self.two_t = 2 * t
        self.vmask = (1 << self.two_t) - 1
        self.tmask = (1 << t) - 1
        self.emask = (1 << (self.two_t + 1)) - 1
        self.kshift = self.two_t + 1
        self.bshift = self.two_t + 7
        self.minus = sign == MINUS
        self.order = t << (self.two_t + 3)
        self.identity = GElt(self, 0)
        self._ct = self._build_conj_tables() if t <= _TABLE_MAX_T else None

    def __repr__(self):
        return "ExtensionGroup(t=%d, %s)" % (self.t, self.sign)

    # -- construction of elements ------------------------------------------

    def x(self, i: int) -> GElt:
        if not 0 <= i < self.two_t:
            raise ValueError("generator index out of range")
        return GElt(self, 1 << i)

    @property
    def z(self) -> GElt:
        return GElt(self, 1 << self.two_t)

    @property
    def a(self) -> GElt:
        return GElt(self, 1 << self.kshift)

    @property
    def b(self) -> GElt:
        return GElt(self, 1 << self.bshift)

    @property
    def generators(self) -> tuple:
        return tuple(self.x(i) for i in range(self.two_t)) + (self.a, self.b)

    def from_parts(self, e: EVec, k: int, beta: int) -> GElt:
        if e.t != self.t:
            raise ValueError("parameter mismatch")
        code = (e.v | (e.z << self.two_t) | ((k % self.two_t) << self.kshift)
                | ((beta & 1) << self.bshift))
        return GElt(self, code)

    # -- core arithmetic on packed codes -----------------------------------

    def _build_conj_tables(self):
        """ct[k][beta][v] = packed image (v' | correction << 2t) of the
        e-part automorphism needed in mul_code: first conj by b^beta, then
        index shift by -k mod 2t.  Built by composing single-step tables that
        come straight from the decompose/remultiply maps above."""
        two_t, vmask = self.two_t, self.vmask
        size = 1 << two_t

        def pack(ev: EVec) -> int:
            return ev.v | (ev.z << two_t)

        ident = list(range(size))
        shift1 = [pack(conj_by_a(EVec(self.t, v, 0))) for v in range(size)]
        btab = [pack(conj_by_b(EVec(self.t, v, 0))) for v in range(size)]

        def compose(first, second):
            out = []
            for r1 in first:
                r2 = second[r1 & vmask]
                out.append((r2 & vmask) | (((r1 >> two_t) ^ (r2 >> two_t)) << two_t))
            return out

        shifts = [ident]
        for _ in range(two_t - 1):
            shifts.append(compose(shifts[-1], shift1))

        ct = []
        for k in range(two_t):
            back = shifts[(two_t - k) % two_t]
            ct.append([back, compose(btab, back)])
        return ct

    def _conj(self, k: int, beta: int, e: int) -> int:
        """e-part conjugated by (a^k b^beta)^(-1), on packed (v | z<<2t)."""
        if self._ct is not None:
            r = self._ct[k][beta][e & self.vmask]
            return r ^ (e & ~self.vmask)
        t, two_t = self.t, self.two_t
        u = EVec(t, e & self.vmask, (e >> two_t) & 1)
        if beta:
            mapper = lambda i: ((t - 1 - i) - k) % two_t
        else:
            mapper = lambda i: (i - k) % two_t
        w = _remap(u, mapper)
        return w.v | (w.z << two_t)

    def mul_code(self, p: int, q: int) -> int:
        t, two_t = self.t, self.two_t
        e1 = p & self.emask
        k1 = (p >> self.kshift) & 63
        b1 = p >> self.bshift
        e2 = q & self.emask
        k2 = (q >> self.kshift) & 63
        b2 = q >> self.bshift
        w = self._conj(k1, b1, e2)
        v1 = e1 & self.vmask
        v2 = w & self.vmask
        z = ((e1 ^ w) >> two_t) ^ (((v1 >> t) & v2 & self.tmask).bit_count() & 1)
        big_k = k1 - k2 if b1 else k1 + k2
        k = big_k % two_t
        if self.minus:
            z ^= ((big_k - k) // two_t) & 1
        return (v1 ^ v2) | (z << two_t) | (k << self.kshift) | ((b1 ^ b2) << self.bshift)

    def inv_code(self, p: int) -> int:
        # (e a^k b^beta)^-1 = b^beta * a^-k * e^-1
        e = p & self.emask
        k = (p >> self.kshift) & 63
        beta = p >> self.bshift
        einv = EVec(self.t, e & self.vmask, (e >> self.two_t) & 1).inverse()
        einv_code = einv.v | (einv.z << self.two_t)
        if k == 0:
            a_inv = 0
        else:
            wrap = (1 << self.two_t) if self.minus else 0
            a_inv = wrap | ((self.two_t - k) << self.kshift)
        out = (beta << self.bshift) if beta else 0
        out = self.mul_code(out, a_inv)
        return self.mul_code(out, einv_code)

    # -- enumeration and subgroups -----------------------------------------

    def elements(self):
        """Every element exactly once, ascending by packed code."""
        for beta in (0, 1):
            for k in range(self.two_t):
                for z in (0, 1):
                    for v in range(1 << self.two_t):
                        yield GElt(self, v | (z << self.two_t)
                                   | (k << self.kshift) | (beta << self.bshift))

    def subgroup_h(self) -> "SubgroupH":
        """H = <x_0, ..., x_{t-1}, b>, of order 2^(t+1)."""
        codes = sorted((v | (beta << self.bshift))
                       for v in range(1 << self.t) for beta in (0, 1))
        return SubgroupH(self, tuple(GElt(self, c) for c in codes))

    def element_order_census(self) -> dict[int, int]:
        census: Counter = Counter()
        for g in self.elements():
            census[g.order()] += 1
        return dict(census)

    # -- serialization -------------------------------------------------------

    def word(self, g: GElt) -> str:
        parts = []
        ev = g.evec
        for i in ev.support():
            parts.append("x%d" % i)
        if ev.z:
            parts.append("z")
        k = g.a_exp
        if k == 1:
            parts.append("a")
        elif k:
            parts.append("a^%d" % k)
        if g.b_exp:
            parts.append("b")
        return "*".join(parts) if parts else "e"

    _TOKEN_RE = re.compile(r"^(x(\d+)|z|a|b|e)(\^(-?\d+))?$")

    def parse_word(self, text: str) -> GElt:
        out = self.identity
        text = text.strip()
        if not text:
            return out
        for token in text.split("*"):
            m = self._TOKEN_RE.match(token.strip())
            if not m:
                raise ValueError("bad token %r in word %r" % (token, text))
            name, xi, _, exp = m.groups()
            if name == "e":
                base = self.identity
            elif name == "z":
                base = self.z
            elif name == "a":
                base = self.a
            elif name == "b":
                base = self.b
            else:
                base = self.x(int(xi))
            out = out * (base ** int(exp) if exp is not None else base)
        return out


_GROUP_CACHE: dict[tuple, ExtensionGroup] = {}


def extension_group(t: int, sign: str) -> ExtensionGroup:
    key = (t, sign)
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = ExtensionGroup(t, sign)
    return _GROUP_CACHE[key]


def enumerate_group(t: int, sign: str) -> list[GElt]:
    """All t*2^(2t+3) elements, each exactly once.  Guarded to t <= 4."""
    if t > 4:
        raise ValueError("full enumeration is guarded to t <= 4 (got t=%d)" % t)
    return list(extension_group(t, sign).elements())


@dataclass(frozen=True)
class SubgroupH:
    """The 2^(t+1)-element subgroup <x_0, ..., x_{t-1}, b>."""

    group: ExtensionGroup
    elements: tuple

    def __len__(self):
        return len(self.elements)

    def element_set(self) -> frozenset:
        return frozenset(self.elements)


def double_coset_contains(H: SubgroupH, mid: GElt, probe: GElt) -> bool:
    """True iff probe lies in the double coset {h1^mid * h2 : h1, h2 in H},
    with h^mid = mid^(-1) * h * mid.  Enumerates all |H|^2 products."""
    grp = H.group
    if mid.group is not grp or probe.group is not grp:
        raise ValueError("parameter mismatch")
    mid_inv = grp.inv_code(mid.code)
    conj = [grp.mul_code(grp.mul_code(mid_inv, h.code), mid.code) for h in H.elements]
    target = probe.code
    h_codes = [h.code for h in H.elements]
    for c in conj:
        for h2 in h_codes:
            if grp.mul_code(c, h2) == target:
                return True
    return False
