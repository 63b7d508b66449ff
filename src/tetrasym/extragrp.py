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

Multiplication conjugates e by (a^k b^beta)^(-1), in closed form on the
exponent bits v (bit i for x_i) for every t:

- b reverses each half [0, t) and [t, 2t) of v and keeps z.  It sends the
  non-commuting pair (x_j, x_{j+t}) to (x_{t-1-j}, x_{2t-1-j}), so every
  such pair keeps its order and sorting costs no z.
- a^(-k) rotates v left by r = -k mod 2t.  One step by a sends x_{2t-1} to
  x_0, and the wrapped letter passes x_t, which costs z when both are
  present.  Over r steps, z flips once for every j < t with
  v_j = v_{j+t} = 1 whose x_j lands in [t, 2t): the bits [t-r, t) of
  v & (v >> t) when r <= t, and the bits [0, 2t-r) otherwise.

A code packs v in bits [0, 2t), z in bit 2t, k in the six bits from
kshift = 2t+1 and beta in bit bshift = 2t+7.  ``mul_code`` applies the closed
form above to one pair of codes.  ``mul_codes``, its array form, reads it
from five flat int64 tables made once per group.  The left factor p picks a
row s = p >> kshift = k1 | b1 << 6; only the rows with k1 < 2t are filled.
The right factor q is read as lo = q & tmask, its low half, and
hi = (q >> t) & (2^(t+1) - 1), its high half with z2 above it:

- LO[s][lo] and HI[s][hi] are the two halves of v conjugated by
  (a^k1 b^b1)^-1: lo in bits [0, t) and hi in bits [t, 2t), each reversed
  if b1, then rotated left by -k1 mod 2t.  HI also carries z2 in bit 2t.
  Their bits are disjoint, and v2 = LO[s][lo] | HI[s][hi] is the conjugate
  e2' together with z2.
- WZ[s][lo & hi] is the z that the rotation's wraps cost, in bit 2t.
  Reversal commutes with &, so one index serves both b1.
- PAR[c] is the parity of the t-bit value c, in bit 2t: the z of sorting
  e1 e2', with c = (p >> t) & tmask & v2 (as in evec_mul).
- HK[s][q >> kshift] holds the top bits of the product: k and beta of
  a^k1 b^b1 a^k2 b^b2, and the z that a^(2t) carries in the minus group.
  It is stored XORed with s << kshift, so that XOR with p swaps p's top
  bits for them.

So p*q = p ^ v2 ^ WZ ^ PAR ^ HK.  PAR and each row of LO and WZ have 2^t
entries, a row of HI 2^(t+1) and one of HK 128; every entry is below
2^(2t+8).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PLUS", "MINUS", "SIGNS", "MAX_T",
    "EVec", "evec_mul", "GElt", "ExtensionGroup", "extension_group",
]

PLUS = "plus"
MINUS = "minus"
SIGNS = (PLUS, MINUS)
MAX_T = 10  # the groups are built for 2 <= t <= MAX_T


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

    def is_identity(self) -> bool:
        return self.v == 0 and self.z == 0


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

    def __str__(self):
        return self.word()


class ExtensionGroup:
    """Multiplication context for one (t, sign) pair.  Obtain instances via
    :func:`extension_group`, which caches them so element contexts can be
    compared by identity."""

    def __init__(self, t: int, sign: str):
        if not 2 <= t <= MAX_T:
            raise ValueError("t out of range: %d (need 2 <= t <= %d)" % (t, MAX_T))
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
        # mul_code reads _rev[v], the t bits of v reversed, and _pmask[r],
        # which marks the j < t whose x_j a left rotation by r carries into
        # [t, 2t); mul_codes reads the tables made from them
        half = np.arange(1 << t)
        rev = np.zeros_like(half)
        for i in range(t):
            rev |= (half >> i & 1) << (t - 1 - i)
        self._rev = rev.tolist()
        self._pmask = [(1 << t) - (1 << (t - r)) if r <= t
                       else (1 << (self.two_t - r)) - 1 for r in range(self.two_t)]
        self._lo, self._hi, self._wz, self._par, self._hk = self._tables(half, rev)

    def _tables(self, half: np.ndarray, rev: np.ndarray) -> tuple:
        """LO, HI, WZ, PAR and HK of mul_codes (see the module docstring),
        from the t-bit values ``half`` and their reversals ``rev``.  The
        rows of the used s = k | beta << 6 are made as one array each, then
        spread over the rows s = 0 .. 63 + 2t of a flat table, the unused
        rows zero.  HI's row is its half without z2, then with it."""
        t, two_t, kshift = self.t, self.two_t, self.kshift
        s = np.concatenate((np.arange(two_t), 64 + np.arange(two_t)))[:, None]
        k, beta = s & 63, s >> 6
        r = -k % two_t
        halves = np.where(beta, rev, half)

        def rot(x):
            return ((x << r) | (x >> (two_t - r))) & self.vmask
        high = rot(halves << t)
        par = (np.bitwise_count(half) & 1).astype(np.int64) << two_t
        wz = par[halves & np.array(self._pmask)[r]]
        top = np.arange(128)  # q >> kshift = k2 | b2 << 6
        k2 = top & 63
        big_k = np.where(beta, k - k2, k + k2)
        k_out = big_k % two_t
        z = (big_k - k_out) // two_t & 1 if self.minus else 0
        hk = (z << two_t | k_out << kshift | (beta ^ top >> 6) << self.bshift) ^ s << kshift

        def flat(rows):
            out = np.zeros((64 + two_t, rows.shape[1]), dtype=np.int64)
            out[s[:, 0]] = rows
            return out.ravel()
        return (flat(rot(halves)), flat(np.hstack((high, high | 1 << two_t))),
                flat(wz), par, flat(hk))

    @cached_property
    def _words(self) -> list:
        """word()'s three tables: the letters of x_0..x_{t-1} and of
        x_t..x_{2t-1} by the value of their t bits, and those of z a^k b by
        the value of the 8 bits above them."""
        t = self.t
        words = [["*".join("x%d" % (i + off) for i in range(t) if v >> i & 1)
                  for v in range(1 << t)] for off in (0, t)]
        tops = []
        for top in range(1 << 8):
            k = (top >> 1) & 63
            tops.append("*".join(["z"] * (top & 1) + ["a"] * (k == 1)
                                 + ["a^%d" % k] * (k > 1) + ["b"] * (top >> 7)))
        words.append(tops)
        return words

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

    # -- core arithmetic on packed codes -----------------------------------

    def mul_code(self, p: int, q: int) -> int:
        # e1 a^k1 b^b1 * e2 a^k2 b^b2 = e1 e2' a^(k1 -+ k2) b^(b1^b2), where
        # e2' is e2 conjugated by (a^k1 b^b1)^-1 in the closed form of the
        # module docstring: reverse the halves if b1, rotate left by -k1.
        t, two_t, vmask = self.t, self.two_t, self.vmask
        k1 = (p >> self.kshift) & 63
        b1 = p >> self.bshift
        k2 = (q >> self.kshift) & 63
        b2 = q >> self.bshift
        v = q & vmask
        if b1:
            rev = self._rev
            v = rev[v & self.tmask] | (rev[v >> t] << t)
        r = -k1 % two_t
        v2 = ((v << r) | (v >> (two_t - r))) & vmask
        v1 = p & vmask
        # z flips once per pair the rotation wraps and, as in evec_mul, once
        # per x_j of e2' that sorts left past x_{j+t} of e1
        cross =(v & (v >> t) & self._pmask[r]) ^ ((v1 >> t) & v2 & self.tmask)
        z = (((p ^ q) >> two_t) & 1) ^ (cross.bit_count() & 1)
        big_k = k1 - k2 if b1 else k1 + k2
        k = big_k % two_t
        if self.minus:
            z ^= ((big_k - k) // two_t) & 1
        return (v1 ^ v2) | (z << two_t) | (k << self.kshift) | ((b1 ^ b2) << self.bshift)

    def mul_codes(self, p, q) -> np.ndarray:
        """mul_code over int64 arrays of packed codes, broadcast like any
        numpy operation, so either factor may be a single code: p ^ v2 ^ WZ
        ^ PAR ^ HK, read from the tables of the module docstring."""
        p = np.asarray(p, dtype=np.int64)
        q = np.asarray(q, dtype=np.int64)
        t, tmask = self.t, self.tmask
        s = p >> self.kshift
        row = s << t
        lo = q & tmask
        hi = (q >> t) & (tmask << 1 | 1)
        v2 = self._lo.take(row | lo) | self._hi.take(row << 1 | hi)
        out = p ^ v2
        out ^= self._wz.take(row | (lo & hi))
        out ^= self._par.take((p >> t) & tmask & v2)
        out ^= self._hk.take(s << 7 | q >> self.kshift)
        return out

    def inv_code(self, p: int) -> int:
        # (e a^k b^beta)^-1 = b^beta * a^-k * e^-1.  e^-1 is e with z
        # flipped by the parity of sum_j v_{j+t} v_j, since e*e is z to
        # that power (evec_mul's cross term), and a^-k for k > 0 is
        # a^(2t-k), times z = a^(-2t) in the minus group.
        v = p & self.vmask
        k = (p >> self.kshift) & 63
        c = ((v >> self.t) & v & self.tmask).bit_count() & 1
        e_inv = (p & self.emask) ^ (c << self.two_t)
        z = 1 if self.minus and k else 0
        a_inv = z << self.two_t | (-k % self.two_t) << self.kshift
        out = self.mul_code((p >> self.bshift) << self.bshift, a_inv)
        return self.mul_code(out, e_inv)

    # -- enumeration -------------------------------------------------------

    def elements(self):
        """Every element exactly once, ascending by packed code."""
        for beta in (0, 1):
            for k in range(self.two_t):
                for z in (0, 1):
                    for v in range(1 << self.two_t):
                        yield GElt(self, v | (z << self.two_t)
                                   | (k << self.kshift) | (beta << self.bshift))

    def element_order_census(self) -> dict[int, int]:
        census: Counter = Counter()
        for g in self.elements():
            census[g.order()] += 1
        return dict(census)

    # -- serialization -------------------------------------------------------

    def word(self, g: GElt) -> str:
        """The normal form as a word, read off the bits of the packed code:
        each half of the exponent bits through one table, z, a^k and b
        through one more."""
        code = g.code
        words = self._words
        parts = (words[0][code & self.tmask], words[1][(code >> self.t) & self.tmask],
                 words[2][code >> self.two_t])
        return "*".join([p for p in parts if p]) or "e"


_GROUP_CACHE: dict[tuple, ExtensionGroup] = {}


def extension_group(t: int, sign: str) -> ExtensionGroup:
    key = (t, sign)
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = ExtensionGroup(t, sign)
    return _GROUP_CACHE[key]
