"""Micro-loops over seeded operands for the element arithmetic that the
traced run leaves unwrapped.

Each loop multiplies a fixed list of operand pairs drawn from the seed, in
several batches, and reports the median cost per multiplication with the
number of multiplications timed beside it.
"""

from __future__ import annotations

import random
import statistics
import time

PAIRS = 4096
BATCHES = 7
REPEATS = 4  # passes over the pair list per batch


def _rate(pairs, mul) -> tuple:
    """(median ns per multiplication, multiplications timed)."""
    per_batch = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            for p, q in pairs:
                mul(p, q)
        per_batch.append((time.perf_counter() - t0) / (REPEATS * len(pairs)))
    return statistics.median(per_batch) * 1e9, BATCHES * REPEATS * len(pairs)


def micro_metrics(seed: int) -> dict:
    from tetrasym.extragrp import GElt, extension_group
    from tetrasym.permgrp import Permutation

    rng = random.Random(seed)
    grp = extension_group(7, "minus")

    def code():
        return (rng.getrandbits(grp.two_t + 1) | (rng.randrange(grp.two_t) << grp.kshift)
                | (rng.getrandbits(1) << grp.bshift))

    codes = [(code(), code()) for _ in range(PAIRS)]
    elts = [(GElt(grp, p), GElt(grp, q)) for p, q in codes]

    def perm():
        images = list(range(8))
        rng.shuffle(images)
        return Permutation(images)

    perms = [(perm(), perm()) for _ in range(PAIRS)]

    out = {}
    for name, pairs, mul in (("extragrp.mul_code", codes, grp.mul_code),
                             ("extragrp.gelt_mul", elts, GElt.__mul__),
                             ("permgrp.perm_mul", perms, Permutation.__mul__)):
        out[name + "_ns"], out[name + "_ops"] = _rate(pairs, mul)
    return out
