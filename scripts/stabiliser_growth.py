#!/usr/bin/env python3
"""Emit a CSV comparing vertex-stabiliser growth across the four families.

Columns: family, params, vertices, stabiliser_order, bound_rhs where
bound_rhs = 2 * |G_v| * log2(|G_v| / 2).  The gamma rows attain the bound
exactly; the crs rows overshoot it (exponential stabilisers on linearly many
vertices) and the delta rows undershoot it.

For every member it builds, stabiliser_order is |G_0| measured on the
vertex action (``action.group.point_stabiliser(0).order()``); the script
stops with exit status 1 when a measurement differs from the family's
expected order.  The delta rows past m=2 are closed forms.

Usage: python scripts/stabiliser_growth.py [--max-t T] [--out FILE]
(T from 2 to 10, default 6)
"""

import argparse
import csv
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tetrasym import extragrp, families  # noqa: E402


def bound_rhs(gv: int) -> int:
    return 2 * gv * ((gv // 2).bit_length() - 1)


class Mismatch(Exception):
    """A measured stabiliser order that is not the family's expected one."""


def built_row(family: str, params: str, fb):
    gv = fb.action.group.point_stabiliser(0).order()
    if gv != fb.expected.stabiliser_order:
        raise Mismatch("%s %s: |G_0| measured %d, expected %d"
                       % (family, params, gv, fb.expected.stabiliser_order))
    return (family, params, fb.graph.n, gv, bound_rhs(gv))


def rows(max_t: int):
    for r in range(3, 9):
        yield built_row("wreath", "r=%d" % r, families.wreath_graph(r))
    for r in range(4, 9):
        for s in range(1, r):
            spec = families.FamilySpec.make("crs", r=r, s=s)
            yield built_row("crs", "r=%d,s=%d" % (r, s), families.build_family(spec))
    for t in range(2, max_t + 1):
        for sign in ("plus", "minus"):
            yield built_row("gamma", "t=%d,sign=%s" % (t, sign),
                            families.gamma(t, sign))
    yield built_row("delta", "m=2", families.delta(2))
    # the next delta member is too large to build here; its counts follow
    # from the closed forms
    for m in (3, 4):
        gv = 2 ** (2 * m)
        yield ("delta", "m=%d (closed form)" % m,
               math.factorial(4 * m) // gv, gv, bound_rhs(gv))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-t", type=int, default=6)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if not 2 <= args.max_t <= extragrp.MAX_T:
        parser.error("--max-t must be between 2 and %d" % extragrp.MAX_T)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out)
    writer.writerow(["family", "params", "vertices", "stabiliser_order",
                     "bound_rhs"])
    try:
        for row in rows(args.max_t):
            writer.writerow(row)
    except Mismatch as exc:
        print("stabiliser_growth: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
