"""A reference enumeration of permutation groups that the tests compare the
library with and that no part of the program calls.  It shares no code with
the stabiliser chain: it reaches every element by products alone."""

import numpy as np

from tetrasym.permgrp import Permutation


def group_elements(gens, degree: int) -> list:
    """Every element of the group generated by gens (image arrays or
    Permutations on 0..degree-1), once each, as sorted Permutations: a BFS
    from the identity over right products x*g, (x*g)(i) = g(x(i)), with each
    generator g.  In a finite group every element is a product of
    generators, so the BFS reaches them all."""
    gens = [np.asarray(g, dtype=np.int64) for g in gens]
    identity = np.arange(degree, dtype=np.int64)
    seen, frontier = {identity.tobytes()}, [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = g[x]
                if y.tobytes() not in seen:
                    seen.add(y.tobytes())
                    fresh.append(y)
        frontier = fresh
    return sorted(Permutation(np.frombuffer(key, dtype=np.int64)) for key in seen)
