"""The coset representatives of a build as elements, which the tests
compare with their oracles and no part of the program reads: a build keeps
them in array form only."""


def coset_reps(build) -> tuple:
    """The canonical coset representatives of a ``CosetGraphBuild`` as GElt
    or Permutation objects, in vertex order."""
    return tuple(build.iface.form.unpack(build._reps))
