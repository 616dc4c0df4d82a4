"""Test helper: renumber the vertices of an oriented complex."""

from __future__ import annotations

from fraccore.topology.complexes import OrientedComplex, SimplicialComplex


def permutation_sign(seq):
    sign = 1
    for i, a in enumerate(seq):
        for b in seq[i + 1 :]:
            if a > b:
                sign = -sign
    return sign


def relabel(oc, values, perm):
    """The oriented complex and per-vertex values with vertex v renumbered
    perm[v]: each facet keeps its orientation, so its sign picks up the
    parity of the sort that puts its new vertex numbers in order."""
    signs = {}
    for facet, sign in zip(oc.facets, oc.orientation):
        image = [perm[v] for v in facet]
        signs[tuple(sorted(image))] = sign * permutation_sign(image)
    K = SimplicialComplex(oc.complex.num_vertices, tuple(signs))
    moved = [None] * len(values)
    for v, value in enumerate(values):
        moved[perm[v]] = value
    return OrientedComplex(K, tuple(signs[f] for f in K.facets)), moved
