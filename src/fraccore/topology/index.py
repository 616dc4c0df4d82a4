"""Indices of balanced components and the index-sum consistency check.

A balanced facet is one whose vertex-label union admits convex balancing
weights.  The index of a connected component of balanced facets is the
degree of the labeled cover restricted to the boundary sphere of the
component's simplicial neighborhood, which stands in for a small smooth
collar: the closed star of the component in the barycentric subdivision of
its star, the facets that share a vertex with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BoundaryTouchesBalanced, NotIsolated
from .complexes import (
    OrientedComplex,
    SimplicialComplex,
    _classes,
    barycentric_subdivision,
    boundary_complex,
)
from .degree import Degree, LabeledCover, _balanced_facets, pl_degree


def balanced_facet_indices(lc: LabeledCover):
    return _balanced_facets(lc, "convex")


def balanced_components(lc: LabeledCover):
    """Connected components (shared-vertex connectivity) of balanced facets,
    grouped by the ``_classes`` root of each one's first vertex."""
    facets = lc.oriented.complex.facets
    balanced = balanced_facet_indices(lc)
    root = _classes(facets[idx] for idx in balanced)
    components = {}
    for idx in balanced:
        components.setdefault(root[facets[idx][0]], set()).add(idx)
    return sorted(map(frozenset, components.values()), key=sorted)


def component_index(lc: LabeledCover, component) -> int:
    """Degree of the cover on the boundary of the component's neighborhood."""
    balanced = frozenset(balanced_facet_indices(lc))
    return _component_indices(lc, [frozenset(component)], balanced)[0]


def _component_indices(lc: LabeledCover, components, balanced):
    """The components' indices, from one subdivision of the union of their
    stars.  ``balanced`` is the set of all balanced facet indices.  A
    neighborhood lies in its component's star and meets every star facet,
    so it avoids the other balanced facets exactly when the star does."""
    facets = lc.oriented.complex.facets
    stars = set()
    for component in components:
        if not component:
            raise ValueError("a component needs at least one facet")
        if not component <= balanced:
            raise ValueError("component contains non-balanced facets")
        verts = set().union(*(facets[idx] for idx in component))
        star = {idx for idx, f in enumerate(facets) if verts.intersection(f)}
        touched = sorted(star & (balanced - component))
        if touched:
            raise NotIsolated(f"neighborhood touches balanced facet {facets[touched[0]]}")
        stars |= star
    if not stars:
        return []
    stars = sorted(stars)
    sub = barycentric_subdivision(
        OrientedComplex(
            SimplicialComplex(len(lc.labels), tuple(facets[i] for i in stars)),
            tuple(lc.oriented.orientation[i] for i in stars),
        )
    )
    sd = sub.oriented
    carriers = sub.carriers
    labels = tuple(frozenset().union(*(lc.labels[v] for v in face)) for face in carriers)
    indices = []
    for component in components:
        comp = SimplicialComplex(len(lc.labels), tuple(facets[i] for i in component))
        comp_faces = set().union(*comp.all_faces().values())
        # the neighborhood: subdivision facets meeting the component's faces
        marked = {w for w, face in enumerate(carriers) if face in comp_faces}
        in_n = [i for i, f in enumerate(sd.facets) if any(w in marked for w in f)]
        n_complex = SimplicialComplex(len(carriers), tuple(sd.facets[i] for i in in_n))
        rim = boundary_complex(OrientedComplex(n_complex, tuple(sd.orientation[i] for i in in_n)))
        if any(w in marked for f in rim.facets for w in f):
            raise BoundaryTouchesBalanced(
                "component reaches the boundary of its own neighborhood"
            )
        # a Degree: a rim facet has no marked vertex, so its vertices are
        # barycentres of faces of one star facet outside the component, which
        # is not balanced by the isolation check.  Each rim label lies in that
        # facet's label union, and a subset of an unbalanced set is unbalanced.
        indices.append(pl_degree(LabeledCover(rim, labels, lc.firm_system)).value)
    return indices


@dataclass(frozen=True)
class IndexSumReport:
    boundary_degree: Degree
    components: tuple  # ((facet indices, index), ...)
    sum_matches: bool


def index_sum_check(lc: LabeledCover) -> IndexSumReport:
    """Compare the region-boundary degree with the sum of component indices."""
    rim = boundary_complex(lc.oriented)
    rim_cover = LabeledCover(rim, lc.labels, lc.firm_system)
    boundary_degree = pl_degree(rim_cover)
    components = balanced_components(lc)
    # every balanced facet lies in exactly one component
    balanced = frozenset().union(*components)
    indexed = tuple(
        (tuple(sorted(c)), ix)
        for c, ix in zip(components, _component_indices(lc, components, balanced))
    )
    # a balanced rim facet lies in a balanced facet on the region boundary,
    # whose component raised above, so the boundary degree is a Degree
    matches = boundary_degree.value == sum(ix for _, ix in indexed)
    return IndexSumReport(boundary_degree, indexed, matches)
