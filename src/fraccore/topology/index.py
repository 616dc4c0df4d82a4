"""Indices of balanced components and the index-sum consistency check.

A balanced facet is one whose vertex-label union admits convex balancing
weights.  The index of a connected component of balanced facets is the
degree of the labeled cover restricted to the boundary sphere of the
component's simplicial neighborhood (closed star in the barycentric
subdivision), which stands in for a small smooth collar.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..balance import balance_test
from ..errors import BoundaryTouchesBalanced, NotIsolated
from .complexes import (
    OrientedComplex,
    SimplicialComplex,
    barycentric_subdivision,
    boundary_complex,
)
from .degree import BalancedSimplexFound, Degree, LabeledCover, pl_degree


def balanced_facet_indices(lc: LabeledCover):
    balanced = balance_test(lc.firm_system, "convex")
    return [
        idx
        for idx, facet in enumerate(lc.oriented.complex.facets)
        if balanced(frozenset().union(*(lc.labels[u] for u in facet)))
    ]


def balanced_components(lc: LabeledCover):
    """Connected components (shared-vertex connectivity) of balanced facets."""
    balanced = balanced_facet_indices(lc)
    facets = lc.oriented.complex.facets
    by_vertex = {}
    for idx in balanced:
        for v in facets[idx]:
            by_vertex.setdefault(v, []).append(idx)
    seen = set()
    components = []
    for start in balanced:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            f = stack.pop()
            if f in comp:
                continue
            comp.add(f)
            for v in facets[f]:
                stack.extend(g for g in by_vertex[v] if g not in comp)
        seen |= comp
        components.append(frozenset(comp))
    components.sort(key=lambda c: sorted(c))
    return components


def component_index(lc: LabeledCover, component) -> int:
    """Degree of the cover on the boundary of the component's neighborhood."""
    sub = barycentric_subdivision(lc.oriented)
    return _component_index(lc, sub, set(balanced_facet_indices(lc)), component)


def _component_index(lc: LabeledCover, sub, balanced, component) -> int:
    """``component_index`` given the whole complex's subdivision and the
    set of balanced facet indices."""
    component = frozenset(component)
    facets = lc.oriented.complex.facets
    if not component <= balanced:
        raise ValueError("component contains non-balanced facets")
    comp_faces = set()
    for idx in component:
        f = facets[idx]
        for size in range(1, len(f) + 1):
            comp_faces.update(combinations(f, size))
    sd = sub.oriented
    carriers = sub.carriers
    # the neighborhood: subdivision facets meeting the component's faces
    marked = {w for w, face in enumerate(carriers) if face in comp_faces}
    in_n = [i for i, f in enumerate(sd.complex.facets) if any(w in marked for w in f)]
    # the neighborhood must avoid every other balanced facet's territory:
    # each subdivision facet sits inside exactly one original facet (the top
    # of its flag)
    position = {f: idx for idx, f in enumerate(facets)}
    for i in in_n:
        flag_faces = [carriers[w] for w in sd.complex.facets[i]]
        owner = position[max(flag_faces, key=len)]
        if owner in balanced and owner not in component:
            raise NotIsolated(
                f"neighborhood touches balanced facet {facets[owner]}"
            )
    n_complex = SimplicialComplex(
        sd.complex.num_vertices, tuple(sd.complex.facets[i] for i in in_n)
    )
    n_oriented = OrientedComplex(
        n_complex, tuple(sd.orientation[i] for i in in_n)
    )
    rim = boundary_complex(n_oriented)
    for f in rim.complex.facets:
        if any(w in marked for w in f):
            raise BoundaryTouchesBalanced(
                "component reaches the boundary of its own neighborhood"
            )
    labels = []
    for w in range(sd.complex.num_vertices):
        face = carriers[w]
        labels.append(frozenset().union(*(lc.labels[v] for v in face)))
    rim_cover = LabeledCover(rim, tuple(labels), lc.firm_system)
    res = pl_degree(rim_cover)
    if isinstance(res, BalancedSimplexFound):
        raise BoundaryTouchesBalanced(
            f"balanced simplex {res.facet} on the neighborhood boundary"
        )
    return res.value


@dataclass(frozen=True)
class IndexSumReport:
    boundary_degree: object  # Degree or BalancedSimplexFound
    components: tuple  # ((facet indices, index), ...)
    sum_matches: bool


def index_sum_check(lc: LabeledCover) -> IndexSumReport:
    """Compare the region-boundary degree with the sum of component indices."""
    rim = boundary_complex(lc.oriented)
    rim_cover = LabeledCover(rim, lc.labels, lc.firm_system)
    boundary_degree = pl_degree(rim_cover)
    sub = barycentric_subdivision(lc.oriented)
    balanced = set(balanced_facet_indices(lc))
    indexed = tuple(
        (tuple(sorted(c)), _component_index(lc, sub, balanced, c))
        for c in balanced_components(lc)
    )
    matches = isinstance(boundary_degree, Degree) and boundary_degree.value == sum(
        ix for _, ix in indexed
    )
    return IndexSumReport(boundary_degree, indexed, matches)
