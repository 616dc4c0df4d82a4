"""Reference version of ``fraccore.topology.index.balanced_components``.

Test-only.  It is the depth-first search over a vertex -> balanced facets
map that the library ran before it read the components off one union-find,
so the two share no connectivity code.  It takes the balanced facets from
the library and must return exactly the library's list of components.
"""

from __future__ import annotations

from fraccore.topology.index import balanced_facet_indices


def balanced_components(lc):
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
