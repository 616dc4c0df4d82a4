"""A 12-vertex triangulated 3-sphere carrying a simplicial map of Hopf
invariant one onto the tetrahedron boundary.

Built as a Heegaard splitting around the four fiber triangles: a
cone-solid-torus around the fourth fiber (27 cells, wedge prisms risen
core-first to keep every cell at three target vertices) glued to a
twisted-prism solid torus on the three remaining fiber circles (12 cells,
each twisted prism coned from a corner).  Machine-verified on load: closed,
connected, orientable, all vertex links 2-spheres (which forces Euler
characteristic 0); the test-suite additionally pins H_1 = 0 and the Hopf
invariant.

Vertices 0..8 lie on the three fibers of colors 0,1,2 (three vertices
each); vertices 9..11 form the color-3 fiber at the core.
"""

from __future__ import annotations

import hashlib
import json

from ..errors import NotSphere
from .complexes import OrientedComplex, SimplicialComplex, propagate_orientation, validate_closed_manifold

FACETS = (
    (0, 1, 2, 5), (0, 1, 2, 6), (0, 1, 4, 5), (0, 1, 4, 10), (0, 1, 6, 10),
    (0, 2, 3, 5), (0, 2, 3, 9), (0, 2, 6, 8), (0, 2, 8, 9), (0, 3, 4, 5),
    (0, 3, 4, 10), (0, 3, 9, 10), (0, 6, 8, 9), (0, 6, 9, 10), (1, 2, 5, 11),
    (1, 2, 6, 7), (1, 2, 7, 11), (1, 4, 5, 11), (1, 4, 10, 11), (1, 6, 7, 10),
    (1, 7, 10, 11), (2, 3, 5, 9), (2, 5, 9, 11), (2, 6, 7, 8), (2, 7, 8, 11),
    (2, 8, 9, 11), (3, 4, 5, 8), (3, 4, 7, 8), (3, 4, 7, 10), (3, 5, 6, 8),
    (3, 5, 6, 9), (3, 6, 7, 8), (3, 6, 7, 10), (3, 6, 9, 10), (4, 5, 8, 11),
    (4, 7, 8, 11), (4, 7, 10, 11), (5, 6, 8, 9), (5, 8, 9, 11),
)

COLORING = (0, 1, 2, 2, 0, 1, 1, 2, 0, 3, 3, 3)

SHA256 = "0eca7ab8a91daf80841a337aa88b79cd5ea0c42c4c1a67ebc53142e01f1a3760"


def checksum() -> str:
    blob = json.dumps(
        {"facets": [list(f) for f in FACETS], "coloring": list(COLORING)},
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def load() -> tuple[OrientedComplex, tuple]:
    """The oriented sphere complex and its vertex coloring, validated."""
    if checksum() != SHA256:
        raise NotSphere("asset data corrupted: checksum mismatch")
    K = SimplicialComplex(12, FACETS)
    report = validate_closed_manifold(K)
    if not (report.closed and report.connected and report.orientable and report.links_ok):
        raise NotSphere("asset data corrupted: manifold checks failed")
    oriented = propagate_orientation(K)
    assert oriented is not None
    return oriented, COLORING
