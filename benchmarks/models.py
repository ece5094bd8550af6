"""Model files for the benchmark scenes, written as edgetrack `.model` text."""

from __future__ import annotations

import math

# The 60 mm cube of the acceptance tests: 12 triangles as occluders and its
# 12 silhouette-forming edges as explicit contour edges.
_CUBE_VERTICES = [
    (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
    (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
]
_CUBE_FACES = [
    (1, 2, 3), (1, 3, 4), (5, 6, 7), (5, 7, 8),
    (1, 2, 6), (1, 6, 5), (4, 3, 7), (4, 7, 8),
    (1, 4, 8), (1, 8, 5), (2, 3, 7), (2, 7, 6),
]
_CUBE_EDGES = [
    (1, 2), (2, 3), (3, 4), (4, 1),
    (5, 6), (6, 7), (7, 8), (8, 5),
    (1, 5), (2, 6), (3, 7), (4, 8),
]


def cube_text(side: float = 60.0) -> str:
    half = side / 2.0
    lines = [f"# cube, side {side:g} mm"]
    lines += [f"v {x * half} {y * half} {z * half}" for x, y, z in _CUBE_VERTICES]
    lines += ["f %d %d %d" % f for f in _CUBE_FACES]
    lines += ["e %d %d" % e for e in _CUBE_EDGES]
    return "\n".join(lines) + "\n"


def icosphere_text(radius: float = 30.0, subdivisions: int = 1) -> str:
    """Icosahedron split `subdivisions` times, vertices pushed to the sphere.

    No `e` lines, so load_model derives every triangle side as an edge:
    one subdivision gives 42 vertices, 80 faces and 120 edges.
    """
    p = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, p, 0), (1, p, 0), (-1, -p, 0), (1, -p, 0),
        (0, -1, p), (0, 1, p), (0, -1, -p), (0, 1, -p),
        (p, 0, -1), (p, 0, 1), (-p, 0, -1), (-p, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [_on_sphere(v, radius) for v in verts]
    for _ in range(subdivisions):
        midpoints: dict = {}

        def midpoint(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            if key not in midpoints:
                m = tuple((verts[a][k] + verts[b][k]) / 2.0 for k in range(3))
                verts.append(_on_sphere(m, radius))
                midpoints[key] = len(verts) - 1
            return midpoints[key]

        split = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            split += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = split
    lines = [f"# icosphere, radius {radius:g} mm, {subdivisions} subdivision(s)"]
    lines += [f"v {x!r} {y!r} {z!r}" for x, y, z in verts]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def _on_sphere(v, radius: float) -> tuple:
    norm = math.sqrt(sum(c * c for c in v))
    return tuple(radius * c / norm for c in v)
