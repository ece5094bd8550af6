"""Software rendering of edge-ID and depth buffers, and visibility testing.

Hidden-line removal works in two passes: all triangular faces are filled into
a depth buffer (nearest camera-space z wins, depth perspective-correct via
linear 1/z interpolation), then each contour edge is line-stepped and its
encoded ID color written wherever it survives the hidden-line test: the
frontmost face at the pixel is one of the edge's own faces, or nothing was
drawn there, or the line depth is within a small relative bias of the stored
depth.  Edge IDs are packed into RGB with a spacing of 8 between channel
levels; black is reserved for background.

A pixel's edge ID answers "is this control point visible" without GPU
occlusion queries.  An independent ray-casting oracle (`visibility_oracle`)
exists purely to cross-check the buffer-based test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    MAX_EDGES,
    CameraIntrinsics,
    PoseSE3,
    WireframeModel,
    project_cam,
    transform_np,
)
from .imaging import ColorImage, GrayImage, RGB888

NEAR_PLANE_MM = 1.0
DEPTH_BIAS = 1e-3  # relative; edges sit on their faces, avoid self-occlusion
BACKGROUND = -1  # decoded-ID sentinel for black pixels

MAX_EDGE_ID = MAX_EDGES - 1  # (MAX_EDGES + 1) * 8 would encode to black = background


class CapacityError(ValueError):
    """Edge index outside the 15-bit ID coding capacity."""


# ---------------------------------------------------------------------------
# Edge-ID codec.

def encode_edge_id(i: int) -> tuple[int, int, int]:
    """Pack edge index i into an (R, G, B) triple, channels multiples of 8."""
    if not 0 <= i <= MAX_EDGE_ID:
        raise CapacityError(f"edge index {i} outside [0, {MAX_EDGE_ID}]")
    b_code = (i + 1) * 8
    g_code = (b_code // 256) * 8
    r_code = (g_code // 256) * 8
    return (r_code % 256, g_code % 256, b_code % 256)


def decode_edge_id(r: int, g: int, b: int) -> int:
    """Inverse of encode_edge_id; black returns the BACKGROUND sentinel."""
    if r == 0 and g == 0 and b == 0:
        return BACKGROUND
    rg = (r // 8) * 256 + g
    rgb = (rg // 8) * 256 + b
    return rgb // 8 - 1


def decode_id_array(rgb: np.ndarray) -> np.ndarray:
    """Vectorized decode of an (h, w, 3) uint8 buffer to int32 IDs."""
    r = rgb[..., 0].astype(np.int32)
    g = rgb[..., 1].astype(np.int32)
    b = rgb[..., 2].astype(np.int32)
    rg = (r // 8) * 256 + g
    ids = ((rg // 8) * 256 + b) // 8 - 1
    ids[(r == 0) & (g == 0) & (b == 0)] = BACKGROUND
    return ids


# ---------------------------------------------------------------------------
# Buffers.

@dataclass
class DepthBuffer:
    """Per-pixel camera-space z in mm; +inf where nothing was drawn."""

    width: int
    height: int
    depth: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.depth is None:
            self.depth = np.full((self.height, self.width), np.inf, dtype=np.float64)


@dataclass
class IdBuffer:
    """Per-pixel encoded edge-ID color; black (0,0,0) is background."""

    width: int
    height: int
    rgb: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.rgb is None:
            self.rgb = np.zeros((self.height, self.width, 3), dtype=np.uint8)

    def decode_at(self, x: int, y: int) -> int:
        r, g, b = self.rgb[y, x]
        return decode_edge_id(int(r), int(g), int(b))


# ---------------------------------------------------------------------------
# Rendering.

def _clip_polygon_near(points_cam: list[np.ndarray]) -> list[np.ndarray]:
    """Sutherland-Hodgman clip of a camera-space polygon against z >= near."""
    out: list[np.ndarray] = []
    n = len(points_cam)
    for i in range(n):
        a, b = points_cam[i], points_cam[(i + 1) % n]
        a_in, b_in = a[2] >= NEAR_PLANE_MM, b[2] >= NEAR_PLANE_MM
        if a_in:
            out.append(a)
        if a_in != b_in:
            s = (NEAR_PLANE_MM - a[2]) / (b[2] - a[2])
            out.append(a + s * (b - a))
    return out


def _clip_segment_near(a: np.ndarray, b: np.ndarray):
    """Clip a camera-space segment against z >= near; None when fully behind."""
    a_in, b_in = a[2] >= NEAR_PLANE_MM, b[2] >= NEAR_PLANE_MM
    if not a_in and not b_in:
        return None
    if a_in and b_in:
        return a, b
    s = (NEAR_PLANE_MM - a[2]) / (b[2] - a[2])
    cross = a + s * (b - a)
    return (cross, b) if not a_in else (a, cross)


def _fill_triangle(depth: np.ndarray, owner: np.ndarray, face_index: int,
                   pts: list, K: CameraIntrinsics):
    """Depth fill of one camera-space triangle, pixel centers at ints.

    ``owner`` records which face currently holds each pixel's nearest depth;
    the edge pass uses it for hidden-line adjacency tests.
    """
    uv = [project_cam(p, K) for p in pts]
    inv_z = [1.0 / p[2] for p in pts]
    (x0, y0), (x1, y1), (x2, y2) = uv
    area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if area == 0.0:
        return
    h, w = depth.shape
    xs_min = max(0, math.ceil(min(x0, x1, x2)))
    xs_max = min(w - 1, math.floor(max(x0, x1, x2)))
    ys_min = max(0, math.ceil(min(y0, y1, y2)))
    ys_max = min(h - 1, math.floor(max(y0, y1, y2)))
    if xs_min > xs_max or ys_min > ys_max:
        return
    xs = np.arange(xs_min, xs_max + 1, dtype=np.float64)
    ys = np.arange(ys_min, ys_max + 1, dtype=np.float64)[:, None]
    e12 = (x2 - x1) * (ys - y1) - (y2 - y1) * (xs - x1)  # barycentric of v0
    e20 = (x0 - x2) * (ys - y2) - (y0 - y2) * (xs - x2)  # barycentric of v1
    e01 = (x1 - x0) * (ys - y0) - (y1 - y0) * (xs - x0)  # barycentric of v2
    if area > 0.0:
        mask = (e12 >= 0.0) & (e20 >= 0.0) & (e01 >= 0.0)
    else:
        mask = (e12 <= 0.0) & (e20 <= 0.0) & (e01 <= 0.0)
    if not mask.any():
        return
    inv_z_px = (e12 * inv_z[0] + e20 * inv_z[1] + e01 * inv_z[2]) / area
    with np.errstate(divide="ignore"):
        z = 1.0 / inv_z_px
    region = depth[ys_min:ys_max + 1, xs_min:xs_max + 1]
    owner_region = owner[ys_min:ys_max + 1, xs_min:xs_max + 1]
    write = mask & (z < region)
    region[write] = z[write]
    owner_region[write] = face_index


def _edge_pixels(a: np.ndarray, b: np.ndarray, K: CameraIntrinsics):
    """Line-step a camera-space segment clipped against the near plane.

    Returns None when the segment lies wholly behind the near plane or off
    the image, else ``(ends, uv, x, y, s, steps)``: the clipped camera-space
    ends, their projections, and for each traced step k the pixel column and
    row (rounded with floor(. + 0.5)) and the parameter s = k / steps from
    uv[0] to uv[1].  ``steps`` and s always refer to the whole segment, but
    only the steps that can land on the image are traced, plus at least one
    off-image step at each cut end; the first traced step therefore never
    hides an on-image repeat of its predecessor.  Pixels are neither
    de-duplicated nor bounds-checked.
    """
    ends = _clip_segment_near(a, b)
    if ends is None:
        return None
    uv = project_cam(ends[0], K), project_cam(ends[1], K)
    (ua, va), (ub, vb) = uv
    steps = max(1, math.ceil(max(abs(ub - ua), abs(vb - va))))
    span = _margin_span(uv, K)
    if span is None:
        return None
    k = np.arange(max(0, math.floor(span[0] * steps)), min(steps, math.ceil(span[1] * steps)) + 1)
    s = k / steps
    x = np.floor(ua + s * (ub - ua) + 0.5).astype(np.int64)
    y = np.floor(va + s * (vb - va) + 0.5).astype(np.int64)
    return ends, uv, x, y, s, steps


# A traced point rounds onto the image when it lies in [-0.5, size - 0.5)
# on both axes.  The margin box adds one pixel on every side.  A step moves
# at most one pixel per axis, so the neighbours of every on-image step lie
# inside the box, and a step on the box border is off the image by a pixel,
# far beyond float rounding.
_MARGIN_LO = -1.5


def _margin_span(uv, K: CameraIntrinsics):
    """Parameter interval [s0, s1] of the projected segment inside the
    margin box (Liang-Barsky); None when it misses the box."""
    (ua, va), (ub, vb) = uv
    s0, s1 = 0.0, 1.0
    for a, b, size in ((ua, ub, K.width), (va, vb, K.height)):
        d = b - a
        lo, hi = _MARGIN_LO - a, size + 0.5 - a
        if d == 0.0:
            if lo > 0.0 or hi < 0.0:
                return None
            continue
        lo, hi = (lo / d, hi / d) if d > 0.0 else (hi / d, lo / d)
        s0, s1 = max(s0, lo), min(s1, hi)
    return (s0, s1) if s0 <= s1 else None


def render_id_buffer(
    model: WireframeModel, pose: PoseSE3, K: CameraIntrinsics
) -> tuple[IdBuffer, DepthBuffer]:
    """Render the model's faces to depth and its edges to ID colors."""
    depth_buf = DepthBuffer(K.width, K.height)
    id_buf = IdBuffer(K.width, K.height)
    cam = transform_np(model.vertices, pose.rotation(), pose.t)

    owner = np.full((K.height, K.width), -1, dtype=np.int32)
    for fi, f in enumerate(model.faces):
        poly = _clip_polygon_near([cam[f[0]], cam[f[1]], cam[f[2]]])
        for j in range(1, len(poly) - 1):  # fan-triangulate the clipped polygon
            _fill_triangle(depth_buf.depth, owner, fi, [poly[0], poly[j], poly[j + 1]], K)

    # An edge pixel survives hidden-line removal when the frontmost surface
    # there is one of the edge's own faces (the edge bounds the visible
    # surface), when nothing was drawn there, or when the line depth is
    # within the relative bias of the stored depth.  The adjacency clause
    # covers steep faces whose pixel-center depth sits well in front of the
    # exact edge depth, where any fixed bias would misjudge.
    adjacency = model.edge_faces
    depth = depth_buf.depth

    # Among edges crossing one pixel the nearest wins, independent of order.
    edge_depth = np.full((K.height, K.width), np.inf, dtype=np.float64)
    for i, e in enumerate(model.edges):
        trace = _edge_pixels(cam[e[0]], cam[e[1]], K)
        if trace is None:
            continue
        (a, b), _, x, y, s, _ = trace
        # Drop consecutive repeats, then pixels off the image.
        keep = np.ones(len(s), dtype=bool)
        keep[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
        keep &= (x >= 0) & (x < K.width) & (y >= 0) & (y < K.height)
        x, y, s = x[keep], y[keep], s[keep]
        inv_za, inv_zb = 1.0 / a[2], 1.0 / b[2]
        z = 1.0 / (inv_za + s * (inv_zb - inv_za))
        passes = z <= depth[y, x] * (1.0 + DEPTH_BIAS)
        front = owner[y, x]
        for f in adjacency[i]:
            passes |= front == f
        # The stepped pixels are monotone in x and y, so after de-duplication
        # each appears once and the writes below cannot collide.
        write = passes & (z < edge_depth[y, x])
        x, y = x[write], y[write]
        edge_depth[y, x] = z[write]
        id_buf.rgb[y, x] = encode_edge_id(i)
    return id_buf, depth_buf


# ---------------------------------------------------------------------------
# Visibility tests.

# Offsets (dy, dx) of a pixel's 3x3 neighbourhood.
_NEIGHBOURS = np.array([(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)])


def points_visible(px, py, edges, id_buffer: IdBuffer) -> np.ndarray:
    """Per point, whether the ID buffer credits pixel round(p) (or a 3x3
    neighbour) to the point's edge.

    Rounding is to the nearest pixel, ties away from zero; a point whose
    pixel is off the image is not visible.  The neighbourhood absorbs the
    quantization gap between sub-pixel control points and the
    integer-rasterized buffer.  Only the gathered pixels are decoded.
    """
    w, h = id_buffer.width, id_buffer.height
    px, py = np.asarray(px, dtype=np.float64), np.asarray(py, dtype=np.float64)
    x = np.where(px >= 0.0, np.floor(px + 0.5), np.ceil(px - 0.5))
    y = np.where(py >= 0.0, np.floor(py + 0.5), np.ceil(py - 0.5))
    inside = (x >= 0) & (x < w) & (y >= 0) & (y < h)
    nx = np.where(inside, x, 0).astype(np.int64)[:, None] + _NEIGHBOURS[:, 1]
    ny = np.where(inside, y, 0).astype(np.int64)[:, None] + _NEIGHBOURS[:, 0]
    on_image = (nx >= 0) & (nx < w) & (ny >= 0) & (ny < h)
    ids = decode_id_array(id_buffer.rgb[np.clip(ny, 0, h - 1), np.clip(nx, 0, w - 1)])
    own = on_image & (ids == np.asarray(edges)[:, None])
    return inside & own.any(axis=1)


def is_point_visible(p, edge_index: int, id_buffer: IdBuffer) -> bool:
    """True when the ID buffer credits pixel round(p) (or a 3x3 neighbor) to edge_index."""
    return bool(points_visible([p[0]], [p[1]], [edge_index], id_buffer)[0])


def visibility_oracle(
    model: WireframeModel, pose: PoseSE3, K: CameraIntrinsics, p3d, tol: float = 1e-6
) -> bool:
    """Ray-cast visibility of a world point on a model edge.

    Visible iff the open segment from the camera center to the point crosses
    no model face strictly nearer than the point (relative tolerance excludes
    the faces the edge itself lies on).
    """
    del K  # visibility is viewport-independent; kept for signature symmetry
    center = pose.camera_center()
    target = np.asarray(p3d, dtype=np.float64)
    direction = target - center
    dist = float(np.linalg.norm(direction))
    if dist == 0.0:
        return False
    direction = direction / dist

    v0 = model.vertices[model.faces[:, 0]]
    e1 = model.vertices[model.faces[:, 1]] - v0
    e2 = model.vertices[model.faces[:, 2]] - v0
    # Moller-Trumbore, vectorized across faces.
    pvec = np.cross(direction, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = np.where(np.abs(det) > 1e-12, 1.0 / det, 0.0)
        tvec = center - v0
        u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
        qvec = np.cross(tvec, e1)
        v = np.einsum("ij,j->i", qvec, direction) * inv_det
        s = np.einsum("ij,ij->i", e2, qvec) * inv_det
    hit = (
        (np.abs(det) > 1e-12)
        & (u >= -1e-9)
        & (v >= -1e-9)
        & (u + v <= 1.0 + 1e-9)
        & (s > dist * tol)
        & (s < dist * (1.0 - tol))
    )
    return not bool(hit.any())


# ---------------------------------------------------------------------------
# Debug dumps.

def id_buffer_to_image(id_buffer: IdBuffer) -> ColorImage:
    return ColorImage(id_buffer.rgb.copy(), RGB888)


def depth_buffer_to_image(depth_buffer: DepthBuffer) -> GrayImage:
    """Nearest depth maps dark, farthest light; empty pixels white."""
    d = depth_buffer.depth
    finite = np.isfinite(d)
    out = np.full(d.shape, 255, dtype=np.uint8)
    if finite.any():
        lo, hi = float(d[finite].min()), float(d[finite].max())
        span = hi - lo if hi > lo else 1.0
        out[finite] = np.clip((d[finite] - lo) / span * 254.0, 0.0, 254.0).astype(np.uint8)
    return GrayImage(out)
