"""Software rendering of edge-ID buffers, and visibility testing.

Hidden-line removal needs the nearest model face only where an edge is
drawn, so face depth is evaluated only at traced edge pixels.  All contour
edges are line-stepped in one array pass.  At each distinct on-image pixel
of that trace, every triangle of the near-clipped, fan-triangulated faces is
tested (bounding box and three edge functions, depth perspective-correct
via linear 1/z interpolation) and the nearest face wins, on a tie the lower
face index.  The (triangle, pixel) pairs in the bounding boxes come from
one of two enumerations with the same result, chosen by the size of the
triangles-by-pixels grid (_MASK_GRID): a small grid, such as a cube's, is
masked as a whole, which costs a few array operations; a large one, such
as an icosphere's, walks the box rows, which tests only the pixels of rows
a box spans.  The mask is the faster of the two on the cube, the row walk
on the icosphere.  Each edge's ID is then written wherever it survives the
hidden-line test: the frontmost face at the pixel is one of the edge's own
faces, or no face covers it, or the line depth is within a small relative
bias of the face depth; among surviving edges the nearest wins.  The buffer
is the one a full-image z-fill of every face would give.

A pixel's ID depends only on its own trace steps and face depth, so
`render_id_buffer` can also render just the pixels a caller will read: the
tracker passes the 3x3 neighbourhoods of its control points
(`read_pixels`), about a third of the traced pixels of a cube frame, and
every other pixel stays background.  `render_depth_buffer` runs the same
per-pixel face query over every pixel, for debug dumps.

The buffer holds integer edge IDs, BACKGROUND (-1) where no edge is drawn.
The colour code an OpenGL ID render would write packs an ID into RGB with a
spacing of 8 between channel levels, black for background; it is applied
only when a buffer becomes an image (`id_buffer_to_image`).

A pixel's edge ID answers "is this control point visible" without GPU
occlusion queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import (
    MAX_EDGES,
    CameraIntrinsics,
    PoseSE3,
    WireframeModel,
    clip_box,
    clip_near,
    project_cam,
    transform_np,
)
from .imaging import ColorImage, GrayImage, RGB888
from .realmath import FloatBackend

NEAR_PLANE_MM = 1.0
DEPTH_BIAS = 1e-3  # relative; edges sit on their faces, avoid self-occlusion
BACKGROUND = -1  # decoded-ID sentinel for black pixels

MAX_EDGE_ID = MAX_EDGES - 1  # (MAX_EDGES + 1) * 8 would encode to black = background


class CapacityError(ValueError):
    """Edge index outside the 15-bit ID coding capacity."""


# ---------------------------------------------------------------------------
# Edge-ID codec.

def encode_id_array(ids) -> np.ndarray:
    """Edge IDs to (..., 3) uint8 colors: ID i packs into B = (i + 1) * 8,
    with each channel's overflow carried into the next as a multiple of 8."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() > MAX_EDGE_ID):
        raise CapacityError(f"edge index outside [0, {MAX_EDGE_ID}]")
    b_code = (ids + 1) * 8
    g_code = (b_code // 256) * 8
    r_code = (g_code // 256) * 8
    return (np.stack([r_code, g_code, b_code], axis=-1) % 256).astype(np.uint8)


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
    """Per-pixel edge ID, BACKGROUND where no edge is drawn.

    ``ids`` is an (h, w) int16 array, which holds every ID up to
    MAX_EDGE_ID.  A buffer rendered at chosen pixels holds IDs there only.
    ``trace`` holds the edge steps the buffer was drawn from, when
    render_id_buffer made it.
    """

    width: int
    height: int
    ids: np.ndarray = field(default=None)
    trace: Optional["EdgeTrace"] = None

    def __post_init__(self):
        if self.ids is None:
            self.ids = np.full((self.height, self.width), BACKGROUND, dtype=np.int16)


# ---------------------------------------------------------------------------
# Edge trace.

@dataclass
class EdgeTrace:
    """The line-stepped edges of one view, all edges in one set of arrays.

    Per edge: ``uv`` (E, 2, 2) holds the projections of the near-clipped
    ends, ``inv_z`` (E, 2) their reciprocal camera-space depths and
    ``steps`` (E,) the step count of the whole projected segment; edges with
    no traced step hold NaN and 0.  Per traced step, grouped by edge in edge
    order and ascending k: ``edge``, the pixel column ``x`` and row ``y``
    (rounded with floor(. + 0.5)) and the parameter ``s = k / steps`` from
    uv[e, 0] to uv[e, 1].
    """

    uv: np.ndarray
    inv_z: np.ndarray
    steps: np.ndarray
    edge: np.ndarray
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray


# A traced point rounds onto the image when it lies in [-0.5, size - 0.5)
# on both axes.  The margin box adds one pixel on every side.  A step moves
# at most one pixel per axis, so the neighbours of every on-image step lie
# inside the box, and a step on the box border is off the image by a pixel,
# far beyond float rounding.
_MARGIN_LO = -1.5
_FLOAT = FloatBackend()


def _edge_pixels(a: np.ndarray, b: np.ndarray, K: CameraIntrinsics) -> EdgeTrace:
    """Line-step camera-space segments a[i]-b[i], each clipped against the
    near plane; a and b are (E, 3).

    Each segment steps ``steps = max(1, ceil(max(|du|, |dv|)))`` times over
    its whole projection, but only the steps inside the margin box
    [-1.5, size + 0.5] on both axes are traced, plus at least one step
    outside it at each cut end; the first traced step of an edge therefore
    never hides an on-image repeat of its predecessor.  A segment wholly
    behind the near plane or outside the box has no traced step.  Pixels
    are neither de-duplicated nor bounds-checked.
    """
    n_edges = len(a)
    live, a, b = clip_near(a.T, b.T, NEAR_PLANE_MM, _FLOAT)
    Kf = K.to_backend(_FLOAT)
    pa, pb = project_cam(a, Kf), project_cam(b, Kf)
    d = pb - pa
    steps = np.maximum(1.0, np.ceil(np.maximum(*np.abs(d)))).astype(np.int64)
    s0, s1, hit = clip_box(pa, d, (_MARGIN_LO, _MARGIN_LO), (K.width + 0.5, K.height + 0.5),
                           _FLOAT)
    k0 = np.maximum(0.0, np.floor(s0 * steps)).astype(np.int64)
    k1 = np.minimum(steps, np.ceil(s1 * steps).astype(np.int64))
    counts = np.where(hit, k1 - k0 + 1, 0)

    edge = np.repeat(live, counts)
    first = np.repeat(np.cumsum(counts) - counts - k0, counts)  # row of step 0
    at = np.repeat(np.arange(len(live)), counts)
    s = (np.arange(len(edge)) - first) / steps[at]
    # np.take keeps the (2, K) steps row-major; pa[:, at] would lay them out
    # step-major, and every ufunc below would then run two elements at a time.
    x, y = np.floor(np.take(pa, at, axis=1) + s * np.take(d, at, axis=1) + 0.5).astype(np.int64)

    uv = np.full((n_edges, 2, 2), np.nan)
    uv[live] = np.stack([pa.T, pb.T], axis=1)
    inv_z = np.full((n_edges, 2), np.nan)
    inv_z[live] = 1.0 / np.stack([a[2], b[2]], axis=-1)
    all_steps = np.zeros(n_edges, dtype=np.int64)
    all_steps[live] = steps
    return EdgeTrace(uv, inv_z, all_steps, edge, x, y, s)


# ---------------------------------------------------------------------------
# Face depth at chosen pixels.

# A query of fewer (triangle, pixel) pairs than this takes the pairs in the
# triangles' bounding boxes from one mask over the whole grid, at most this
# many booleans; a larger one walks the box rows.  At cube scale the mask is
# a few array operations where the walk spends its time on per-row
# bookkeeping; at icosphere scale a triangle's box holds a few percent of
# the pixels, and masking the whole grid costs more than the walk saves.
# Per query on the standard orbit (Xeon, Python 3.11, numpy 2.4; mask
# against walk): cube tracker, 12 x ~330, 0.22 against 0.32 ms; cube
# synthesis, 12 x ~1100, 0.44 against 0.52 ms; icosphere synthesis,
# 80 x ~3650, 2.43 against 1.74 ms.
_MASK_GRID = 1 << 15

# A row walk tests at most this many pixel-triangle pairs at once, which
# bounds its temporaries.
_PAIR_CHUNK = 1 << 12


def _triangles(model: WireframeModel, cam: np.ndarray):
    """Camera-space triangles (T, 3, 3) of the faces clipped against the
    near plane and fan-triangulated, with each triangle's face index.

    The faces crossing the plane are clipped as their edges v0-v1, v1-v2,
    v2-v0 in one clip_near call, which is the Sutherland-Hodgman clip of
    each: every edge with an end in front gives its a end, moved onto the
    plane when behind, then its moved b end when b is behind.
    """
    pts = cam[model.faces]
    front = pts[:, :, 2] >= NEAR_PLANE_MM
    whole = front.all(axis=1)
    tris, faces = pts[whole], np.flatnonzero(whole)
    cross = np.flatnonzero(front.any(axis=1) & ~whole)
    if len(cross) == 0:
        return tris, faces
    a = pts[cross].reshape(-1, 3)
    b = pts[cross][:, [1, 2, 0]].reshape(-1, 3)
    live, ca, cb = clip_near(a.T, b.T, NEAR_PLANE_MM, _FLOAT)
    ends = np.stack([ca.T, cb.T], axis=1)
    emit = np.stack([np.ones(len(live), dtype=bool), b[live, 2] < NEAR_PLANE_MM], axis=1)
    poly = ends[emit]  # the clipped polygons' points, face by face in order
    # A clipped triangle has 3 or 4 points: fan triangles (0, j, j + 1) of each.
    counts = np.bincount(np.repeat(live // 3, emit.sum(axis=1)), minlength=len(cross))
    fans = counts - 2
    fan = np.repeat(np.arange(len(cross)), fans)
    start = (np.cumsum(counts) - counts)[fan]
    j = start + np.arange(len(fan)) - np.repeat(np.cumsum(fans) - fans, fans) + 1
    corners = poly[np.stack([start, j, j + 1], axis=1)]
    return np.concatenate([tris, corners]), np.concatenate([faces, cross[fan]])


def _face_depth(model: WireframeModel, cam: np.ndarray, K: CameraIntrinsics, pixels):
    """Nearest face depth and its face index at each of ``pixels``, sorted
    distinct flat indices y * width + x of pixel centers.

    A pixel belongs to a triangle when it lies in the triangle's bounding
    box and all three edge functions share the sign of its area, zero
    included.  The depth there is perspective-correct: 1/z is interpolated
    linearly with the barycentric weights of the edge functions.  Among the
    triangles holding a pixel the nearest wins, on equal depth the lowest
    face index, so the result is that of filling the faces into a depth
    buffer in order with a strict less-than test.  Pixels no face holds get
    depth +inf and face -1.

    The (triangle, pixel) pairs in the bounding boxes are enumerated in one
    of two ways, which give the same pairs in the same order (by triangle,
    then pixel): a grid of fewer than _MASK_GRID pairs, such as a cube's,
    is masked as a whole (_box_mask_pairs); a larger one, such as an
    icosphere's or a full-image query, walks the box rows
    (_box_row_pairs).  Each is the faster one at its scale: the mask on the
    cube, where the walk's per-row bookkeeping dominates, the row walk on
    the icosphere, whose boxes each hold few of the pixels.  Both feed the
    same per-pair test.
    """
    tris, faces = _triangles(model, cam)
    u, v = project_cam(tris.reshape(-1, 3).T, K.to_backend(_FLOAT)).reshape(2, -1, 3)
    (x0, x1, x2), (y0, y1, y2) = u.T, v.T
    area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    keep = area != 0.0
    coef = np.stack([x0, y0, x1, y1, x2, y2, *(1.0 / tris[..., 2]).T, area], axis=1)[keep]
    u, v, faces = u[keep], v[keep], faces[keep]
    box = (np.maximum(0.0, np.ceil(u.min(axis=1))),
           np.minimum(K.width - 1.0, np.floor(u.max(axis=1))),
           np.maximum(0.0, np.ceil(v.min(axis=1))),
           np.minimum(K.height - 1.0, np.floor(v.max(axis=1))))
    xs, ys = (pixels % K.width).astype(np.float64), (pixels // K.width).astype(np.float64)
    if len(faces) * len(pixels) < _MASK_GRID:
        pairs = [_box_mask_pairs(box, xs, ys)]
    else:
        pairs = _box_row_pairs(box, pixels, K.width)

    hits_p, hits_z, hits_f = [], [], []
    for t, p in pairs:
        x, y = xs[p], ys[p]
        x0, y0, x1, y1, x2, y2, iz0, iz1, iz2, area = coef[t].T
        e12 = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)  # barycentric of v0
        e20 = (x0 - x2) * (y - y2) - (y0 - y2) * (x - x2)  # barycentric of v1
        e01 = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)  # barycentric of v2
        sign = np.sign(area)  # flipping a sign is exact, so the tests are too
        inside = (e12 * sign >= 0.0) & (e20 * sign >= 0.0) & (e01 * sign >= 0.0)
        with np.errstate(divide="ignore"):
            z = 1.0 / ((e12 * iz0 + e20 * iz1 + e01 * iz2) / area)
        inside &= z < np.inf
        hits_p.append(p[inside])
        hits_z.append(z[inside])
        hits_f.append(faces[t[inside]])

    if not hits_p:
        return np.full(len(pixels), np.inf), np.full(len(pixels), -1)
    return _nearest(np.concatenate(hits_p), np.concatenate(hits_z),
                    np.concatenate(hits_f), len(pixels))


def _box_mask_pairs(box, xs: np.ndarray, ys: np.ndarray):
    """The (triangle, pixel) index pairs of the pixels at xs, ys inside each
    triangle's bounding box box = (x_lo, x_hi, y_lo, y_hi), by triangle,
    then pixel, from one (T, P) mask."""
    x_lo, x_hi, y_lo, y_hi = (b[:, None] for b in box)
    return np.nonzero((xs >= x_lo) & (xs <= x_hi) & (ys >= y_lo) & (ys <= y_hi))


def _box_row_pairs(box, pixels: np.ndarray, width: int):
    """The pairs of _box_mask_pairs for the sorted flat pixel indices
    pixels, in the same order, in chunks of about _PAIR_CHUNK pairs.

    The pixels are sorted by row, then column, so the pixels of one row of
    a bounding box are one slice [lo, hi) of them.  Only the box rows that
    hold a pixel are enumerated.
    """
    x_lo, x_hi, y_lo, y_hi = box
    rows = _distinct(pixels // width)
    r_lo = np.searchsorted(rows, y_lo)
    height = np.maximum(np.searchsorted(rows, y_hi, side="right") - r_lo, 0)
    tri = np.repeat(np.arange(len(x_lo)), height)
    row = rows[r_lo[tri] + (np.arange(len(tri)) - np.repeat(np.cumsum(height) - height, height))]
    lo = np.searchsorted(pixels, row * width + x_lo[tri])
    n = np.maximum(np.searchsorted(pixels, row * width + x_hi[tri], side="right") - lo, 0)
    ends = np.cumsum(n)
    r0 = 0
    while r0 < len(tri):
        r1 = max(r0 + 1, int(np.searchsorted(ends, ends[r0] - n[r0] + _PAIR_CHUNK, side="right")))
        c = n[r0:r1]
        t = np.repeat(tri[r0:r1], c)
        yield t, np.arange(len(t)) + np.repeat(lo[r0:r1] - (np.cumsum(c) - c), c)
        r0 = r1


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of the sorted array a, in order (np.unique
    without its sort and hashing)."""
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


_NO_RANK = np.iinfo(np.int64).max  # above every rank: a group with no entry


def _nearest(group, z, rank, n: int):
    """For each group 0..n-1 the least z of its entries and, among the
    entries at that z, the lowest rank; +inf and -1 for an empty group."""
    z_min = np.full(n, np.inf)
    np.minimum.at(z_min, group, z)
    at_min = z == z_min[group]
    best = np.full(n, _NO_RANK)
    np.minimum.at(best, group[at_min], rank[at_min])
    best[best == _NO_RANK] = -1
    return z_min, best


# ---------------------------------------------------------------------------
# Rendering.

def render_id_buffer(model: WireframeModel, pose: PoseSE3, K: CameraIntrinsics,
                     pixels: Optional[np.ndarray] = None) -> IdBuffer:
    """Render the model's edges to IDs with hidden-line removal.

    Face depth is evaluated only at the on-image pixels the edges step on.
    Given ``pixels``, sorted distinct flat indices y * width + x, only those
    pixels are rendered, each to the ID the full render gives it, and every
    other pixel stays background.
    """
    cam = transform_np(model.vertices, pose.rotation(), pose.t)
    trace = _edge_pixels(cam[model.edges[:, 0]], cam[model.edges[:, 1]], K)
    id_buf = IdBuffer(K.width, K.height, trace=trace)
    e, x, y, s = trace.edge, trace.x, trace.y, trace.s
    # Drop consecutive repeats within an edge, then pixels off the image or
    # not asked for.  The stepped pixels of an edge are monotone in x and y,
    # so afterwards each appears once per edge.
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1]) | (e[1:] != e[:-1])
    keep &= (x >= 0) & (x < K.width) & (y >= 0) & (y < K.height)
    flat = y * K.width + x
    if pixels is not None:
        asked = np.append(pixels, -1)  # the sentinel matches no on-image pixel
        keep &= asked[np.searchsorted(pixels, flat)] == flat
    e, s = e[keep], s[keep]
    drawn_at, at = np.unique(flat[keep], return_inverse=True)
    depth, owner = _face_depth(model, cam, K, drawn_at)

    # An edge pixel survives hidden-line removal when the frontmost surface
    # there is one of the edge's own faces (the edge bounds the visible
    # surface), when nothing was drawn there, or when the line depth is
    # within the relative bias of the face depth.  The adjacency clause
    # covers steep faces whose pixel-center depth sits well in front of the
    # exact edge depth, where any fixed bias would misjudge.
    inv_za, inv_zb = trace.inv_z[e, 0], trace.inv_z[e, 1]
    z = 1.0 / (inv_za + s * (inv_zb - inv_za))
    passes = z <= depth[at] * (1.0 + DEPTH_BIAS)
    passes |= (model.edge_faces[e] == owner[at][:, None]).any(axis=1)
    # Among edges crossing one pixel the nearest wins, ties to the lower ID.
    _, edge = _nearest(at[passes], z[passes], e[passes], len(drawn_at))
    id_buf.ids.reshape(-1)[drawn_at] = edge
    return id_buf


def render_depth_buffer(model: WireframeModel, pose: PoseSE3, K: CameraIntrinsics) -> DepthBuffer:
    """Nearest face depth at every pixel, by the per-pixel face query of
    render_id_buffer; for debug dumps."""
    cam = transform_np(model.vertices, pose.rotation(), pose.t)
    depth, _ = _face_depth(model, cam, K, np.arange(K.width * K.height))
    return DepthBuffer(K.width, K.height, depth.reshape(K.height, K.width))


# ---------------------------------------------------------------------------
# Visibility tests.

# Offsets (dy, dx) of a pixel's 3x3 neighbourhood.
_NEIGHBOURS = np.array([(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)])


def neighbourhoods(p, width: int, height: int) -> np.ndarray:
    """Per point, a column of the (2, N) float array p, the flat indices
    y * width + x of the 3x3 neighbourhood of pixel round(p), (N, 9); -1
    for a neighbour off the image, and for every neighbour of a point whose
    own pixel is off the image.

    Rounding is to the nearest pixel, ties away from zero.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.where(p >= 0.0, np.floor(p + 0.5), np.ceil(p - 0.5))
    inside = ((q >= 0) & (q < [[width], [height]])).all(axis=0)
    x, y = np.where(inside, q, 0).astype(np.int64)
    nx = x[:, None] + _NEIGHBOURS[:, 1]
    ny = y[:, None] + _NEIGHBOURS[:, 0]
    on_image = inside[:, None] & (nx >= 0) & (nx < width) & (ny >= 0) & (ny < height)
    return np.where(on_image, ny * width + nx, -1)


def read_pixels(flat: np.ndarray) -> np.ndarray:
    """The sorted distinct flat pixel indices of the neighbourhoods flat
    (``neighbourhoods``), which neighbourhoods_visible reads: the pixels to
    pass to render_id_buffer."""
    return _distinct(np.sort(flat[flat >= 0]))


def neighbourhoods_visible(flat: np.ndarray, edges, id_buffer: IdBuffer) -> np.ndarray:
    """Per point, whether the ID buffer credits pixel round(p) (or a 3x3
    neighbour) to the point's edge, for the points whose neighbourhoods are
    flat (``neighbourhoods``); only the pixels read_pixels names are read.

    Rounding is to the nearest pixel, ties away from zero; a point whose
    pixel is off the image is not visible.  The neighbourhood absorbs the
    quantization gap between sub-pixel control points and the
    integer-rasterized buffer.
    """
    ids = id_buffer.ids.reshape(-1)[np.maximum(flat, 0)]
    return ((flat >= 0) & (ids == np.asarray(edges)[:, None])).any(axis=1)


def is_point_visible(p, edge_index: int, id_buffer: IdBuffer) -> bool:
    """True when the ID buffer credits pixel round(p) (or a 3x3 neighbor) to edge_index."""
    flat = neighbourhoods([[p[0]], [p[1]]], id_buffer.width, id_buffer.height)
    return bool(neighbourhoods_visible(flat, [edge_index], id_buffer)[0])


# ---------------------------------------------------------------------------
# Debug dumps.

def id_buffer_to_image(id_buffer: IdBuffer) -> ColorImage:
    """The buffer's IDs in the colour code of encode_id_array, black for
    background."""
    rgb = np.zeros((id_buffer.height, id_buffer.width, 3), dtype=np.uint8)
    drawn = id_buffer.ids != BACKGROUND
    rgb[drawn] = encode_id_array(id_buffer.ids[drawn])
    return ColorImage(rgb, RGB888)


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
