"""Software rendering of edge-ID buffers, and visibility testing.

Hidden-line removal needs the nearest model face only where an edge is
drawn, so face depth is evaluated only at traced edge pixels.  All contour
edges are line-stepped in one array pass.  At each distinct on-image pixel
of that trace, every triangle of the near-clipped, fan-triangulated faces is
tested (bounding box and three edge functions, depth perspective-correct
via linear 1/z interpolation) and the nearest face wins, on a tie the lower
face index.  The (triangle, pixel) pairs to test come from one of two
enumerations with the same result, chosen by the size of the
triangles-by-pixels grid (_MASK_GRID): a small grid, such as a cube's, is
masked as a whole, which takes every pair in the bounding boxes in a few
array operations; a large one, such as an icosphere's, walks each
triangle's scanline spans, the columns of a box row that the triangle's
edges bound, as a hardware rasterizer does, widened by a stated float
error bound so that no pixel the exact test passes is missed.  The mask is
the faster of the two on the cube; on an icosphere frame of the standard
orbit the boxes hold about 17,000 pairs, and the span walk tests about
7,050, the pairs that pass.  Each edge's ID is then written wherever it
survives the hidden-line test: the frontmost face at the pixel is one of
the edge's own faces, or no face covers it, or the line depth is within a
small relative bias of the face depth; among surviving edges the nearest
wins.  The buffer is the one a full-image z-fill of every face would give.

A pixel's ID depends only on its own trace steps and face depth, so
`render_id_buffer` can also render just the pixels a caller will read: the
tracker passes the 3x3 neighbourhoods of its control points
(`read_pixels`), about a third of the traced pixels of a cube frame, and
every other pixel stays background.  `render_depth_buffer` runs the same
per-pixel face query over every pixel, for debug dumps, and returns the
(h, w) depth array.  Both take the camera points from `geometry.transform`
as one (3, V) array, and every point set here keeps its coordinates along
axis 0, as in `geometry`.

The ID buffer holds integer edge IDs, BACKGROUND (-1) where no edge is
drawn, beside the edge trace it was drawn from; only this module reads
either.  `visible_runs` walks that trace over the buffer for the synthetic
frames, so they draw exactly the runs the buffer leaves visible.  The
colour code an OpenGL ID render would write packs an ID into RGB with a
spacing of 8 between channel levels, black for background; it is applied
only when a buffer becomes an image (`id_buffer_to_image`).

A pixel's edge ID answers "is this control point visible" without GPU
occlusion queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    MAX_EDGES,
    CameraIntrinsics,
    PoseSE3,
    WireframeModel,
    clip_box,
    clip_near,
    pose_words,
    project_cam,
    transform,
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
# Edge trace and ID buffer.

@dataclass
class EdgeTrace:
    """The line-stepped edges of one view, all edges in one set of arrays.

    Per edge: ``pa`` and ``pb`` (2, E) hold the projections (u, v) of the
    near-clipped ends, ``inv_z`` (2, E) their reciprocal depths (a's, then
    b's) and ``steps`` (E,) the step count of the whole projected segment;
    edges with no traced step hold NaN and 0.  Per traced step, grouped by
    edge in edge order and ascending k: ``edge``, the flat index
    ``flat = y * width + x`` of the step's pixel (x and y rounded with
    floor(. + 0.5)), -1 off the image, and the parameter ``s = k / steps``
    from pa[:, e] to pb[:, e].
    """

    pa: np.ndarray
    pb: np.ndarray
    inv_z: np.ndarray
    steps: np.ndarray
    edge: np.ndarray
    flat: np.ndarray
    s: np.ndarray


@dataclass
class IdBuffer:
    """Per-pixel edge ID, BACKGROUND where no edge is drawn.

    ``ids`` is an (h, w) int16 array, which holds every ID up to
    MAX_EDGE_ID.  A buffer rendered at chosen pixels holds IDs there only.
    ``trace`` holds the edge steps the buffer was drawn from, when
    render_id_buffer made it.
    """

    ids: np.ndarray
    trace: Optional[EdgeTrace] = None


# A traced point rounds onto the image when it lies in [-0.5, size - 0.5)
# on both axes.  The margin box adds one pixel on every side.  A step moves
# at most one pixel per axis, so the neighbours of every on-image step lie
# inside the box, and a step on the box border is off the image by a pixel,
# far beyond float rounding.
_MARGIN_LO = -1.5
_FLOAT = FloatBackend()


def _edge_pixels(a: np.ndarray, b: np.ndarray, K: CameraIntrinsics) -> EdgeTrace:
    """Line-step camera-space segments a[:, i]-b[:, i], each clipped
    against the near plane; a and b are (3, E).

    Each segment steps ``steps = max(1, ceil(max(|du|, |dv|)))`` times over
    its whole projection, but only the steps inside the margin box
    [-1.5, size + 0.5] on both axes are traced, plus at least one step
    outside it at each cut end; the first traced step of an edge therefore
    never hides an on-image repeat of its predecessor.  A segment wholly
    behind the near plane or outside the box has no traced step.  Pixels
    are not de-duplicated; a step off the image has flat index -1.
    """
    n_edges = a.shape[1]
    live, a, b = clip_near(a, b, NEAR_PLANE_MM, _FLOAT)
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
    on_image = (x >= 0) & (x < K.width) & (y >= 0) & (y < K.height)
    flat = np.where(on_image, y * K.width + x, -1)

    per_edge = np.full((3, 2, n_edges), np.nan)  # pa, pb and 1/z
    per_edge[:, :, live] = pa, pb, 1.0 / np.stack([a[2], b[2]])
    all_steps = np.zeros(n_edges, dtype=np.int64)
    all_steps[live] = steps
    return EdgeTrace(*per_edge, all_steps, edge, flat, s)


# ---------------------------------------------------------------------------
# Face depth at chosen pixels.

# A query of fewer (triangle, pixel) pairs than this takes the pairs in the
# triangles' bounding boxes from one mask over the whole grid, at most this
# many booleans; a larger one walks the triangles' scanline spans.  At cube
# scale the mask is a few array operations where the walk spends its time
# on per-row bookkeeping; at icosphere scale a triangle covers a few percent
# of the pixels, and masking the whole grid costs more than the walk saves.
# Median per query on the standard orbit (2-vCPU Xeon, Python 3.11, numpy
# 2.4; mask against span walk): cube tracker, 12 x ~360, 0.22 against 0.35
# ms; cube synthesis, 12 x ~1100, 0.39 against 0.42 ms; icosphere
# synthesis, 80 x ~3650, 2.99 against 1.08 ms.
_MASK_GRID = 1 << 15

# A span walk tests at most this many pixel-triangle pairs at once, which
# bounds its temporaries.  An icosphere synthesis query then peaks at about
# 700 KB (tracemalloc).  At 1 << 12 it peaked at about 950 KB, and in a
# synthesis run the process handed that heap back after the query and took
# about 100 minor page faults a frame to map it again.
_PAIR_CHUNK = 1 << 11

# An edge whose rise |dy| is below this many pixels is nearly horizontal and
# bounds no span; above it a subnormal row term moves the bound far less
# than the margin.
_FLAT_DY = 2.0 ** -20

# The relative margin of a span bound, twice the float error of the
# per-pair edge test and of the bound itself (_face_depth).
_SPAN_EPS = 2.0 ** -49


def _triangles(model: WireframeModel, cam: np.ndarray):
    """Camera-space triangles (3, T, 3) of the faces clipped against the
    near plane and fan-triangulated, coordinates along axis 0 and corners
    along axis 2, with each triangle's face index; cam holds the model's
    camera-space vertices, (3, V).

    The faces crossing the plane are clipped as their edges v0-v1, v1-v2,
    v2-v0 in one clip_near call, which is the Sutherland-Hodgman clip of
    each: every edge with an end in front gives its a end, moved onto the
    plane when behind, then its moved b end when b is behind.
    """
    pts = cam[:, model.faces]
    front = pts[2] >= NEAR_PLANE_MM
    whole = front.all(axis=1)
    tris, faces = pts[:, whole], np.flatnonzero(whole)
    cross = np.flatnonzero(front.any(axis=1) & ~whole)
    if len(cross) == 0:
        return tris, faces
    a = pts[:, cross]
    b = a[:, :, [1, 2, 0]].reshape(3, -1)
    live, ca, cb = clip_near(a.reshape(3, -1), b, NEAR_PLANE_MM, _FLOAT)
    emit = np.stack([np.ones(len(live), dtype=bool), b[2, live] < NEAR_PLANE_MM], axis=1)
    poly = np.stack([ca, cb], axis=2)[:, emit]  # the clipped polygons' points, face by face
    # A clipped triangle has 3 or 4 points: fan triangles (0, j, j + 1) of each.
    counts = np.bincount(np.repeat(live // 3, emit.sum(axis=1)), minlength=len(cross))
    fans = counts - 2
    fan = np.repeat(np.arange(len(cross)), fans)
    start = (np.cumsum(counts) - counts)[fan]
    j = start + np.arange(len(fan)) - np.repeat(np.cumsum(fans) - fans, fans) + 1
    corners = poly[:, np.stack([start, j, j + 1], axis=1)]
    return np.concatenate([tris, corners], axis=1), np.concatenate([faces, cross[fan]])


# Edge k of a triangle, opposite vertex k, runs from vertex _REF[k] to
# vertex _NEXT[k]; its edge function is vertex k's barycentric weight times
# the area.
_REF, _NEXT = [1, 2, 0], [2, 0, 1]


def _face_depth(model: WireframeModel, cam: np.ndarray, K: CameraIntrinsics, pixels):
    """Nearest face depth and its face index at each of ``pixels``, sorted
    distinct flat indices y * width + x of pixel centers.

    A pixel belongs to a triangle when it lies in the triangle's bounding
    box and all three edge functions share the sign of its area, zero
    included.  Edge k, from vertex r to vertex n, has the edge function
    dx * (y - y_r) - dy * (x - x_r), with dx = x_n - x_r and dy = y_n - y_r.
    The depth there is perspective-correct: 1/z is interpolated linearly
    with the barycentric weights of the edge functions.  Among the
    triangles holding a pixel the nearest wins, on equal depth the lowest
    face index, so the result is that of filling the faces into a depth
    buffer in order with a strict less-than test.  Pixels no face holds get
    depth +inf and face -1.

    The (triangle, pixel) pairs to test are enumerated in one of two ways,
    which give the same result: a grid of fewer than _MASK_GRID pairs,
    such as a cube's, takes every pair in the bounding boxes from one mask
    (_box_mask_pairs); a larger one, such as an icosphere's or a full-image
    query, walks each triangle's scanline spans (_span_pairs).  Each is the
    faster one at its scale: the mask on the cube, where the walk's per-row
    bookkeeping dominates, the span walk on the icosphere, whose triangles
    each cover few of the pixels.  Both feed the same per-pair test.

    A span is the part of a box row that the edges leave open.  In float
    arithmetic, as in exact, an edge function is monotone in x along a row
    (each of its roundings is), so the pixels of a row that pass the three
    edge tests form one interval.  On row y, an edge with sign(area) * dy
    > 0 passes only x <= x_r + t and one with sign(area) * dy < 0 only
    x >= x_r + t, where t = dx * (y - y_r) / dy.  The error bound: with
    u = 2**-53 and float dx and dy, the float edge function differs from
    the exact one by at most 3u (|dx (y - y_r)| + |dy (x - x_r)|) / (1 -
    3u), and the float bound x_r + t (three roundings for t, one for the
    sum) from the exact one by at most 3u |t| + u (|x_r| + |t|) to first
    order.  For x in [0, width) and |t| <= q = |dx| h / |dy|, h the
    triangle's height, a pixel column passing the test thus lies within
    about 7u q + 4u |x_r| + 3u width of the float bound, 8u (q + |x_r| +
    width) with the rounding of the widened bound; each span bound widens
    by twice that, _SPAN_EPS = 2**-49 times the sum.  The bound holds only
    while a quotient by dy keeps any underflow far below the margin: an
    edge with |dy| below _FLAT_DY px bounds nothing, and its rows keep the
    box's columns.  Overflow drops no pair the per-pair test passes: a bound
    made infinite by an overflowed row term dx * (y - y_r) drops a row only
    where that term's sign fails the edge, and the per-pair test reads the
    same term; np.fmax and np.fmin ignore a NaN bound; and where t, x_r or
    x_r + t is infinite, so is the margin, which leaves the box's columns.
    The span walk thus drops only pairs that fail the per-pair test, which
    still filters every pair, so both enumerations give the same bytes.
    Neither warns on overflow, NaN or division by zero.
    """
    tris, faces = _triangles(model, cam)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u, v = project_cam(tris.reshape(3, -1), K.to_backend(_FLOAT)).reshape(2, -1, 3)
        (x0, x1, x2), (y0, y1, y2) = u.T, v.T
        area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        keep = area != 0.0
        u, v, faces, area = u[keep].T, v[keep].T, faces[keep], area[keep]
        dx, dy = u[_NEXT] - u[_REF], v[_NEXT] - v[_REF]
        # The per-pair test's constants, a row each: dy, x_r and 1/z of each
        # edge, then the sign of the area and the area.
        coef = np.concatenate([dy, u[_REF], 1.0 / tris[2, keep].T, [np.sign(area), area]])
        box = (np.maximum(0.0, np.ceil(u.min(axis=0))),
               np.minimum(K.width - 1.0, np.floor(u.max(axis=0))),
               np.maximum(0.0, np.ceil(v.min(axis=0))),
               np.minimum(K.height - 1.0, np.floor(v.max(axis=0))))
        xs = (pixels % K.width).astype(np.float64)
        if len(faces) * len(pixels) < _MASK_GRID:
            ys = (pixels // K.width).astype(np.float64)
            t, p = _box_mask_pairs(box, xs, ys)
            pairs = [(t, p, np.take(dx, t, axis=1) * (ys[p] - np.take(v[_REF], t, axis=1)))]
        else:
            pairs = _span_pairs(box, dx, dy, u, v, coef[9], pixels, K.width)
        hits = [_pair_hits(coef, xs, faces, t, p, terms) for t, p, terms in pairs]
    if not hits:
        return np.full(len(pixels), np.inf), np.full(len(pixels), -1)
    return _nearest(*(np.concatenate(h) for h in zip(*hits)), len(pixels))


def _pair_hits(coef, xs: np.ndarray, faces: np.ndarray, t, p, terms):
    """The pixels, depths and faces of the pairs of triangles t and pixels p
    that pass the per-pair test; coef holds _face_depth's per-triangle
    constants and terms the pairs' row terms, which this overwrites.

    A chunk's temporaries live only in this call, so a walk's peak memory
    is that of one chunk."""
    c = np.take(coef, t, axis=1)
    e = np.subtract(np.take(xs, p), c[3:6])
    e *= c[0:3]
    e = np.subtract(terms, e, out=terms)  # the three edge functions
    # Flipping a sign is exact, so the tests are too.
    inside = (e * c[9] >= 0.0).all(axis=0)
    w = np.multiply(e, c[6:9], out=c[6:9])
    z = 1.0 / ((w[0] + w[1] + w[2]) / c[10])
    inside &= z < np.inf
    return p[inside], z[inside], faces[t[inside]]


def _box_mask_pairs(box, xs: np.ndarray, ys: np.ndarray):
    """The (triangle, pixel) index pairs of the pixels at xs, ys inside each
    triangle's bounding box box = (x_lo, x_hi, y_lo, y_hi), by triangle,
    then pixel, from one (T, P) mask."""
    x_lo, x_hi, y_lo, y_hi = (b[:, None] for b in box)
    return np.nonzero((xs >= x_lo) & (xs <= x_hi) & (ys >= y_lo) & (ys <= y_hi))


def _span_pairs(box, dx, dy, u, v, sign, pixels: np.ndarray, width: int):
    """The (triangle, pixel) pairs of the triangles' scanline spans over the
    sorted flat pixel indices pixels, with the row terms dx * (y - y_r) of
    their three edge functions, (3, pairs), by triangle, then pixel, in
    chunks of about _PAIR_CHUNK pairs.

    u and v are the triangles' vertex coordinates, dx and dy the edges'
    (_face_depth), each (3, T), and sign the sign of each area.
    """
    tri, start, n, terms = _spans(box, dx, dy, u, v, sign, pixels, width)
    ends = np.cumsum(n)
    r0 = 0
    while r0 < len(tri):
        r1 = max(r0 + 1, int(np.searchsorted(ends, ends[r0] - n[r0] + _PAIR_CHUNK, side="right")))
        c = n[r0:r1]
        t = np.repeat(tri[r0:r1], c)
        yield t, np.arange(len(t)) + np.repeat(start[r0:r1] - (np.cumsum(c) - c), c), np.repeat(
            terms[:, r0:r1], c, axis=1)
        r0 = r1


def _spans(box, dx, dy, u, v, sign, pixels: np.ndarray, width: int):
    """_span_pairs' spans: each one's triangle, first pixel (an index into
    pixels) and pixel count, and the row terms of its edge functions,
    (3, spans).  Only the box rows that hold a pixel have a span; the
    pixels of a span are one slice of pixels, which are sorted by row, then
    column."""
    x_lo, x_hi, y_lo, y_hi = box
    x_r, y_r = u[_REF], v[_REF]
    side = dy * sign  # > 0: the edge bounds x from above; < 0: from below
    side[np.abs(dy) < _FLAT_DY] = 0.0
    margin = _SPAN_EPS * (np.abs(dx) * (v.max(axis=0) - v.min(axis=0)) / np.abs(dy)
                          + np.abs(x_r) + width)
    above, below = np.where(side > 0.0, margin, np.inf), np.where(side < 0.0, margin, np.inf)

    rows = _distinct(pixels // width)
    r_lo = np.searchsorted(rows, y_lo)
    height = np.maximum(np.searchsorted(rows, y_hi, side="right") - r_lo, 0)
    tri = np.repeat(np.arange(len(x_lo)), height)
    row = rows[r_lo[tri] + (np.arange(len(tri)) - np.repeat(np.cumsum(height) - height, height))]
    terms = np.repeat(dx, height, axis=1) * (row - np.repeat(y_r, height, axis=1))
    at = np.repeat(x_r, height, axis=1) + terms / np.repeat(dy, height, axis=1)
    # A span bound that is not a number (an edge that bounds nothing) is
    # dropped; a box bound that is not one drops the span, as in the mask.
    lo = np.maximum(x_lo[tri], np.fmax.reduce(np.ceil(at - np.repeat(below, height, axis=1)),
                                              initial=-np.inf))
    hi = np.minimum(x_hi[tri], np.fmin.reduce(np.floor(at + np.repeat(above, height, axis=1)),
                                              initial=np.inf))
    start = np.searchsorted(pixels, row * width + lo)
    n = np.maximum(np.searchsorted(pixels, row * width + hi, side="right") - start, 0)
    return tri, start, n, terms


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
    cam = _camera_points(model, pose)
    trace = _edge_pixels(*(np.take(cam, ends, axis=1) for ends in model.edges.T), K)
    e, flat, s = trace.edge, trace.flat, trace.s
    # Drop pixels off the image, then consecutive repeats within an edge,
    # then pixels not asked for.  The stepped pixels of an edge are monotone
    # in x and y, so afterwards each appears once per edge.
    keep = flat >= 0
    keep[1:] &= (flat[1:] != flat[:-1]) | (e[1:] != e[:-1])
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
    # Gathers along the rows of (k, E) tables (inv_z, and edge_faces
    # transposed) give row-major (k, n) results; edge_faces[e] would give
    # (n, k), which the comparison and any() then walk k elements at a time.
    inv_za, inv_zb = np.take(trace.inv_z, e, axis=1)
    z = 1.0 / (inv_za + s * (inv_zb - inv_za))
    passes = z <= np.take(depth, at) * (1.0 + DEPTH_BIAS)
    passes |= (np.take(model.edge_faces.T, e, axis=1) == np.take(owner, at)).any(axis=0)
    # Among edges crossing one pixel the nearest wins, ties to the lower ID.
    _, edge = _nearest(at[passes], z[passes], e[passes], len(drawn_at))
    ids = np.full((K.height, K.width), BACKGROUND, dtype=np.int16)
    ids.reshape(-1)[drawn_at] = edge
    return IdBuffer(ids, trace)


def render_depth_buffer(model: WireframeModel, pose: PoseSE3, K: CameraIntrinsics) -> np.ndarray:
    """Nearest face depth at every pixel, by the per-pixel face query of
    render_id_buffer, as an (h, w) array of camera-space z in mm, +inf
    where no face is drawn; for debug dumps."""
    depth, _ = _face_depth(model, _camera_points(model, pose), K, np.arange(K.width * K.height))
    return depth.reshape(K.height, K.width)


def _camera_points(model: WireframeModel, pose: PoseSE3) -> np.ndarray:
    """The model's vertices in camera space, (3, V), by the tracker's transform."""
    return transform(model.vertices.T, *pose_words(pose, _FLOAT), _FLOAT)[1]


def visible_runs(id_buffer: IdBuffer):
    """Visible parts of each edge of a full render_id_buffer render as 2D
    sub-segments: (2, N) arrays of their start and end points (x, y).

    Walks the buffer's IDs along the edge trace it was rendered from and
    keeps maximal runs of steps the edge owns, so lines drawn from the runs
    inherit the buffer's hidden-line decisions.
    """
    tr = id_buffer.trace
    # An off-image step's flat index -1 reads the last pixel; flat >= 0 drops it.
    owned = (tr.flat >= 0) & (np.take(id_buffer.ids.reshape(-1), tr.flat) == tr.edge)
    # A run starts at an owned step whose predecessor in the same edge is
    # not owned, and ends at one whose successor is not.
    chained = owned[1:] & owned[:-1] & (tr.edge[1:] == tr.edge[:-1])
    first = np.flatnonzero(owned & ~np.append(False, chained))
    last = np.flatnonzero(owned & ~np.append(chained, False))
    e = tr.edge[first]
    pad = 0.5 / tr.steps[e]  # half a step
    t0 = np.maximum(0.0, tr.s[first] - pad)
    t1 = np.minimum(1.0, tr.s[last] + pad)
    pa, pb = np.take(tr.pa, e, axis=1), np.take(tr.pb, e, axis=1)
    return pa + t0 * (pb - pa), pa + t1 * (pb - pa)


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
    height, width = id_buffer.ids.shape
    flat = neighbourhoods([[p[0]], [p[1]]], width, height)
    return bool(neighbourhoods_visible(flat, [edge_index], id_buffer)[0])


# ---------------------------------------------------------------------------
# Debug dumps.

def id_buffer_to_image(id_buffer: IdBuffer) -> ColorImage:
    """The buffer's IDs in the colour code of encode_id_array, black for
    background."""
    rgb = np.zeros((*id_buffer.ids.shape, 3), dtype=np.uint8)
    drawn = id_buffer.ids != BACKGROUND
    rgb[drawn] = encode_id_array(id_buffer.ids[drawn])
    return ColorImage(rgb, RGB888)


def depth_buffer_to_image(d: np.ndarray) -> GrayImage:
    """An (h, w) depth array (render_depth_buffer) as an image: nearest
    depth maps dark, farthest light; +inf pixels white."""
    finite = np.isfinite(d)
    out = np.full(d.shape, 255, dtype=np.uint8)
    if finite.any():
        lo, hi = float(d[finite].min()), float(d[finite].max())
        span = hi - lo if hi > lo else 1.0
        out[finite] = np.clip((d[finite] - lo) / span * 254.0, 0.0, 254.0).astype(np.uint8)
    return GrayImage(out)
