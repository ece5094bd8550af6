"""Control-point sampling along projected edges and the 1D edge search.

A predicted pose, given on the backend's words as the pose refiner
starts from it (``geometry.pose_words``), projects each model edge into
the image and control points are spread evenly along the projected
segment.  The edge-ID buffer is then rendered only at the pixels the
visibility test reads, the 3x3 neighbourhoods of those points
(``rasterizer.read_pixels``), and filters them; each visible point
searches for the strongest intensity gradient along its edge normal (a
single-hypothesis moving-edges scan).  The surviving (point, match)
pairs are the measurements the pose refiner consumes.

All per-edge and per-point arithmetic goes through the realmath backend so
fixed-point runs are bit-deterministic, and runs once per frame over all
edges, then all points, on the backend's arrays; the edges are clipped by
the renderer's near-plane and box clips.  A point set is one backend
array with its coordinates along axis 0: the edge ends as (6, N) camera
and world coordinates, then (2, N) image points, normals and matches and
(3, N) world points, which `MeasurementSet` hands to LM as they are.  Only
the ID-buffer lookup, to address pixels, and the search, to rank its
likelihoods, convert to float, and both conversions are exact.

The settings are the ``TrackerConfig`` that ``track_frame`` hands on as
``cfg``; this module imports nothing from the pose refiner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from .geometry import (
    BackendIntrinsics,
    CameraIntrinsics,
    WireframeModel,
    clip_box,
    clip_near,
    project_cam,
    transform,
)
from .imaging import GrayImage
# Nothing here calls is_point_visible; benchmarks/run.py wraps the name
# tracking.is_point_visible in its traced run.
from .rasterizer import (  # noqa: F401
    NEAR_PLANE_MM,
    IdBuffer,
    is_point_visible,
    neighbourhoods,
    neighbourhoods_visible,
    read_pixels,
)


class InsufficientMeasurementsError(ValueError):
    """Fewer matched control points than the 6 pose degrees of freedom."""


@dataclass
class ControlPoint:
    """One measurement site on a projected model edge.

    The fields hold single backend values: 0-d arrays, or numpy scalars on
    the float backend; ``match`` is set by the correspondence search when a
    gradient above threshold exists.
    """

    edge_index: int
    p: tuple  # 2D sub-pixel position
    n: tuple  # 2D unit edge normal
    X: tuple = None  # 3D world point that projected to p
    match: Optional[tuple] = None
    likelihood: object = None


@dataclass
class MeasurementSet:
    """Matched control points as backend arrays, coordinates along axis 0,
    plus the per-stage counters the stats report.  Column k of every array
    is the k-th match."""

    edge_index: np.ndarray  # model edge of each point
    p: object  # (2, N) control points
    n: object  # (2, N) unit edge normals
    X: object  # (3, N) world points that project to p
    match: object  # (2, N) matched image points
    likelihood: object  # (N,) gradient strength at each match
    n_projected: int  # control points sampled on projected segments
    n_sampled: int  # of those, points passing the visibility test

    @property
    def n_matched(self) -> int:
        return len(self.edge_index)


# ---------------------------------------------------------------------------
# Sampling.

def _sample_params(counts, backend):
    """For points laid out segment by segment, counts[i] on segment i: each
    point's segment slot and its parameter t = (k + 0.5) / counts[i], which
    keeps the points off the segment ends.

    t is formed as (2k + 1) / (2 counts[i]) from integers, which on every
    backend gives the bits of (k + 0.5) / counts[i] with both operands
    converted by ``backend.array``; the doubled counts take one call.
    """
    counts = np.asarray(counts, dtype=np.int64)
    slot = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(len(slot)) - np.repeat(np.cumsum(counts) - counts, counts)
    return slot, (2 * k + 1) / backend.array(2 * counts)[slot]


# (dy, dx) / length times this is the unit normal (-dy, dx) / length; a
# product with -1 or 1 is exact on every backend, as a negation is.
_QUARTER_TURN = np.array([[-1], [1]])


def _sample_segments(a, b, cfg, backend):
    """Control points spread evenly along the projected segments
    a[:, i]-b[:, i], given as (2, N) backend arrays.

    A segment gets floor(length / step) points, or one point when it is
    shorter than a step but at least half a step long; its points follow
    _sample_params.  Returns, per point, the index of its segment and its
    t, and the points and their segments' unit normals as (2, M) arrays.
    """
    d = b - a
    dd = d * d
    length = backend.sqrt(dd[0] + dd[1])
    step = backend.constant(cfg.sampling_step)
    counts = backend.floor_array(length / step)
    # length >= step/2, compared without dividing the step
    counts = np.where((counts == 0) & (length + length >= step), 1, counts)
    rows = np.flatnonzero(counts)
    d, length = d[:, rows], length[rows]
    slot, t = _sample_params(counts[rows], backend)
    # Divide components directly: multiplying by a reciprocal doubles the
    # quantization error in fixed point and breaks the unit-normal contract.
    n = d[::-1] / length * _QUARTER_TURN
    at = rows[slot]
    return at, t, a[:, at] + t * d[:, slot], n[:, slot]


# ---------------------------------------------------------------------------
# Moving-edges correspondence search.

@cache
def _tie_order(r: int) -> np.ndarray:
    """The search's 2 r + 1 offset columns, column c for offset s = c - r,
    in the order ties go: smallest |s| first, the negative side first at
    equal |s|.  Read-only, since every search shares it."""
    order = np.array(sorted(range(2 * r + 1), key=lambda c: (abs(c - r), c - r)))
    order.flags.writeable = False
    return order


def _bilinear(gray: GrayImage, q, backend):
    """Bilinear gray intensities at sub-pixel positions q, a backend array
    with x in row 0 and y in row 1, and a mask of the positions whose 2x2
    neighbourhood lies on the image; masked-out entries hold meaningless
    values."""
    q0 = backend.floor_array(q)
    x0, y0 = q0
    width = gray.width
    ok = (x0 >= 0) & (y0 >= 0) & (x0 + 1 < width) & (y0 + 1 < gray.height)
    f = q - q0
    fx, fy = f[0], f[1]
    # The 2x2 corners by their flat indices in the row-major image.
    i = np.where(ok, y0 * width + x0, 0)
    px = gray.pixels.reshape(-1)
    i00 = px[i].astype(np.int64)
    i10 = px[i + 1].astype(np.int64)
    i01 = px[i + width].astype(np.int64)
    i11 = px[i + (width + 1)].astype(np.int64)
    top = i00 + fx * (i10 - i00)
    bottom = i01 + fx * (i11 - i01)
    return top + fy * (bottom - top), ok


def bilinear_sample(gray: GrayImage, x, y, backend):
    """Bilinear gray intensity at a sub-pixel position; None off the image."""
    value, ok = _bilinear(gray, backend.stack([x, y])[:, None], backend)
    return value[0] if ok[0] else None


def _search(gray: GrayImage, p, n, cfg, backend):
    """Scan integer offsets along each point's normal for the strongest gradient.

    Positions p and normals n are (2, N) backend arrays.  Likelihood at
    offset s is |I(s+1) - I(s-1)| / 2, defined where both samples are on
    the image.  The best site wins; ties prefer the smallest |s| (and the
    negative side at equal distance), favoring the prediction.  Returns a
    mask of the points whose best likelihood clears the threshold, and for
    those points only the matched points, (2, M), and the likelihoods.
    """
    r = cfg.search_range
    offsets = np.arange(-r - 1, r + 2)
    sites = p[:, :, None] + offsets * n[:, :, None]
    intensity, ok = _bilinear(gray, sites, backend)
    likelihood = abs(intensity[:, 2:] - intensity[:, :-2]) / 2  # column c is s = c - r
    valid = ok[:, 2:] & ok[:, :-2]
    # Likelihoods are >= 0, so -1 marks a site that cannot win; argmax takes
    # the first maximum in tie order, on floats: a likelihood is <= 127.5, exact as a float.
    order = _tie_order(r)
    best = order[np.argmax(np.where(valid, backend.to_float(likelihood), -1)[:, order], axis=1)]
    rows = np.arange(len(best))
    best_l = likelihood[rows, best]
    hit = valid[rows, best] & (best_l >= backend.constant(cfg.gradient_threshold))
    return hit, sites[:, rows[hit], best[hit] + 1], best_l[hit]


def search_correspondence(gray: GrayImage, cp: ControlPoint, cfg, backend):
    """Moving-edges scan for one control point (see _search).

    Sets cp.match and cp.likelihood when the best gradient clears the
    threshold; below-threshold maxima leave match unset.
    """
    p, n = (backend.stack(v)[:, None] for v in (cp.p, cp.n))
    hit, q, likelihood = _search(gray, p, n, cfg, backend)
    if hit[0]:
        cp.match = (q[0, 0], q[1, 0])
        cp.likelihood = likelihood[0]
    return cp


# ---------------------------------------------------------------------------
# Full measurement collection.

def collect_measurements(
    model: WireframeModel,
    R: list,
    t: list,
    K: CameraIntrinsics,
    gray: GrayImage,
    render_ids: Callable[[np.ndarray], IdBuffer],
    cfg,
    backend,
) -> MeasurementSet:
    """Sample, visibility-filter, and match control points on every edge
    at the predicted pose (R, t), given on the backend's words
    (``geometry.pose_words``).

    Each step runs once per frame on backend arrays: over all edges the
    camera transform, the near-plane clip, the projection, the clip to the
    image box [0, size - 1] and the sample layout; then over all control
    points the visibility test, the 3D point and the search.  The
    visibility test reads the ID buffer that ``render_ids`` returns for the
    sorted flat indices of the pixels it reads; a buffer holding more
    pixels gives the same result.  Raises InsufficientMeasurementsError
    when fewer than 6 points match: the pose has 6 degrees of freedom.
    """
    be = backend
    Kb: BackendIntrinsics = K.to_backend(be)

    # Camera and world coordinates of the edge ends, one (6, V) array
    # near-clipped as one: the clip parameter is valid in world space too,
    # since the camera transform is affine.
    ends = model.edge_ends[1]
    world = model.used_vertices(be)
    _, cam = transform(world, R, t, be)
    points = be.stack([cam, world]).reshape(6, -1)
    edge, a, b = clip_near(points[:, ends[:, 0]], points[:, ends[:, 1]],
                           be.constant(NEAR_PLANE_MM), be)
    pa = project_cam(a, Kb)
    d = project_cam(b, Kb) - pa
    t_lo, t_hi, hit = clip_box(pa, d, (0, 0), (K.width - 1, K.height - 1), be)
    rows = np.flatnonzero(hit)
    edge, t_lo, t_hi, pa, d = edge[rows], t_lo[rows], t_hi[rows], pa[:, rows], d[:, rows]
    seg, tk, p, n = _sample_segments(pa + t_lo * d, pa + t_hi * d, cfg, be)
    flat = neighbourhoods(be.to_float(p), K.width, K.height)
    visible = neighbourhoods_visible(flat, edge[seg], render_ids(read_pixels(flat)))
    seg, tk, p, n = seg[visible], tk[visible], p[:, visible], n[:, visible]
    # Parameter on the near-clipped projected segment, then the
    # perspective-correct parameter along the 3D segment.
    a, b = a[:, rows[seg]], b[:, rows[seg]]
    t_lo, t_hi, za, zb = t_lo[seg], t_hi[seg], a[2], b[2]
    t2 = t_lo + tk * (t_hi - t_lo)
    t3 = t2 * za / (zb + t2 * (za - zb))
    wa = a[3:]
    X = wa + t3 * (b[3:] - wa)
    hit, match, likelihood = _search(gray, p, n, cfg, be)
    if np.count_nonzero(hit) < 6:
        raise InsufficientMeasurementsError(
            f"only {np.count_nonzero(hit)} matched control points; pose needs 6"
        )
    return MeasurementSet(
        edge_index=edge[seg][hit],
        p=p[:, hit],
        n=n[:, hit],
        X=X[:, hit],
        match=match,
        likelihood=likelihood,
        n_projected=len(visible),
        n_sampled=int(np.count_nonzero(visible)),
    )
