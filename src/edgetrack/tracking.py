"""Control-point sampling along projected edges and the 1D edge search.

A predicted pose projects each model edge into the image and control
points are spread evenly along the projected segment.  The edge-ID buffer
is then rendered only at the pixels the visibility test reads, the 3x3
neighbourhoods of those points (``rasterizer.read_pixels``), and filters
them; each visible point searches for the strongest intensity gradient
along its edge normal (a single-hypothesis moving-edges scan).  The
surviving (point, match) pairs are the measurements the pose refiner
consumes.

All per-edge and per-point arithmetic goes through the realmath backend so
fixed-point runs are bit-deterministic, and runs once per frame over all
edges, then all points, on the backend's arrays; the edges are clipped by
the renderer's near-plane and box clips.  Only the ID-buffer lookup
converts to float (an exact conversion) to address pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .geometry import (
    BackendIntrinsics,
    CameraIntrinsics,
    PoseSE3,
    WireframeModel,
    clip_box,
    clip_near,
    exp_map,
    project_cam,
    transform,
)
from .imaging import GrayImage
from .pose_estimation import LMSettings
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
from .realmath import BACKEND_NAMES, FixedArray


class InsufficientMeasurementsError(ValueError):
    """Fewer matched control points than the 6 pose degrees of freedom."""


@dataclass(frozen=True)
class TrackerConfig:
    sampling_step: float = 10.0
    search_range: int = 8
    gradient_threshold: float = 10.0
    backend: str = "float"
    lm: LMSettings = field(default_factory=LMSettings)

    def __post_init__(self):
        if not 2 <= self.sampling_step < math.inf:
            raise ValueError("sampling_step must be finite and >= 2 px")
        if self.search_range < 1:
            raise ValueError("search_range must be >= 1 px")
        if not 0 <= self.gradient_threshold < math.inf:
            raise ValueError("gradient_threshold must be finite and >= 0")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(f"unknown backend {self.backend!r}")

    @cached_property
    def tie_order(self) -> np.ndarray:
        """The search's 2 r + 1 offset columns, column c for offset
        s = c - r, in the order ties go: smallest |s| first, the negative
        side first at equal |s|."""
        r = self.search_range
        return np.array(sorted(range(2 * r + 1), key=lambda c: (abs(c - r), c - r)))


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
    """Matched control points as backend column arrays, plus the per-stage
    counters the stats report.  Entry k of every column is the k-th match."""

    edge_index: np.ndarray  # model edge of each point
    p: tuple  # (x, y) control points
    n: tuple  # (nx, ny) unit edge normals
    X: tuple  # (x, y, z) world points that project to p
    match: tuple  # (x, y) matched image points
    likelihood: object  # gradient strength at each match
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


def _sample_segments(ax, ay, bx, by, cfg: TrackerConfig, backend):
    """Control points spread evenly along the projected segments a[i]-b[i],
    given as backend arrays.

    A segment gets floor(length / step) points, or one point when it is
    shorter than a step but at least half a step long; its points follow
    _sample_params.  Returns, per point, the index of its segment, its t,
    its position (x, y) and its segment's unit normal (nx, ny).
    """
    dx, dy = bx - ax, by - ay
    length = backend.sqrt(dx * dx + dy * dy)
    step = backend.constant(cfg.sampling_step)
    counts = backend.floor_array(length / step)
    # length >= step/2, compared without dividing the step
    counts = np.where((counts == 0) & (length + length >= step), 1, counts)
    rows = np.flatnonzero(counts)
    dx, dy, length = dx[rows], dy[rows], length[rows]
    slot, t = _sample_params(counts[rows], backend)
    # Divide components directly: multiplying by a reciprocal doubles the
    # quantization error in fixed point and breaks the unit-normal contract.
    nx, ny = -(dy / length), dx / length
    at = rows[slot]
    return at, t, (ax[at] + t * dx[slot], ay[at] + t * dy[slot]), (nx[slot], ny[slot])


# ---------------------------------------------------------------------------
# Moving-edges correspondence search.

def _bilinear(gray: GrayImage, x, y, backend):
    """Bilinear gray intensities at sub-pixel positions given as backend
    arrays, and a mask of the positions whose 2x2 neighbourhood lies on the
    image; masked-out entries hold meaningless values."""
    x0 = backend.floor_array(x)
    y0 = backend.floor_array(y)
    ok = (x0 >= 0) & (y0 >= 0) & (x0 + 1 < gray.width) & (y0 + 1 < gray.height)
    fx = x - x0
    fy = y - y0
    x0 = np.where(ok, x0, 0)
    y0 = np.where(ok, y0, 0)
    px = gray.pixels
    i00 = px[y0, x0].astype(np.int64)
    i10 = px[y0, x0 + 1].astype(np.int64)
    i01 = px[y0 + 1, x0].astype(np.int64)
    i11 = px[y0 + 1, x0 + 1].astype(np.int64)
    top = i00 + fx * (i10 - i00)
    bottom = i01 + fx * (i11 - i01)
    return top + fy * (bottom - top), ok


def bilinear_sample(gray: GrayImage, x, y, backend):
    """Bilinear gray intensity at a sub-pixel position; None off the image."""
    value, ok = _bilinear(gray, backend.stack([x]), backend.stack([y]), backend)
    return value[0] if ok[0] else None


def _search(gray: GrayImage, px, py, nx, ny, cfg: TrackerConfig, backend):
    """Scan integer offsets along each point's normal for the strongest gradient.

    Positions and normals are backend arrays.  Likelihood at offset s is
    |I(s+1) - I(s-1)| / 2, defined where both samples are on the image.  The
    best site wins; ties prefer the smallest |s| (and the negative side at
    equal distance), favoring the prediction.  Returns a mask of the points
    whose best likelihood clears the threshold, and for those points only
    the matched x, y and the likelihood.
    """
    r = cfg.search_range
    offsets = np.arange(-r - 1, r + 2)
    xs = px[:, None] + offsets * nx[:, None]
    ys = py[:, None] + offsets * ny[:, None]
    intensity, ok = _bilinear(gray, xs, ys, backend)
    likelihood = abs(intensity[:, 2:] - intensity[:, :-2]) / 2  # column c is s = c - r
    valid = ok[:, 2:] & ok[:, :-2]
    # Likelihoods are >= 0, so -1 marks a site that cannot win; argmax takes
    # the first maximum in tie order.
    order = cfg.tie_order
    key = likelihood.raw if isinstance(likelihood, FixedArray) else likelihood
    best = order[np.argmax(np.where(valid, key, -1)[:, order], axis=1)]
    rows = np.arange(len(best))
    best_l = likelihood[rows, best]
    hit = valid[rows, best] & (best_l >= backend.constant(cfg.gradient_threshold))
    return hit, xs[rows, best + 1][hit], ys[rows, best + 1][hit], best_l[hit]


def search_correspondence(gray: GrayImage, cp: ControlPoint, cfg: TrackerConfig, backend):
    """Moving-edges scan for one control point (see _search).

    Sets cp.match and cp.likelihood when the best gradient clears the
    threshold; below-threshold maxima leave match unset.
    """
    columns = (backend.stack([v]) for v in (*cp.p, *cp.n))
    hit, qx, qy, likelihood = _search(gray, *columns, cfg, backend)
    if hit[0]:
        cp.match = (qx[0], qy[0])
        cp.likelihood = likelihood[0]
    return cp


# ---------------------------------------------------------------------------
# Full measurement collection.

def collect_measurements(
    model: WireframeModel,
    pose: PoseSE3,
    K: CameraIntrinsics,
    gray: GrayImage,
    render_ids: Callable[[np.ndarray], IdBuffer],
    cfg: TrackerConfig,
    backend,
) -> MeasurementSet:
    """Sample, visibility-filter, and match control points on every edge.

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
    from_float = be.words.from_float
    R = exp_map(tuple(map(from_float, pose.omega)), be)
    t = list(map(from_float, pose.t))
    Kb: BackendIntrinsics = K.to_backend(be)

    # Camera and world coordinates of the edge ends, near-clipped together:
    # the clip parameter is valid in world space too, since the camera
    # transform is affine.
    ends = model.edge_ends[1]
    world = model.used_vertices(be)
    _, cam = transform(world, R, t, be)
    points = tuple(c[i] for c in (cam, world) for i in range(3))
    edge, a, b = clip_near(tuple(c[ends[:, 0]] for c in points),
                           tuple(c[ends[:, 1]] for c in points), be.constant(NEAR_PLANE_MM), be)
    (ua, va), (ub, vb) = project_cam(a, Kb), project_cam(b, Kb)
    du, dv = ub - ua, vb - va
    t_lo, t_hi, hit = clip_box((ua, va), (du, dv), (0, 0), (K.width - 1, K.height - 1), be)
    rows = np.flatnonzero(hit)
    edge, ua, va, du, dv, t_lo, t_hi = (c[rows] for c in (edge, ua, va, du, dv, t_lo, t_hi))
    a, b = tuple(c[rows] for c in a), tuple(c[rows] for c in b)
    seg, tk, (px, py), (nx, ny) = _sample_segments(
        ua + t_lo * du, va + t_lo * dv, ua + t_hi * du, va + t_hi * dv, cfg, be)
    flat = neighbourhoods(be.to_float(px), be.to_float(py), K.width, K.height)
    visible = neighbourhoods_visible(flat, edge[seg], render_ids(read_pixels(flat)))
    seg, tk, px, py, nx, ny = (c[visible] for c in (seg, tk, px, py, nx, ny))
    # Parameter on the near-clipped projected segment, then the
    # perspective-correct parameter along the 3D segment.
    t_lo, t_hi, za, zb = t_lo[seg], t_hi[seg], a[2][seg], b[2][seg]
    t2 = t_lo + tk * (t_hi - t_lo)
    t3 = t2 * za / (zb + t2 * (za - zb))
    X = tuple(wa[seg] + t3 * (wb[seg] - wa[seg]) for wa, wb in zip(a[3:], b[3:]))
    hit, qx, qy, likelihood = _search(gray, px, py, nx, ny, cfg, be)
    if np.count_nonzero(hit) < 6:
        raise InsufficientMeasurementsError(
            f"only {np.count_nonzero(hit)} matched control points; pose needs 6"
        )
    return MeasurementSet(
        edge_index=edge[seg][hit],
        p=(px[hit], py[hit]),
        n=(nx[hit], ny[hit]),
        X=tuple(c[hit] for c in X),
        match=(qx, qy),
        likelihood=likelihood,
        n_projected=len(visible),
        n_sampled=int(np.count_nonzero(visible)),
    )
