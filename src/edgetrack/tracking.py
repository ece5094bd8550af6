"""Control-point sampling along projected edges and the 1D edge search.

A predicted pose projects each visible model edge into the image; control
points are spread evenly along the projected segment, filtered through the
edge-ID visibility test, then each point searches for the strongest intensity
gradient along its edge normal (a single-hypothesis moving-edges scan).  The
surviving (point, match) pairs are the measurements the pose refiner
consumes.

All per-point arithmetic goes through the realmath backend so fixed-point
runs are bit-deterministic; only the ID-buffer lookup converts to float (an
exact conversion) to address pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .geometry import (
    BackendIntrinsics,
    CameraIntrinsics,
    PoseSE3,
    WireframeModel,
    exp_map,
    mat_vec,
    project_cam,
)
from .imaging import GrayImage
from .pose_estimation import LMSettings
from .rasterizer import NEAR_PLANE_MM, IdBuffer, is_point_visible
from .realmath import BACKEND_NAMES


class InsufficientMeasurementsError(ValueError):
    """Fewer matched control points than the 6 pose degrees of freedom."""


@dataclass
class TrackerConfig:
    sampling_step: float = 10.0
    search_range: int = 8
    gradient_threshold: float = 10.0
    backend: str = "float"
    lm: LMSettings = field(default_factory=LMSettings)

    def __post_init__(self):
        if self.sampling_step < 2:
            raise ValueError("sampling_step must be >= 2 px")
        if self.search_range < 1:
            raise ValueError("search_range must be >= 1 px")
        if self.gradient_threshold < 0:
            raise ValueError("gradient_threshold must be >= 0")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass
class ControlPoint:
    """One measurement site on a projected model edge.

    Scalar fields hold backend scalars (floats or FixedPoint); ``match`` is
    set by the correspondence search when a gradient above threshold exists.
    """

    edge_index: int
    p: tuple  # 2D sub-pixel position
    n: tuple  # 2D unit edge normal
    t: object = None  # parameter along the clipped segment
    X: tuple = None  # 3D world point that projected to p
    match: Optional[tuple] = None
    likelihood: object = None


@dataclass
class MeasurementSet:
    """Matched control points plus the per-stage counters the stats report."""

    points: list  # matched ControlPoints
    n_projected: int  # control points sampled on projected segments
    n_sampled: int  # of those, points passing the visibility test
    n_matched: int


# ---------------------------------------------------------------------------
# Sampling.

def sample_control_points(segment, edge_index: int, cfg: TrackerConfig, backend) -> list:
    """Evenly spaced control points along a projected 2D segment.

    ``segment`` is a pair of 2D points in backend scalars.  Point count is
    floor(length / step); a segment shorter than one step but at least half a
    step still yields one point.  Points sit at t = (k + 0.5) / n, keeping
    them off the segment ends.
    """
    (ax, ay), (bx, by) = segment
    dx, dy = bx - ax, by - ay
    length = backend.sqrt(dx * dx + dy * dy)
    step = backend.from_float(cfg.sampling_step)
    n = backend.floor_to_int(length / step)
    if n == 0:
        # length >= step/2, compared without dividing the step
        if not (length + length >= step):
            return []
        n = 1
    # Divide components directly: multiplying by a reciprocal doubles the
    # quantization error in fixed point and breaks the unit-normal contract.
    nx, ny = -(dy / length), dx / length
    points = []
    for k in range(n):
        t = backend.from_float(k + 0.5) / backend.from_int(n)
        points.append(
            ControlPoint(
                edge_index=edge_index,
                p=(ax + t * dx, ay + t * dy),
                n=(nx, ny),
                t=t,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Moving-edges correspondence search.

def bilinear_sample(gray: GrayImage, x, y, backend):
    """Bilinear gray intensity at a sub-pixel position; None off the image."""
    x0 = backend.floor_to_int(x)
    y0 = backend.floor_to_int(y)
    if x0 < 0 or y0 < 0 or x0 + 1 >= gray.width or y0 + 1 >= gray.height:
        return None
    fx = x - x0
    fy = y - y0
    px = gray.pixels
    i00 = int(px[y0, x0])
    i10 = int(px[y0, x0 + 1])
    i01 = int(px[y0 + 1, x0])
    i11 = int(px[y0 + 1, x0 + 1])
    top = i00 + fx * (i10 - i00)
    bottom = i01 + fx * (i11 - i01)
    return top + fy * (bottom - top)


def search_correspondence(gray: GrayImage, cp: ControlPoint, cfg: TrackerConfig, backend):
    """Scan integer offsets along the normal for the strongest gradient.

    Likelihood at offset s is |I(s+1) - I(s-1)| / 2.  The best site wins;
    ties prefer the smallest |s| (and the negative side at equal distance),
    favoring the prediction.  Below-threshold maxima leave match unset.
    """
    r = cfg.search_range
    px, py = cp.p
    nx, ny = cp.n
    intensities = {}
    for s in range(-r - 1, r + 2):
        intensities[s] = bilinear_sample(gray, px + s * nx, py + s * ny, backend)
    threshold = backend.from_float(cfg.gradient_threshold)
    best_s = None
    best_l = None
    for s in sorted(range(-r, r + 1), key=lambda v: (abs(v), v)):
        before, after = intensities[s - 1], intensities[s + 1]
        if before is None or after is None:
            continue
        likelihood = abs(after - before) / 2
        if best_l is None or likelihood > best_l:
            best_l = likelihood
            best_s = s
    if best_l is not None and best_l >= threshold:
        cp.match = (px + best_s * nx, py + best_s * ny)
        cp.likelihood = best_l
    return cp


# ---------------------------------------------------------------------------
# Full measurement collection.

def _clip_unit_interval(constraints, backend, t_lo, t_hi):
    """Liang-Barsky style clip: keep t where fa + t*fd >= 0 for all pairs."""
    for fa, fd in constraints:
        if fd == backend.zero:
            if fa < backend.zero:
                return None
            continue
        t_cross = -fa / fd
        if fd > backend.zero:
            if t_cross > t_lo:
                t_lo = t_cross
        else:
            if t_cross < t_hi:
                t_hi = t_cross
    if not t_lo < t_hi:
        return None
    return t_lo, t_hi


def collect_measurements(
    model: WireframeModel,
    pose: PoseSE3,
    K: CameraIntrinsics,
    gray: GrayImage,
    id_buffer: IdBuffer,
    cfg: TrackerConfig,
    backend,
) -> MeasurementSet:
    """Sample, visibility-filter, and match control points on every edge.

    Raises InsufficientMeasurementsError when fewer than 6 points match:
    the pose has 6 degrees of freedom.
    """
    be = backend
    R = exp_map(tuple(be.from_float(w) for w in pose.omega), be)
    t = tuple(be.from_float(v) for v in pose.t)
    Kb: BackendIntrinsics = K.to_backend(be)
    near = be.from_float(NEAR_PLANE_MM)
    one = be.one
    u_max = be.from_int(K.width - 1)
    v_max = be.from_int(K.height - 1)

    matched: list = []
    n_projected = 0
    n_sampled = 0
    for i, e in enumerate(model.edges):
        wa = tuple(be.from_float(c) for c in model.vertices[e[0]])
        wb = tuple(be.from_float(c) for c in model.vertices[e[1]])
        ca = mat_vec(R, wa)
        cb = mat_vec(R, wb)
        ca = (ca[0] + t[0], ca[1] + t[1], ca[2] + t[2])
        cb = (cb[0] + t[0], cb[1] + t[1], cb[2] + t[2])
        za, zb = ca[2], cb[2]
        if za < near and zb < near:
            continue
        # Clip against the near plane; s parameterizes the original edge and
        # is valid in world space too (the camera transform is affine).
        s0 = be.zero if za >= near else (near - za) / (zb - za)
        s1 = one if zb >= near else (near - za) / (zb - za)
        wa2 = tuple(wa[j] + s0 * (wb[j] - wa[j]) for j in range(3))
        wb2 = tuple(wa[j] + s1 * (wb[j] - wa[j]) for j in range(3))
        ca2 = tuple(ca[j] + s0 * (cb[j] - ca[j]) for j in range(3))
        cb2 = tuple(ca[j] + s1 * (cb[j] - ca[j]) for j in range(3))
        za2, zb2 = ca2[2], cb2[2]
        ua, va = project_cam(ca2, Kb)
        ub, vb = project_cam(cb2, Kb)
        du, dv = ub - ua, vb - va
        span = _clip_unit_interval(
            [(ua, du), (u_max - ua, -du), (va, dv), (v_max - va, -dv)],
            be,
            be.zero,
            one,
        )
        if span is None:
            continue
        t_lo, t_hi = span
        a2 = (ua + t_lo * du, va + t_lo * dv)
        b2 = (ua + t_hi * du, va + t_hi * dv)
        points = sample_control_points((a2, b2), i, cfg, be)
        n_projected += len(points)
        for cp in points:
            p_float = (be.to_float(cp.p[0]), be.to_float(cp.p[1]))
            if not is_point_visible(p_float, i, id_buffer):
                continue
            n_sampled += 1
            # Parameter on the near-clipped projected segment, then the
            # perspective-correct parameter along the 3D segment.
            t2 = t_lo + cp.t * (t_hi - t_lo)
            t3 = t2 * za2 / (zb2 + t2 * (za2 - zb2))
            cp.X = tuple(wa2[j] + t3 * (wb2[j] - wa2[j]) for j in range(3))
            search_correspondence(gray, cp, cfg, be)
            if cp.match is not None:
                matched.append(cp)
    if len(matched) < 6:
        raise InsufficientMeasurementsError(
            f"only {len(matched)} matched control points; pose needs 6"
        )
    return MeasurementSet(
        points=matched,
        n_projected=n_projected,
        n_sampled=n_sampled,
        n_matched=len(matched),
    )
