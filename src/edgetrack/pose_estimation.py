"""Pose refinement from edge-normal reprojection residuals.

Each matched control point contributes a signed scalar residual: the
component of (match - projection) along the edge normal.  A Levenberg-
Marquardt loop minimizes the sum of squared residuals over the 6 pose
parameters, with the rotation updated incrementally on the left so the
Jacobian never differentiates through the exponential map at large angles.

Everything runs on the realmath backend, so the same code path produces
float results or bit-reproducible fixed-point results.  Residuals, Jacobian
rows and the normal equations are computed once per trial over all points
on the backend's arrays; the damping loop runs on scalars, and the 6x6
solve and the rotation update on the backend's words (``backend.words``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    BehindCameraError,
    CameraIntrinsics,
    PoseSE3,
    WireframeModel,
    exp_map,
    log_rotation_np,
    project_point,
)
from .imaging import GrayImage
from .rasterizer import render_id_buffer
from .realmath import FixedArray, FixedPoint, FloatBackend, get_backend

# Relative pivot size below which the damped normal system counts as singular.
_PIVOT_RTOL = 1e-12


class DegenerateGeometryError(ValueError):
    """Measurement geometry leaves pose directions unobservable."""


class FrameSizeError(ValueError):
    """A frame's size differs from the camera's image size."""


@dataclass
class LMSettings:
    """Damping schedule and stopping rules for the pose solver.

    ``tol_relative`` / ``tol_step`` of None pick per-backend defaults:
    1e-6 / 1e-8 for float, 1e-4 / 1e-5 for the fixed-point formats, whose
    cost surface is quantized too coarsely for the float thresholds.
    """

    lambda0: float = 1e-3
    lambda_scale: float = 10.0
    lambda_max: float = 1e4
    max_iterations: int = 50
    max_rejections: int = 10
    tol_relative: Optional[float] = None
    tol_step: Optional[float] = None

    def __post_init__(self):
        if self.lambda0 <= 0 or self.lambda_scale <= 1:
            raise ValueError("damping requires lambda0 > 0 and scale > 1")
        if self.lambda_max < self.lambda0:
            raise ValueError("lambda_max must be >= lambda0")

    def resolved_tolerances(self, backend) -> tuple[float, float]:
        fixed = backend.is_fixed
        rel = self.tol_relative if self.tol_relative is not None else (1e-4 if fixed else 1e-6)
        step = self.tol_step if self.tol_step is not None else (1e-5 if fixed else 1e-8)
        return rel, step


def _to_float(x):
    """Exact float view of a backend scalar or array, for control-flow tests only."""
    return x.to_float() if isinstance(x, (FixedPoint, FixedArray)) else x


# ---------------------------------------------------------------------------
# Residual and Jacobian.

def _check_unit_normals(n):
    """Raise ValueError unless every edge normal n is unit length.

    Allows a few ulps of slack for fixed-point values: storing a unit
    vector at Q47.16 resolution already perturbs the squared norm by more
    than the float tolerance.
    """
    nn = n[0] * n[0] + n[1] * n[1]
    tol = 1e-6
    if isinstance(nn, (FixedPoint, FixedArray)):
        tol = max(tol, 16.0 * nn.FORMAT.resolution)
    if np.any(abs(_to_float(nn) - 1.0) > tol):
        raise ValueError("edge normal must be unit length")


def residual(p, q, n):
    """Signed distance of the match q from the projected point p along the
    unit normal n.

    Takes backend scalars for one point or backend arrays for many.
    """
    return (q[0] - p[0]) * n[0] + (q[1] - p[1]) * n[1]


def _jacobian_row(v, c, n, Kb):
    """Jacobian row from the rotated point v and camera point c.

    With g = n^T * d(projection)/d(camera point), the row is (g x v, -g):
    the rotation block comes from a left-multiplied increment exp(eps)*R,
    which keeps the linearization well-behaved at any rotation magnitude.
    """
    z = c[2]
    gx = n[0] * Kb.fx / z
    gy = n[1] * Kb.fy / z
    gz = -(n[0] * (Kb.fx * c[0] / z) + n[1] * (Kb.fy * c[1] / z)) / z
    return (
        gy * v[2] - gz * v[1],
        gz * v[0] - gx * v[2],
        gx * v[1] - gy * v[0],
        -gx,
        -gy,
        -gz,
    )


def residual_jacobian(X, R, t, Kb, n, backend):
    """Row of ∂r/∂(rotation increment, translation) at the current pose."""
    _, v, c = project_point(X, R, t, Kb, backend)
    return _jacobian_row(v, c, n, Kb)


def _build_system(columns, R, t, Kb, backend):
    """Residuals and the six Jacobian columns at the pose (R, t), as
    backend arrays over all points."""
    X, n, q = columns
    p, v, c = project_point(X, R, t, Kb, backend)
    return residual(p, q, n), _jacobian_row(v, c, n, Kb)


_UPPER = np.triu_indices(6)


def _normal_equations(rs, rows, backend):
    """JᵀJ and Jᵀr as nested lists of backend scalars.

    Each entry is its own sum over the points, left to right from zero, as
    an accumulation loop over the points would form it.
    """
    J = backend.stack(rows)
    upper = backend.row_sums(J[_UPPER[0]] * J[_UPPER[1]])
    A = [[None] * 6 for _ in range(6)]
    for i, j, value in zip(*(ix.tolist() for ix in _UPPER), upper):
        A[i][j] = A[j][i] = value
    return A, backend.row_sums(J * rs[None])


def _sum_squares(rs, backend):
    return backend.row_sums((rs * rs)[None])[0]


def _solve_linear6(A, b, backend):
    """Gaussian elimination with partial pivoting; None when singular.

    Runs on the backend's words (``backend.words``): floats, or raw
    fixed-point words rounded and range-checked as FixedPoint's operators
    do, so every step gives the word the same step on scalars gives.
    """
    w = backend.words
    sub, mul, div, to_float = w.sub, w.mul, w.div, w.to_float
    aug = [[w.word(v) for v in A[i]] + [w.word(b[i])] for i in range(6)]
    ref = max(abs(to_float(aug[i][j])) for i in range(6) for j in range(6))
    if ref == 0.0:
        return None
    for col in range(6):
        piv = max(range(col, 6), key=lambda r: abs(to_float(aug[r][col])))
        if abs(to_float(aug[piv][col])) <= _PIVOT_RTOL * ref:
            return None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        for r in range(col + 1, 6):
            row = aug[r]
            factor = div(row[col], top[col])
            for cc in range(col, 7):
                row[cc] = sub(row[cc], mul(factor, top[cc]))
    x = [None] * 6
    for r in range(5, -1, -1):
        row = aug[r]
        acc = row[6]
        for cc in range(r + 1, 6):
            acc = sub(acc, mul(row[cc], x[cc]))
        x[r] = div(acc, row[r])
    return [w.scalar(v) for v in x]


def _mat_mul3(A, B, backend):
    """A B for 3x3 nested lists of backend scalars, each entry summed from
    0 left to right as sum() does; runs on the backend's words."""
    w = backend.words
    add, mul = w.add, w.mul
    a = [[w.word(v) for v in row] for row in A]
    b = [[w.word(v) for v in row] for row in B]
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = 0
            for k in range(3):
                acc = add(acc, mul(a[i][k], b[k][j]))
            out[i][j] = w.scalar(acc)
    return out


def _pose_from_backend(R, t, backend) -> PoseSE3:
    Rf = np.array([[backend.to_float(R[i][j]) for j in range(3)] for i in range(3)])
    tf = np.array([backend.to_float(v) for v in t])
    return PoseSE3(log_rotation_np(Rf), tf)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt.

def solve_lm(columns, pose0: PoseSE3, K: CameraIntrinsics, settings: LMSettings, backend):
    """Minimize the squared edge-normal residuals over the 6 pose parameters.

    ``columns`` are the measurements (X, n, match), each a tuple of backend
    arrays with one entry per matched control point.  Returns (refined
    pose, sum of absolute residuals, accepted steps, trial steps); the
    trial count includes rejected steps, the honest measure of how hard the
    minimization worked.  Rejected trial steps escalate the damping; a
    normal system that stays singular through the whole escalation raises
    DegenerateGeometryError, and a normal that is not unit length raises
    ValueError.
    """
    _check_unit_normals(columns[1])
    be = backend
    tol_rel, tol_step = settings.resolved_tolerances(be)
    tol_rel_b = be.from_float(tol_rel)
    tol_step_b = be.from_float(tol_step)
    Kb = K.to_backend(be)
    R = exp_map(tuple(be.from_float(w) for w in pose0.omega), be)
    t = [be.from_float(v) for v in pose0.t]

    rs, rows = _build_system(columns, R, t, Kb, be)
    cost = _sum_squares(rs, be)
    iterations = 0
    attempts = 0
    lam = be.from_float(settings.lambda0)
    if not cost > be.zero:
        return _pose_from_backend(R, t, be), 0.0, 0, 0

    for _ in range(settings.max_iterations):
        A, g = _normal_equations(rs, rows, be)

        rejections = 0
        accepted = False
        singular = False
        while True:
            attempts += 1
            damped = [list(A[i]) for i in range(6)]
            for i in range(6):
                damped[i][i] = A[i][i] + lam * A[i][i]
            delta = _solve_linear6(damped, [-v for v in g], be)
            singular = delta is None
            if not singular:
                R_new = _mat_mul3(exp_map((delta[0], delta[1], delta[2]), be), R, be)
                t_new = [t[i] + delta[3 + i] for i in range(3)]
                try:
                    rs_new, rows_new = _build_system(columns, R_new, t_new, Kb, be)
                except BehindCameraError:
                    rs_new = None
                if rs_new is not None:
                    cost_new = _sum_squares(rs_new, be)
                    if cost_new < cost:
                        accepted = True
                        break
            rejections += 1
            if rejections > settings.max_rejections:
                break
            # The cap keeps the damped diagonal inside the fixed-point
            # range; steps are already negligible at that damping.
            lam = lam * be.from_float(settings.lambda_scale)
            lam_cap = be.from_float(settings.lambda_max)
            if lam > lam_cap:
                lam = lam_cap

        if not accepted:
            if singular:
                raise DegenerateGeometryError(
                    "normal system singular after full damping escalation"
                )
            break
        lam = lam / be.from_float(settings.lambda_scale)
        iterations += 1
        decrease = cost - cost_new
        rel_small = decrease < tol_rel_b * cost
        step_sq = be.zero
        for d in delta:
            step_sq = step_sq + d * d
        step_small = be.sqrt(step_sq) < tol_step_b
        R, t, rs, rows, cost = R_new, t_new, rs_new, rows_new, cost_new
        if rel_small or step_small or not cost > be.zero:
            break

    err = FloatBackend.row_sums(abs(_to_float(rs))[None])[0]
    return _pose_from_backend(R, t, be), err, iterations, attempts


# ---------------------------------------------------------------------------
# Per-frame pipeline.

@dataclass
class FrameStats:
    """Counters and stage timings for one tracked frame."""

    projected: int
    sampled: int
    matched: int
    err: float
    iterations: int  # accepted LM steps
    attempts: int  # all LM trial steps, including rejected ones
    t_visible: float  # render + visibility bookkeeping, seconds
    t_me: float  # measurement collection incl. the 1D search
    t_pose: float  # LM refinement


def track_frame(prev_pose: PoseSE3, gray: GrayImage, model: WireframeModel,
                K: CameraIntrinsics, cfg) -> tuple[PoseSE3, FrameStats]:
    """Refine the previous pose against one gray frame.

    Renders the ID buffer at the prediction, collects matched control
    points, and runs the LM solver from the prediction.  Insufficient
    measurements, degenerate geometry or a frame of the wrong size
    (FrameSizeError) propagate to the caller, which owns the coast-or-abort
    policy.
    """
    from .tracking import collect_measurements

    if (gray.width, gray.height) != (K.width, K.height):
        raise FrameSizeError(
            f"frame is {gray.width}x{gray.height}, the camera {K.width}x{K.height}"
        )
    be = get_backend(cfg.backend)
    t0 = time.perf_counter()
    id_buf = render_id_buffer(model, prev_pose, K)
    t1 = time.perf_counter()
    ms = collect_measurements(model, prev_pose, K, gray, id_buf, cfg, be)
    t2 = time.perf_counter()
    pose, err, iterations, attempts = solve_lm((ms.X, ms.n, ms.match), prev_pose, K, cfg.lm, be)
    t3 = time.perf_counter()
    stats = FrameStats(
        projected=ms.n_projected,
        sampled=ms.n_sampled,
        matched=ms.n_matched,
        err=err,
        iterations=iterations,
        attempts=attempts,
        t_visible=t1 - t0,
        t_me=t2 - t1,
        t_pose=t3 - t2,
    )
    return pose, stats
