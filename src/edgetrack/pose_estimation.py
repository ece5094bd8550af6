"""Pose refinement from edge-normal reprojection residuals.

Each matched control point contributes a signed scalar residual: the
component of (match - projection) along the edge normal.  A Levenberg-
Marquardt loop minimizes the sum of squared residuals over the 6 pose
parameters, with the rotation updated incrementally on the left so the
Jacobian never differentiates through the exponential map at large angles.

A trial solves (A + lambda*diag(A)) delta = -g, with A = JᵀJ and g = Jᵀr,
starting at lambda = ``LMSettings.lambda0``.  A trial that lowers the cost
is accepted and divides lambda by 10; any other (a higher cost, a singular
system, a point behind the camera) multiplies it by 10, up to 1e4.  LM
stops after ``LMSettings.max_iterations`` accepted steps, at the 11th
rejection in a row, or on an accepted step whose relative cost decrease or
step norm is below the backend's tolerance (``_TOLERANCES``) or that leaves
a zero cost.  ``lambda0`` and ``max_iterations`` are the only settings.

Everything runs on the realmath backend, so the same code path produces
float results or bit-reproducible fixed-point results.  Residuals, Jacobian
rows and the normal equations are computed once per trial over all points
on the backend's arrays; the damped 6x6 solve and the rotation update run
on the backend's words (``backend.words``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
from .realmath import FloatBackend, get_backend

# Relative pivot size below which the damped normal system counts as singular.
_PIVOT_RTOL = 1e-12

# Damping schedule: a rejected trial multiplies lambda by _LAMBDA_SCALE and an
# accepted one divides it.  The cap keeps the damped diagonal A + lambda*diag(A)
# inside the fixed-point range; steps are already negligible at that damping.
_LAMBDA_SCALE = 10.0
_LAMBDA_MAX = 1e4
_MAX_REJECTIONS = 10  # rejections in a row that LM allows; the next one stops it

# (relative cost decrease, step norm) below which an accepted step ends LM,
# keyed by backend.is_fixed: the fixed-point formats quantize the cost
# surface too coarsely for the float thresholds.
_TOLERANCES = {False: (1e-6, 1e-8), True: (1e-4, 1e-5)}


class DegenerateGeometryError(ValueError):
    """Measurement geometry leaves pose directions unobservable."""


class FrameSizeError(ValueError):
    """A frame's size differs from the camera's image size."""


@dataclass
class LMSettings:
    """The two settable values of the pose solver: the starting damping and
    the budget of accepted steps."""

    lambda0: float = 1e-3
    max_iterations: int = 50

    def __post_init__(self):
        if not 0 < self.lambda0 <= _LAMBDA_MAX:
            raise ValueError(f"lambda0 must lie in (0, {_LAMBDA_MAX:g}]")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


# ---------------------------------------------------------------------------
# Residual and Jacobian.

def _check_unit_normals(n, backend):
    """Raise ValueError unless every edge normal n is unit length.

    Allows a few ulps of slack for fixed-point values: storing a unit
    vector at Q47.16 resolution already perturbs the squared norm by more
    than the float tolerance.
    """
    nn = n[0] * n[0] + n[1] * n[1]
    tol = max(1e-6, 16.0 * backend.format.resolution) if backend.is_fixed else 1e-6
    if np.any(abs(backend.to_float(nn) - 1.0) > tol):
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


def _solve_linear6(A, g, lam, backend):
    """The LM step delta solving (A + lam*diag(A)) delta = -g, by Gaussian
    elimination with partial pivoting; None when singular.

    Runs on the backend's words (``backend.words``): floats, or raw
    fixed-point words rounded and range-checked as FixedPoint's operators
    do, so every step gives the word the same step on scalars gives.
    """
    w = backend.words
    sub, mul, div, to_float = w.sub, w.mul, w.div, w.to_float
    aug = [[w.word(v) for v in A[i]] + [w.neg(w.word(g[i]))] for i in range(6)]
    lam = w.word(lam)
    for i in range(6):
        aug[i][i] = w.add(aug[i][i], mul(lam, aug[i][i]))
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

def _trial(columns, R, t, delta, Kb, backend):
    """The pose (R, t) moved by the step delta, with its residuals, Jacobian
    columns and cost; None when a point falls behind the camera."""
    R = _mat_mul3(exp_map((delta[0], delta[1], delta[2]), backend), R, backend)
    t = [t[i] + delta[3 + i] for i in range(3)]
    try:
        rs, rows = _build_system(columns, R, t, Kb, backend)
    except BehindCameraError:
        return None
    return R, t, rs, rows, _sum_squares(rs, backend)


def solve_lm(columns, pose0: PoseSE3, K: CameraIntrinsics, settings: LMSettings, backend):
    """Minimize the squared edge-normal residuals over the 6 pose parameters.

    ``columns`` are the measurements (X, n, match), each a tuple of backend
    arrays with one entry per matched control point.  Returns (refined
    pose, sum of absolute residuals, accepted steps, trial steps); the
    trial count includes rejected steps, the honest measure of how hard the
    minimization worked.  A run of rejections that ends on a singular
    normal system raises DegenerateGeometryError, and a normal that is not
    unit length raises ValueError.
    """
    be = backend
    _check_unit_normals(columns[1], be)
    tol_rel, tol_step = (be.from_float(v) for v in _TOLERANCES[be.is_fixed])
    scale, lam_max = be.from_float(_LAMBDA_SCALE), be.from_float(_LAMBDA_MAX)
    Kb = K.to_backend(be)
    R = exp_map(tuple(be.from_float(w) for w in pose0.omega), be)
    t = [be.from_float(v) for v in pose0.t]

    rs, rows = _build_system(columns, R, t, Kb, be)
    cost = _sum_squares(rs, be)
    lam = be.from_float(settings.lambda0)
    iterations = attempts = rejections = 0
    while iterations < settings.max_iterations and cost > be.zero:
        if rejections == 0:
            A, g = _normal_equations(rs, rows, be)
        attempts += 1
        delta = _solve_linear6(A, g, lam, be)
        moved = None if delta is None else _trial(columns, R, t, delta, Kb, be)
        if moved is None or not moved[4] < cost:
            rejections += 1
            if rejections > _MAX_REJECTIONS:
                if delta is None:
                    raise DegenerateGeometryError(
                        "normal system singular after full damping escalation"
                    )
                break
            lam = min(lam * scale, lam_max)
            continue
        lam = lam / scale
        rejections = 0
        iterations += 1
        step_sq = be.zero
        for d in delta:
            step_sq = step_sq + d * d
        rel_small = cost - moved[4] < tol_rel * cost
        R, t, rs, rows, cost = moved
        if rel_small or be.sqrt(step_sq) < tol_step:
            break

    err = FloatBackend.row_sums(abs(be.to_float(rs))[None])[0]
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
