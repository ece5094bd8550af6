"""Pose refinement from edge-normal reprojection residuals.

Each matched control point contributes a signed scalar residual: the
component of (match - projection) along the edge normal.  A Levenberg-
Marquardt loop minimizes the sum of squared residuals over the 6 pose
parameters, with the rotation updated incrementally on the left so the
Jacobian never differentiates through the exponential map at large angles.

A trial solves (A + lambda*diag(A)) delta = -g, with A = JᵀJ and g = Jᵀr,
starting at lambda = ``LMSettings.lambda0``.  A trial that lowers the cost
is accepted and divides lambda by 10, unless that gives the zero word on
fixed point: lambda then stays, so the damping never reaches zero.  A
trial whose cost is no lower but rose by less than the backend's relative
tolerance (``_TOLERANCES``) times the cost ends LM at the current pose:
the cost is flat there at the level at which an accepted step also ends
LM, and on the fixed-point formats, whose cost is quantized, further
trials there mostly find a cost no lower.  Any other trial (a higher
cost, a singular system, a point behind the camera) multiplies lambda by
10, up to 1e4.  LM also stops after ``LMSettings.max_iterations``
accepted steps, at the 11th rejection in a row, or on an accepted step
whose relative cost decrease or step norm is below the backend's
tolerance or that leaves a zero cost; ``solve_lm`` says which
(``LM_STOPS``).  ``lambda0`` and ``max_iterations`` are the only settings.

Everything runs on the realmath backend, so the same code path produces
float results or bit-reproducible fixed-point results.  ``solve_lm``
takes the measurements as the tracker collects them, (3, N) world points
and (2, N) normals and matches, and starts from the prediction as words,
which ``track_frame`` forms once (``geometry.pose_words``) for
measurement and LM alike; each trial forms the residuals in a few
operations on the backend's arrays, and only a pose LM continues from gets
its (6, N) Jacobian and normal equations.  The pose, the damping, the
convergence tests, the rotation update (``geometry.exp_map``) and the
damped 6x6 solve stay on the backend's words (``backend.words``), so the
loop builds no array per scalar step.
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
    pose_words,
    transform,
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

# Why solve_lm stopped: an accepted step's relative cost decrease or step
# norm fell below the tolerance, the cost reached zero, the budget of
# accepted steps ran out, a trial was rejected with a cost no more than the
# relative tolerance above the current one (flat), or the rejections ran out.
LM_STOPS = ("rel_decrease", "small_step", "zero_cost", "max_iterations", "flat", "rejections")


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
    """Raise ValueError unless every edge normal, a column of the (2, N)
    array n, is unit length.

    Allows a few ulps of slack for fixed-point values: storing a unit
    vector at Q47.16 resolution already perturbs the squared norm by more
    than the float tolerance.
    """
    nn = n * n
    nn = nn[0] + nn[1]
    tol = max(1e-6, 16.0 * backend.format.resolution) if backend.is_fixed else 1e-6
    if np.any(abs(backend.to_float(nn) - 1.0) > tol):
        raise ValueError("edge normal must be unit length")


def residual(p, q, n):
    """Signed distances of the matches q from the projected points p along
    the unit normals n.

    Takes (2, N) backend arrays, x in row 0 and y in row 1, or (2,) arrays
    for one point.
    """
    d = (q - p) * n
    return d[0] + d[1]


def _project(X, R, t, focal, backend):
    """For the world points X at the pose (R, t) on words: the offsets
    K c_xy / z of their image points from the principal point, the rotated
    points and the depths z.  Raises BehindCameraError when any z <= 0.

    The rotated points come as five rows, the rows of R X in the order
    0, 1, 2, 0, 1, so that _jacobian's cross product takes its rotations of
    them as slices.
    """
    v, c = transform(X, R + R[:2], t + t[:2], backend)
    z = c[2]
    if not (z > 0).all():
        raise BehindCameraError(f"point depth {np.min(backend.to_float(z))} mm is not positive")
    return focal * c[:2] / z, v, z


def _jacobian(f, v, z, n, focal, backend):
    """The (6, N) Jacobian of the residuals over (rotation increment,
    translation), from _project's offsets f, rotated points v and depths z.

    With g = n^T * d(projection)/d(camera point), the column of a point is
    (g x v, -g): the rotation block comes from a left-multiplied increment
    exp(eps)*R, which keeps the linearization well-behaved at any rotation
    magnitude.  g = (n_x fx, n_y fy, -(n . f)) / z, with fx and fy the
    focal lengths and f the offset K c_xy / z that the projection forms
    too; g wraps around like v.
    """
    nk, nf = n * focal, n * f
    g = backend.stack([nk[0], nk[1], -(nf[0] + nf[1]), nk[0], nk[1]]) / z
    minus_g = -g  # scans the quotient's words once, before the slices below
    cross = g[1:4] * v[2:5] - g[2:5] * v[1:4]
    return backend.stack([cross, minus_g[:3]]).reshape(6, -1)


def _residuals(operands, R, t, backend):
    """Residuals (N,) at the pose (R, t) on words, for the operands
    (X, n, q, Kb): the measurements solve_lm takes and the intrinsics on
    the backend.  Also returns _project's outputs, from which _jacobian
    forms their Jacobian when LM continues from this pose."""
    X, n, q, Kb = operands
    projected = _project(X, R, t, Kb.focal, backend)
    return residual(projected[0] + Kb.center, q, n), projected


_UPPER = np.triu_indices(6)


def _normal_equations(rs, J, backend):
    """JᵀJ and Jᵀr as nested lists of words (``backend.words``).

    Each entry is its own sum over the points, left to right from zero, as
    an accumulation loop over the points would form it.
    """
    upper = backend.row_sums(J[_UPPER[0]] * J[_UPPER[1]])
    A = [[None] * 6 for _ in range(6)]
    for i, j, value in zip(*(ix.tolist() for ix in _UPPER), upper):
        A[i][j] = A[j][i] = value
    return A, backend.row_sums(J * rs)


def _sum_squares(rs, backend):
    return backend.row_sums((rs * rs)[None])[0]


def _solve_linear6(A, g, lam, backend):
    """The LM step delta solving (A + lam*diag(A)) delta = -g, by Gaussian
    elimination with partial pivoting; None when singular.

    Runs on the backend's words (``backend.words``): floats, or raw
    fixed-point words rounded and range-checked as FixedPoint's operators
    do, so every step gives the word the same step on scalars gives.  A, g
    and lam are words, and so is the step.
    """
    w = backend.words
    sub, mul, div, to_float = w.sub, w.mul, w.div, w.to_float
    aug = [list(A[i]) + [w.neg(g[i])] for i in range(6)]
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
    return x


def _mat_mul3(A, B, backend):
    """A B for 3x3 nested lists of words (``backend.words``), each entry
    summed from 0 left to right as sum() does."""
    w = backend.words
    add, mul = w.add, w.mul
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = 0
            for k in range(3):
                acc = add(acc, mul(A[i][k], B[k][j]))
            out[i][j] = acc
    return out


def _pose_from_words(R, t, backend) -> PoseSE3:
    to_float = backend.words.to_float
    Rf = np.array([[to_float(v) for v in row] for row in R])
    return PoseSE3(log_rotation_np(Rf), np.array([to_float(v) for v in t]))


# ---------------------------------------------------------------------------
# Levenberg-Marquardt.

def _trial(operands, R, t, delta, backend):
    """The pose (R, t) moved by the step delta, with its residuals,
    _project's outputs and cost; None when a point falls behind the
    camera.  The pose, the step and the cost are words."""
    w = backend.words
    R = _mat_mul3(exp_map(delta[:3], backend), R, backend)
    t = [w.add(t[i], delta[3 + i]) for i in range(3)]
    try:
        rs, projected = _residuals(operands, R, t, backend)
    except BehindCameraError:
        return None
    return R, t, rs, projected, _sum_squares(rs, backend)


def solve_lm(measurements, R: list, t: list, K: CameraIntrinsics, settings: LMSettings, backend):
    """Minimize the squared edge-normal residuals over the 6 pose parameters.

    ``measurements`` are (X, n, match): the world points, a (3, N) backend
    array, and the unit normals and the matched image points, (2, N)
    arrays, one column per matched control point.  LM starts from the pose
    (R, t) on the backend's words (``geometry.pose_words``).  Returns
    (refined pose, sum of absolute residuals, accepted steps, trial steps,
    stop reason); the trial count includes rejected steps, the honest
    measure of how hard the minimization worked, and the stop reason is
    one of ``LM_STOPS``.  A run of rejections that ends on a singular
    normal system raises DegenerateGeometryError, and a normal that is not
    unit length raises ValueError.
    """
    be = backend
    w = be.words
    add, sub, mul = w.add, w.sub, w.mul
    X, n, q = measurements
    _check_unit_normals(n, be)

    const = w.constant
    tol_rel, tol_step = map(const, _TOLERANCES[be.is_fixed])
    scale, lam_max = const(_LAMBDA_SCALE), const(_LAMBDA_MAX)
    zero = const(0.0)
    Kb = K.to_backend(be)
    operands = (X, n, q, Kb)

    rs, projected = _residuals(operands, R, t, be)
    cost = _sum_squares(rs, be)
    lam = const(settings.lambda0)
    iterations = attempts = rejections = 0
    while iterations < settings.max_iterations and cost > zero:
        if rejections == 0:  # only a pose LM continues from needs its Jacobian
            A, g = _normal_equations(rs, _jacobian(*projected, n, Kb.focal, be), be)
        attempts += 1
        delta = _solve_linear6(A, g, lam, be)
        moved = None if delta is None else _trial(operands, R, t, delta, be)
        if moved is None or not moved[4] < cost:
            if moved is not None and sub(moved[4], cost) < mul(tol_rel, cost):
                stop = "flat"  # the cost surface is flat at the tolerance here
                break
            rejections += 1
            if rejections > _MAX_REJECTIONS:
                if delta is None:
                    raise DegenerateGeometryError(
                        "normal system singular after full damping escalation"
                    )
                stop = "rejections"
                break
            lam = min(mul(lam, scale), lam_max)
            continue
        lam = w.div(lam, scale) or lam  # a zero word could never rise again (0 × 10 = 0)
        rejections = 0
        iterations += 1
        step_sq = zero
        for d in delta:
            step_sq = add(step_sq, mul(d, d))
        rel_small = sub(cost, moved[4]) < mul(tol_rel, cost)
        R, t, rs, projected, cost = moved
        if rel_small:
            stop = "rel_decrease"
            break
        if w.sqrt(step_sq) < tol_step:
            stop = "small_step"
            break
    else:  # the loop's own condition ended it
        stop = "max_iterations" if cost > zero else "zero_cost"

    err = FloatBackend.row_sums(abs(be.to_float(rs))[None])[0]
    return _pose_from_words(R, t, be), err, iterations, attempts, stop


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
    lm_stop: str  # why LM stopped, one of LM_STOPS
    t_visible: float  # the ID render at the pixels the visibility test reads, seconds
    t_me: float  # the rest of measurement collection, incl. the 1D search
    t_pose: float  # LM refinement


def track_frame(prev_pose: PoseSE3, gray: GrayImage, model: WireframeModel,
                K: CameraIntrinsics, cfg) -> tuple[PoseSE3, FrameStats]:
    """Refine the previous pose against one gray frame.

    Converts the prediction to words once (``pose_words``), collects
    matched control points at it, rendering the ID buffer there at the
    pixels the visibility test reads, and runs the LM solver from it.
    Insufficient measurements, degenerate geometry or a frame of the wrong
    size (FrameSizeError) propagate to the caller, which owns the
    coast-or-abort policy.
    """
    from .tracking import collect_measurements

    if (gray.width, gray.height) != (K.width, K.height):
        raise FrameSizeError(
            f"frame is {gray.width}x{gray.height}, the camera {K.width}x{K.height}"
        )
    be = get_backend(cfg.backend)
    t_render = 0.0

    def render_ids(pixels):
        nonlocal t_render
        t = time.perf_counter()
        id_buf = render_id_buffer(model, prev_pose, K, pixels)
        t_render += time.perf_counter() - t
        return id_buf

    t1 = time.perf_counter()
    R, t = pose_words(prev_pose, be)
    ms = collect_measurements(model, R, t, K, gray, render_ids, cfg, be)
    t2 = time.perf_counter()
    pose, err, iterations, attempts, lm_stop = solve_lm(
        (ms.X, ms.n, ms.match), R, t, K, cfg.lm, be)
    t3 = time.perf_counter()
    stats = FrameStats(
        projected=ms.n_projected,
        sampled=ms.n_sampled,
        matched=ms.n_matched,
        err=err,
        iterations=iterations,
        attempts=attempts,
        lm_stop=lm_stop,
        t_visible=t_render,
        t_me=t2 - t1 - t_render,
        t_pose=t3 - t2,
    )
    return pose, stats
