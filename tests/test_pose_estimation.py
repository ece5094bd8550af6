"""Residuals, analytic Jacobians, and the LM pose solver."""

import json

import numpy as np
import pytest

from edgetrack import pose_estimation
from edgetrack.geometry import (
    BehindCameraError,
    CameraIntrinsics,
    PoseSE3,
    exp_map_np,
    log_rotation_np,
    look_at_pose,
    pose_words,
)
from edgetrack.pose_estimation import (
    DegenerateGeometryError,
    TrackerConfig,
    _sum_squares,
    residual,
    solve_lm,
)
from edgetrack.realmath import get_backend
from edgetrack.tracking import ControlPoint

from conftest import (
    columns,
    mat_vec,
    perturbed_pose,
    pose_errors,
    ref_exp_map,
    ref_intrinsics,
    ref_scalars,
    residual_jacobian,
    synthetic_measurements,
    to_words,
)

FLOAT = get_backend("float")
Q40 = get_backend("q40_23")
Q47 = get_backend("q47_16")


# ---------------------------------------------------------------------------
# Residual.

def point_residual(p, q, n):
    """residual for one point given as three pairs of floats."""
    return residual(*(np.array(v, dtype=np.float64) for v in (p, q, n)))


def test_residual_hand_values():
    assert point_residual((0.0, 0.0), (3.0, 4.0), (0.0, 1.0)) == pytest.approx(4.0)
    assert point_residual((0.0, 0.0), (3.0, 4.0), (1.0, 0.0)) == pytest.approx(3.0)
    assert point_residual((0.0, 0.0), (3.0, 4.0), (0.6, 0.8)) == pytest.approx(5.0)
    assert point_residual((10.0, 7.0), (10.0, 7.0), (0.0, 1.0)) == 0.0
    # sign flips with the normal
    assert point_residual((0.0, 0.0), (3.0, 4.0), (0.0, -1.0)) == pytest.approx(-4.0)
    # Many points at once, as (2, N) columns.
    p, q = np.zeros((2, 3)), np.array([[3.0, 3.0, 3.0], [4.0, 4.0, 4.0]])
    n = np.array([[0.0, 1.0, 0.6], [1.0, 0.0, 0.8]])
    assert residual(p, q, n) == pytest.approx([4.0, 3.0, 5.0])


def one_point_lm(n, be):
    """solve_lm without iterations on one point seen at (cx, cy) and
    matched at (cx + 1, cy + 1) with the normal n: returns the residual
    sum |r| at the start pose.  solve_lm checks the normals once on entry."""
    K = CameraIntrinsics(fx=500.0, fy=500.0, cx=160.0, cy=120.0, width=320, height=240)
    cols = tuple(be.array([[v] for v in values])
                 for values in ((0.0, 0.0, 0.0), n, (K.cx + 1.0, K.cy + 1.0)))
    pose = PoseSE3(np.zeros(3), np.array([0.0, 0.0, 150.0]))
    _, err, iters, attempts, stop = solve_lm(cols, *pose_words(pose, be),
                                             K, TrackerConfig(lm_max_iter=0), be)
    assert iters == attempts == 0 and stop == "max_iterations"
    return err


def test_residual_requires_unit_normal():
    for n in ((1.0, 1.0), (0.0, 0.9)):
        with pytest.raises(ValueError, match="unit length"):
            one_point_lm(n, FLOAT)


def test_residual_accepts_fixed_point_unit_normals():
    # A unit normal at 0.3 rad, stored at Q47.16, squares to 1 - 1.5e-5: off
    # by more than the float tolerance, so the check must allow for the format.
    n = (np.cos(0.3), np.sin(0.3))
    nx, ny = (ref_scalars(Q47).from_float(v) for v in n)
    assert abs((nx * nx + ny * ny).to_float() - 1.0) > 1e-5
    for be in (Q40, Q47):
        c = 1.0 / np.sqrt(2.0)
        assert one_point_lm((c, c), be) == pytest.approx(np.sqrt(2.0), abs=1e-3)
        assert one_point_lm(n, be) == pytest.approx(n[0] + n[1], abs=1e-3)


# ---------------------------------------------------------------------------
# Jacobian.

def small_camera():
    return CameraIntrinsics(fx=500.0, fy=400.0, cx=160.0, cy=120.0, width=320, height=240)


def ident3():
    return ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def test_jacobian_hand_example_on_axis():
    # X at the origin seen down the axis: only d(residual)/d(ty) survives
    K = small_camera()
    z = 150.0
    row = residual_jacobian((0.0, 0.0, 0.0), ident3(), (0.0, 0.0, z), K, (0.0, 1.0), FLOAT)
    assert row == pytest.approx((0.0, 0.0, 0.0, 0.0, -K.fy / z, 0.0))
    row = residual_jacobian((0.0, 0.0, 0.0), ident3(), (0.0, 0.0, z), K, (1.0, 0.0), FLOAT)
    assert row == pytest.approx((0.0, 0.0, 0.0, -K.fx / z, 0.0, 0.0))


def test_jacobian_behind_camera_raises():
    with pytest.raises(BehindCameraError):
        residual_jacobian((0.0, 0.0, 0.0), ident3(), (0.0, 0.0, -5.0), small_camera(), (0.0, 1.0),
                          FLOAT)


def numeric_row(X, R, t, K, n, q, h=1e-6):
    """Central-difference derivative of the residual over the 6 parameters."""

    def res_at(Rc, tc):
        c = Rc @ X + tc
        p = (K.fx * c[0] / c[2] + K.cx, K.fy * c[1] / c[2] + K.cy)
        return point_residual(p, q, n)

    out = []
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        rp = res_at(exp_map_np(e) @ R, t)
        rm = res_at(exp_map_np(-e) @ R, t)
        out.append((rp - rm) / (2 * h))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        out.append((res_at(R, t + e) - res_at(R, t - e)) / (2 * h))
    return np.array(out)


def random_configs(rng, count):
    K = small_camera()
    made = 0
    while made < count:
        omega = rng.uniform(-np.pi, np.pi, 3)
        R = exp_map_np(omega)
        t = np.array([rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(100, 400)])
        X = rng.uniform(-40.0, 40.0, 3)
        c = R @ X + t
        if c[2] < 20.0:
            continue
        ang = rng.uniform(0, 2 * np.pi)
        n = (float(np.cos(ang)), float(np.sin(ang)))
        q = (float(rng.uniform(0, 320)), float(rng.uniform(0, 240)))
        made += 1
        yield K, R, t, X, n, q


def test_jacobian_matches_finite_differences_float():
    rng = np.random.default_rng(101)
    worst = 0.0
    for K, R, t, X, n, q in random_configs(rng, 1000):
        Rb = tuple(tuple(float(v) for v in row) for row in R)
        row = np.array(residual_jacobian(tuple(X), Rb, tuple(t), K, n, FLOAT))
        fd = numeric_row(X, R, t, K, n, q)
        rel = np.max(np.abs(row - fd)) / max(1.0, np.max(np.abs(fd)))
        worst = max(worst, rel)
    assert worst < 1e-4


def test_jacobian_fixed_point_tracks_float():
    rng = np.random.default_rng(55)
    for K, R, t, X, n, q in random_configs(rng, 40):
        Rb = tuple(tuple(float(v) for v in row) for row in R)
        row_f = np.array(residual_jacobian(tuple(X), Rb, tuple(t), K, n, FLOAT))
        row_q = Q40.to_float(Q40.stack(residual_jacobian(tuple(X), Rb, tuple(t), K, n, Q40)))
        scale = max(1.0, float(np.max(np.abs(row_f))))
        assert np.max(np.abs(row_q - row_f)) / scale < 1e-2


# ---------------------------------------------------------------------------
# Solver.

def cube_pose():
    return look_at_pose(np.array([60.0, -45.0, -120.0]), np.zeros(3), np.array([0.0, 1.0, 0.0]))


def test_solver_zero_residual_returns_immediately(qvga_camera):
    # identity rotation keeps the solver's projection bit-identical to the
    # reference formula, so the cost is exactly zero and no step is tried
    K = qvga_camera
    pose = PoseSE3(np.zeros(3), np.array([0.0, 0.0, 150.0]))
    ms = []
    rng = np.random.default_rng(3)
    for i in range(12):
        X = tuple(float(v) for v in rng.uniform(-30.0, 30.0, 3))
        z = X[2] + 150.0
        q = (K.fx * X[0] / z + K.cx, K.fy * X[1] / z + K.cy)
        n = (1.0, 0.0) if i % 2 else (0.0, 1.0)
        ms.append(ControlPoint(edge_index=0, p=q, n=n, X=X, match=q))
    out, err, iters, _, stop = solve_lm(columns(ms, FLOAT), *pose_words(pose, FLOAT),
                                        qvga_camera, TrackerConfig(), FLOAT)
    assert err == 0.0 and iters == 0 and stop == "zero_cost"
    ang, dist = pose_errors(out, pose)
    assert ang < 1e-12 and dist < 1e-12


def test_solver_already_converged_pose_stays_put(cube_model, qvga_camera):
    # a generic rotation reconstructs through backend trig, so the cost is
    # ~1e-24 rather than exactly zero; the pose still must not move
    pose = cube_pose()
    ms = synthetic_measurements(cube_model, pose, qvga_camera)
    assert len(ms) >= 20
    out, err, iters, _, _ = solve_lm(columns(ms, FLOAT), *pose_words(pose, FLOAT),
                                     qvga_camera, TrackerConfig(), FLOAT)
    assert err < 1e-9
    ang, dist = pose_errors(out, pose)
    assert ang < 1e-9 and dist < 1e-9


def test_solver_recovers_perturbed_poses(cube_model, qvga_camera):
    pose = cube_pose()
    ms = synthetic_measurements(cube_model, pose, qvga_camera)
    rng = np.random.default_rng(909)
    for _ in range(25):
        start = perturbed_pose(pose, np.radians(2.0), 3.0, rng)
        out, err, iters, _, _ = solve_lm(columns(ms, FLOAT), *pose_words(start, FLOAT),
                                         qvga_camera, TrackerConfig(), FLOAT)
        ang, dist = pose_errors(out, pose)
        assert ang < 1e-3 and dist < 1e-2
        assert iters >= 1


def test_solver_cost_decreases_with_iteration_budget(cube_model, qvga_camera, monkeypatch):
    # tolerances this tight never stop LM early, so each budget is spent
    monkeypatch.setitem(pose_estimation._TOLERANCES, False, (1e-30, 1e-30))
    pose = cube_pose()
    ms = synthetic_measurements(cube_model, pose, qvga_camera)
    rng = np.random.default_rng(4)
    start = perturbed_pose(pose, np.radians(2.0), 3.0, rng)

    def cost_at(p):
        R = exp_map_np(p.omega)
        total = 0.0
        for m in ms:
            c = R @ np.array(m.X) + p.t
            proj = (
                qvga_camera.fx * c[0] / c[2] + qvga_camera.cx,
                qvga_camera.fy * c[1] / c[2] + qvga_camera.cy,
            )
            total += point_residual(proj, m.match, m.n) ** 2
        return total

    costs = []
    for budget in range(0, 9):
        out, _, iters, _, _ = solve_lm(
            columns(ms, FLOAT), *pose_words(start, FLOAT), qvga_camera,
            TrackerConfig(lm_max_iter=budget), FLOAT
        )
        assert iters <= budget
        costs.append(cost_at(out))
    assert costs[0] == pytest.approx(cost_at(start))
    for a, b in zip(costs, costs[1:]):
        assert b <= a + 1e-12
    assert costs[-1] < 1e-6 * costs[0]


def test_solver_single_straight_edge_is_degenerate(qvga_camera):
    # all points on one image-space line with identical normals: four of the
    # six normal-equation columns are exactly zero, damping cannot fix that
    K = qvga_camera
    z = 150.0
    ms = []
    for y in (-25.0, -15.0, -5.0, 5.0, 15.0, 25.0):
        X = (0.0, y, 0.0)
        p = (K.cx, K.fy * y / z + K.cy)
        ms.append(
            ControlPoint(
                edge_index=0, p=p, n=(1.0, 0.0), X=X, match=(p[0] + 0.5, p[1])
            )
        )
    start = PoseSE3(np.zeros(3), np.array([0.0, 0.0, z]))
    with pytest.raises(DegenerateGeometryError):
        solve_lm(columns(ms, FLOAT), *pose_words(start, FLOAT), K, TrackerConfig(), FLOAT)


def test_solver_result_insensitive_to_model_frame_choice(cube_model, qvga_camera):
    # re-expressing the model in a rotated+shifted frame and compensating the
    # pose must leave every projection, hence the solution, unchanged
    pose = cube_pose()
    ms = synthetic_measurements(cube_model, pose, qvga_camera)
    rng = np.random.default_rng(66)
    start = perturbed_pose(pose, np.radians(1.5), 2.0, rng)

    Rg = exp_map_np(np.array([0.3, -0.5, 0.2]))
    tg = np.array([7.0, -11.0, 4.0])

    def reframe(p):
        R = exp_map_np(p.omega)
        Rp = R @ Rg.T
        return PoseSE3(log_rotation_np(Rp), p.t - Rp @ tg)

    ms2 = []
    for m in ms:
        Xg = Rg @ np.array(m.X) + tg
        ms2.append(
            ControlPoint(
                edge_index=m.edge_index, p=m.p, n=m.n,
                X=(float(Xg[0]), float(Xg[1]), float(Xg[2])), match=m.match,
            )
        )

    out1, err1, it1, _, _ = solve_lm(columns(ms, FLOAT), *pose_words(start, FLOAT),
                                     qvga_camera, TrackerConfig(), FLOAT)
    out2, err2, it2, _, _ = solve_lm(columns(ms2, FLOAT), *pose_words(reframe(start), FLOAT),
                                     qvga_camera, TrackerConfig(), FLOAT)
    assert err2 == pytest.approx(err1, abs=1e-9)
    assert it1 == it2
    # out2 should be the reframed out1
    want = reframe(out1)
    ang, dist = pose_errors(out2, want)
    assert ang < 1e-9 and dist < 1e-7


def test_solver_fixed_backends_land_near_float(cube_model, qvga_camera):
    pose = cube_pose()
    ms = synthetic_measurements(cube_model, pose, qvga_camera)
    rng = np.random.default_rng(13)
    start = perturbed_pose(pose, np.radians(1.0), 2.0, rng)
    out_f, _, _, _, _ = solve_lm(columns(ms, FLOAT), *pose_words(start, FLOAT),
                                 qvga_camera, TrackerConfig(), FLOAT)
    for be, tol_mm in ((Q40, 0.1), (Q47, 0.5)):
        out_b, _, _, _, _ = solve_lm(columns(ms, be), *pose_words(start, be),
                                     qvga_camera, TrackerConfig(), be)
        ang, dist = pose_errors(out_b, out_f)
        assert dist < tol_mm
        assert ang < 2e-3


def test_lm_settings_validation():
    for lambda0 in (0.0, -1e-3, float("nan"), float("inf"), 1e5):
        with pytest.raises(ValueError, match="lm_lambda0"):
            TrackerConfig(lm_lambda0=lambda0)
    with pytest.raises(ValueError, match="lm_max_iter"):
        TrackerConfig(lm_max_iter=-1)
    assert TrackerConfig(lm_lambda0=1e4, lm_max_iter=0).lm_lambda0 == 1e4


# ---------------------------------------------------------------------------
# Stop rules.

def flat_frame(name):
    """The LM system of one frame of the seed-5 standard cube on the backend
    ``name`` (raw words of X, n and match; the start pose as floats) and
    the backend.  Without the flat-cost stop LM accepted two steps on it
    and then rejected trials whose cost rose by less than the tolerance
    (``parent_trials``, A accepted and R rejected): on Q40.23 (frame 6) two
    rejections and then a step that moved the camera centre by 1.1 µm, on
    Q47.16 (frame 7) eleven rejections of one step at one cost."""
    from pathlib import Path

    from edgetrack.realmath import FixedArray

    data = json.loads((Path(__file__).parent / "data" / "lm_flat_frames.json").read_text())[name]
    be = get_backend(name)
    cols = tuple(FixedArray(np.array(data[k], dtype=np.int64), be.format)
                 for k in ("X", "n", "match"))
    return cols, PoseSE3(np.array(data["omega"]), np.array(data["t"])), be


@pytest.mark.parametrize("name", ["q40_23", "q47_16"])
def test_lm_stops_at_first_flat_rejection(name, qvga_camera, monkeypatch):
    # The third trial is rejected with a cost within the tolerance of the
    # current one: LM ends there, at the pose of its two accepted steps.
    # Only the poses LM continues from get a Jacobian: the start and the
    # first accepted step with a step budget of 2, and the second one too
    # without it; no rejected trial and no final accepted step.
    jacobians = []
    jacobian = pose_estimation._jacobian
    monkeypatch.setattr(pose_estimation, "_jacobian", lambda *a: jacobians.append(1) or jacobian(*a))
    cols, pose0, be = flat_frame(name)
    K = qvga_camera
    out, err, iters, attempts, stop = solve_lm(cols, *pose_words(pose0, be), K, TrackerConfig(), be)
    assert (stop, iters, attempts, len(jacobians)) == ("flat", 2, 3, 3)
    jacobians.clear()
    two, err2, iters2, attempts2, stop2 = solve_lm(cols, *pose_words(pose0, be),
                                                   K, TrackerConfig(lm_max_iter=2), be)
    assert (stop2, iters2, attempts2, len(jacobians)) == ("max_iterations", 2, 2, 2)
    assert out.omega.tolist() == two.omega.tolist() and out.t.tolist() == two.t.tolist()
    assert err == err2


@pytest.mark.parametrize("fault", ["cost_rise", "behind_camera"])
@pytest.mark.parametrize("name", ["q40_23", "q47_16"])
def test_lm_rejections_that_are_not_flat_raise_lambda(name, fault, qvga_camera, monkeypatch):
    # Every trial either costs far more than the current pose or puts a
    # point behind the camera: each rejection multiplies lambda by 10, up to
    # the cap, until the 11th in a row stops LM at the start pose.
    cols, pose0, be = flat_frame(name)
    w = be.words
    huge = w.from_float(1e6)
    lams = []
    solve_linear6, trial = pose_estimation._solve_linear6, pose_estimation._trial

    def record_lambda(A, g, lam, backend):
        lams.append(lam)
        return solve_linear6(A, g, lam, backend)

    def faulty_trial(*args):
        moved = trial(*args)
        return None if fault == "behind_camera" else moved[:4] + (huge,)

    monkeypatch.setattr(pose_estimation, "_solve_linear6", record_lambda)
    monkeypatch.setattr(pose_estimation, "_trial", faulty_trial)
    K = qvga_camera
    out, _, iters, attempts, stop = solve_lm(cols, *pose_words(pose0, be), K, TrackerConfig(), be)
    assert (stop, iters, attempts) == ("rejections", 0, pose_estimation._MAX_REJECTIONS + 1)
    expected = [w.from_float(1e-3)]
    cap, scale = (w.from_float(v) for v in (pose_estimation._LAMBDA_MAX, 10.0))
    while len(expected) < len(lams):
        expected.append(min(w.mul(expected[-1], scale), cap))
    assert lams == expected and lams[-1] == cap
    start, *_ = solve_lm(cols, *pose_words(pose0, be), K, TrackerConfig(lm_max_iter=0), be)
    assert out.omega.tolist() == start.omega.tolist() and out.t.tolist() == start.t.tolist()


# ---------------------------------------------------------------------------
# Per-frame pipeline.

def test_track_frame_is_stationary_on_its_own_render(cube_model, qvga_camera):
    from edgetrack.harness import render_frame_gray
    from edgetrack.pose_estimation import track_frame

    pose = cube_pose()
    gray = render_frame_gray(cube_model, pose, qvga_camera, sigma=0.0)
    out, stats = track_frame(pose, gray, cube_model, qvga_camera, TrackerConfig())
    ang, dist = pose_errors(out, pose)
    # matches quantize to pixel offsets, so the fixed point is only
    # sub-half-pixel sharp; these bounds are empirical with margin
    assert dist < 1.0
    assert ang < 0.02
    assert stats.matched >= 30
    assert stats.attempts >= stats.iterations


def test_track_frame_rejects_wrong_image_size(cube_model, qvga_camera):
    from edgetrack.imaging import GrayImage
    from edgetrack.pose_estimation import FrameSizeError, track_frame

    gray = GrayImage(pixels=np.zeros((120, 160), dtype=np.uint8))
    with pytest.raises(FrameSizeError, match="160x120"):
        track_frame(cube_pose(), gray, cube_model, qvga_camera, TrackerConfig())
    assert issubclass(FrameSizeError, ValueError)


def test_track_frame_blank_image_raises_insufficient(cube_model, qvga_camera):
    from edgetrack.imaging import GrayImage
    from edgetrack.pose_estimation import track_frame
    from edgetrack.tracking import InsufficientMeasurementsError

    gray = GrayImage(pixels=np.full((240, 320), 200, dtype=np.uint8))
    with pytest.raises(InsufficientMeasurementsError):
        track_frame(cube_pose(), gray, cube_model, qvga_camera, TrackerConfig())


# ---------------------------------------------------------------------------
# The array system build against the per-point scalar loop it replaced.

def ref_measurements(ms, be):
    """ControlPoints holding floats as ControlPoints holding reference
    scalars (ref_scalars)."""
    from_float = ref_scalars(be).from_float
    return [ControlPoint(edge_index=m.edge_index, p=tuple(map(from_float, m.p)),
                         n=tuple(map(from_float, m.n)), X=tuple(map(from_float, m.X)),
                         match=tuple(map(from_float, m.match)))
            for m in ms]


def ref_point_system(X, R, t, Kb, n, q, be):
    """Residual and Jacobian row of one point, on reference scalars: the
    per-point formulas the array build runs over stacked columns."""
    v = mat_vec(R, X)
    c = (v[0] + t[0], v[1] + t[1], v[2] + t[2])
    z = c[2]
    if not z > 0:
        raise BehindCameraError(f"point depth {ref_scalars(be).to_float(z)} mm is not positive")
    p = (Kb.fx * c[0] / z + Kb.cx, Kb.fy * c[1] / z + Kb.cy)
    gx = n[0] * Kb.fx / z
    gy = n[1] * Kb.fy / z
    gz = -(n[0] * (Kb.fx * c[0] / z) + n[1] * (Kb.fy * c[1] / z)) / z
    row = (gy * v[2] - gz * v[1], gz * v[0] - gx * v[2], gx * v[1] - gy * v[0], -gx, -gy, -gz)
    return (q[0] - p[0]) * n[0] + (q[1] - p[1]) * n[1], row


def ref_normal_system(measurements, R, t, K, be):
    """(cost, JᵀJ, Jᵀr) accumulated point by point, left to right, on
    reference scalars: the measurements (ControlPoints holding floats)
    and K converted to them, with R and t given as them."""
    zero, Kb = ref_scalars(be).zero, ref_intrinsics(K, be)
    rs, rows = [], []
    for m in ref_measurements(measurements, be):
        r, row = ref_point_system(m.X, R, t, Kb, m.n, m.match, be)
        rs.append(r)
        rows.append(row)
    cost = zero
    for r in rs:
        cost = cost + r * r
    A = [[zero] * 6 for _ in range(6)]
    g = [zero] * 6
    for r, row in zip(rs, rows):
        for i in range(6):
            g[i] = g[i] + row[i] * r
            for j in range(i, 6):
                A[i][j] = A[i][j] + row[i] * row[j]
    for i in range(6):
        for j in range(i):
            A[i][j] = A[j][i]
    return cost, A, g


def array_normal_system(measurements, R, t, K, be):
    """(cost, JᵀJ, Jᵀr) from the array build LM runs, as reference scalars,
    for the same inputs as ref_normal_system."""
    from edgetrack.pose_estimation import _jacobian, _normal_equations, _residuals

    scalar = ref_scalars(be).scalar
    X, n, q = columns(measurements, be)
    Kb = K.to_backend(be)
    rs, projected = _residuals((X, n, q, Kb), to_words(R, be), to_words(t, be), be)
    A, g = _normal_equations(rs, _jacobian(*projected, n, Kb.focal, be), be)
    return (scalar(_sum_squares(rs, be)), [[scalar(v) for v in row] for row in A],
            [scalar(v) for v in g])


def scalar_bits(v):
    return ("raw", v.raw) if hasattr(v, "raw") else ("float", float(v))


def system_bits(system):
    cost, A, g = system
    return scalar_bits(cost), [[scalar_bits(v) for v in row] for row in A], [scalar_bits(v) for v in g]


@pytest.mark.parametrize("be", [FLOAT, Q40, Q47], ids=["float", "q40_23", "q47_16"])
def test_normal_system_matches_scalar_reference(be, cube_model, qvga_camera):
    pose = cube_pose()
    ms = synthetic_measurements(cube_model, pose, qvga_camera)
    rng = np.random.default_rng(505)
    ref = ref_scalars(be)
    for _ in range(4):
        start = perturbed_pose(pose, np.radians(2.0), 3.0, rng)
        noisy = [ControlPoint(edge_index=m.edge_index, p=m.p, n=m.n, X=m.X,
                              match=tuple(float(v) for v in np.add(m.match, rng.normal(0, 1, 2))))
                 for m in ms]
        R = ref_exp_map(tuple(ref.from_float(w) for w in start.omega), be)
        t = [ref.from_float(v) for v in start.t]
        want = system_bits(ref_normal_system(noisy, R, t, qvga_camera, be))
        assert system_bits(array_normal_system(noisy, R, t, qvga_camera, be)) == want


def identity_pose(be):
    """The identity rotation and a zero translation in reference scalars."""
    one, zero = ref_scalars(be).one, ref_scalars(be).zero
    return [[one, zero, zero], [zero, one, zero], [zero, zero, one]], [zero, zero, zero]


def test_normal_system_overflow_raises_like_scalar(qvga_camera):
    # A point 2 um in front of the camera drives its Jacobian row, and the
    # JᵀJ products, past the Q40.23 range: both forms raise, never wrap.
    from edgetrack.realmath import MathOverflowError

    K = qvga_camera
    pts = [ControlPoint(edge_index=0, p=(0.0, 0.0), n=(0.6, 0.8), X=(x, 1.0, z), match=(100.0, 90.0))
           for x, z in ((10.0, 150.0), (-20.0, 140.0), (30.0, 0.002))]
    R, t = identity_pose(Q40)
    with pytest.raises(MathOverflowError):
        ref_normal_system(pts, R, t, K, Q40)
    with pytest.raises(MathOverflowError):
        array_normal_system(pts, R, t, K, Q40)


@pytest.mark.parametrize("be", [FLOAT, Q40, Q47], ids=["float", "q40_23", "q47_16"])
def test_point_behind_camera_rejects_trial(be, qvga_camera):
    # One point of three lies behind the camera: both forms raise, and the
    # LM trial reports the step as failed instead.
    from edgetrack.pose_estimation import _trial

    K = qvga_camera
    pts = [ControlPoint(edge_index=0, p=(0.0, 0.0), n=(0.6, 0.8), X=(x, 1.0, z), match=(100.0, 90.0))
           for x, z in ((10.0, 150.0), (-20.0, -3.0), (30.0, 140.0))]
    R, t = identity_pose(be)
    with pytest.raises(BehindCameraError):
        ref_normal_system(pts, R, t, K, be)
    with pytest.raises(BehindCameraError):
        array_normal_system(pts, R, t, K, be)
    operands = (*columns(pts, be), K.to_backend(be))
    zero = be.words.from_float(0)
    assert _trial(operands, to_words(R, be), to_words(t, be), [zero] * 6, be) is None
    # The same step with the point moved in front is a trial with a cost.
    pts[1].X = pts[2].X
    operands = (*columns(pts, be), K.to_backend(be))
    assert _trial(operands, to_words(R, be), to_words(t, be), [zero] * 6, be) is not None


# ---------------------------------------------------------------------------
# The 6x6 solve on words against the same elimination on backend scalars.

_PIVOT_RTOL = 1e-12


def to_float(x):
    return x.to_float() if hasattr(x, "raw") else x


def scalar_elimination(A, b, be):
    """Gaussian elimination with partial pivoting on reference scalars
    (FixedPoint or float); None when singular.  The reference for
    _solve_linear6."""
    aug = [list(A[i]) + [b[i]] for i in range(6)]
    ref = max(abs(to_float(A[i][j])) for i in range(6) for j in range(6))
    if ref == 0.0:
        return None
    for col in range(6):
        piv = max(range(col, 6), key=lambda r: abs(to_float(aug[r][col])))
        if abs(to_float(aug[piv][col])) <= _PIVOT_RTOL * ref:
            return None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, 6):
            factor = aug[r][col] / pivot
            for cc in range(col, 7):
                aug[r][cc] = aug[r][cc] - factor * aug[col][cc]
    x = [ref_scalars(be).zero] * 6
    for row in range(5, -1, -1):
        acc = aug[row][6]
        for cc in range(row + 1, 6):
            acc = acc - aug[row][cc] * x[cc]
        x[row] = acc / aug[row][row]
    return x


def solve_outcome(solve, A, g, lam, be):
    """The solution's scalar bits, None, or the class of what was raised."""
    from edgetrack.realmath import MathOverflowError

    try:
        x = solve(A, g, lam, be)
    except MathOverflowError as exc:
        return type(exc)
    return None if x is None else [scalar_bits(v) for v in x]


def normal_system(J, r, be):
    """JᵀJ and Jᵀr in reference scalars."""
    from_float = ref_scalars(be).from_float
    return ([[from_float(v) for v in row] for row in (J.T @ J).tolist()],
            [from_float(v) for v in (J.T @ r).tolist()])


def damped_system(A, g, lam, be):
    """A with its diagonal scaled by 1 + lam, and -g, in reference scalars:
    the system _solve_linear6 damps and negates on words."""
    A = [list(row) for row in A]
    for i in range(6):
        A[i][i] = A[i][i] + lam * A[i][i]
    return A, [-v for v in g]


def reference_solve(A, g, lam, be):
    return scalar_elimination(*damped_system(A, g, lam, be), be)


def words_solve(A, g, lam, be):
    """_solve_linear6 on the words of reference scalars, its step as them."""
    from edgetrack.pose_estimation import _solve_linear6

    x = _solve_linear6(to_words(A, be), to_words(g, be), to_words(lam, be), be)
    return None if x is None else [ref_scalars(be).scalar(v) for v in x]


@pytest.mark.parametrize("be", [FLOAT, Q40, Q47], ids=["float", "q40_23", "q47_16"])
def test_solve_linear6_matches_scalar_elimination(be):
    from edgetrack.realmath import MathOverflowError

    ref = ref_scalars(be)
    rng = np.random.default_rng(512)
    solved = 0
    for _ in range(150):
        n = int(rng.integers(6, 40))
        J = rng.normal(0.0, 1.0, (n, 6)) * 10.0 ** rng.uniform(-2.0, 2.5, 6)
        A, g = normal_system(J, rng.normal(0.0, 2.0, n), be)
        lam = ref.from_float(10.0 ** rng.uniform(-3.0, 2.0))
        want = solve_outcome(reference_solve, A, g, lam, be)
        assert solve_outcome(words_solve, A, g, lam, be) == want
        solved += isinstance(want, list)
    assert solved >= 140

    # Rank-deficient: a pose direction no row moves, or an all-zero matrix.
    J = rng.normal(0.0, 1.0, (20, 6))
    J[:, 4] = 0.0
    A, g = normal_system(J, rng.normal(0.0, 1.0, 20), be)
    lam = ref.from_float(1e-3)
    assert reference_solve(A, g, lam, be) is None and words_solve(A, g, lam, be) is None
    zero = [[ref.zero] * 6 for _ in range(6)]
    assert reference_solve(zero, g, lam, be) is None and words_solve(zero, g, lam, be) is None

    # Elimination that leaves the 64-bit range: row 1 minus -1 times row 0
    # doubles an entry of 2**62 raw.  Float just carries the large value.
    big = ref.from_float(2.0 ** (62 - be.format.fraction_bits)) if be.is_fixed else 2.0 ** 62
    A = [[ref.one if i == j else ref.zero for j in range(6)] for i in range(6)]
    A[0][0], A[0][1], A[1][0], A[1][1] = big, big, -big, big
    ones = [ref.one] * 6
    want = solve_outcome(reference_solve, A, ones, ref.zero, be)
    assert (want is MathOverflowError) == be.is_fixed
    assert solve_outcome(words_solve, A, ones, ref.zero, be) == want


@pytest.mark.parametrize("be", [FLOAT, Q40, Q47], ids=["float", "q40_23", "q47_16"])
def test_mat_mul3_matches_scalar_sums(be):
    from edgetrack.pose_estimation import _mat_mul3

    ref = ref_scalars(be)

    def words_product(A, B):
        return [[ref.scalar(v) for v in row]
                for row in _mat_mul3(to_words(A, be), to_words(B, be), be)]

    def scalar_product(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

    rng = np.random.default_rng(513)
    for _ in range(50):
        A, B = (rng.normal(0.0, 1.0, (3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2))
        A[0, 0] = -0.0  # sum() starts from int 0, so -0.0 products turn to 0.0
        A, B = ([[ref.from_float(float(v)) for v in row] for row in M] for M in (A, B))
        want = [[scalar_bits(v) for v in row] for row in scalar_product(A, B)]
        assert [[scalar_bits(v) for v in row] for row in words_product(A, B)] == want
    if be.is_fixed:
        from edgetrack.realmath import MathOverflowError

        big = [[ref.from_float(2.0 ** (61 - be.format.fraction_bits))] * 3 for _ in range(3)]
        with pytest.raises(MathOverflowError):
            scalar_product(big, [[ref.from_int(2)] * 3] * 3)
        with pytest.raises(MathOverflowError):
            words_product(big, [[ref.from_int(2)] * 3] * 3)
