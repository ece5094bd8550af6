"""Tests for models, projection and SE(3) poses."""

import math

import numpy as np
import pytest

from edgetrack.geometry import (
    BehindCameraError,
    CameraIntrinsics,
    ModelFormatError,
    PoseSE3,
    exp_map,
    exp_map_np,
    load_model,
    log_rotation_np,
    project_np,
    project_point,
)
from edgetrack.realmath import get_backend

FLOAT = get_backend("float")


def quat_rotation(omega):
    """Independent rotation-matrix construction via unit quaternions."""
    omega = np.asarray(omega, dtype=np.float64)
    theta = float(np.linalg.norm(omega))
    if theta == 0.0:
        return np.eye(3)
    axis = omega / theta
    w = math.cos(theta / 2.0)
    x, y, z = math.sin(theta / 2.0) * axis
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_omega(rng, max_angle=math.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


# ---------------------------------------------------------------------------
# Exponential map.

def test_exp_map_zero_is_identity():
    assert np.array_equal(exp_map_np(np.zeros(3)), np.eye(3))


def test_exp_map_quarter_turn_about_z():
    R = exp_map_np(np.array([0.0, 0.0, math.pi / 2]))
    assert np.allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-6)


def test_exp_map_orthonormal():
    R = exp_map_np(np.array([0.1, 0.2, 0.3]))
    assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-6
    assert abs(np.linalg.det(R) - 1.0) < 1e-6


def test_exp_map_matches_quaternion_oracle():
    rng = np.random.default_rng(21)
    for _ in range(300):
        w = random_omega(rng)
        assert np.max(np.abs(exp_map_np(w) - quat_rotation(w))) < 1e-9


def test_exp_map_taylor_branch():
    rng = np.random.default_rng(22)
    for _ in range(100):
        w = random_omega(rng, max_angle=9e-7)
        assert np.max(np.abs(exp_map_np(w) - quat_rotation(w))) < 1e-12
    # Continuity across the series/Rodrigues switch.
    below = exp_map_np(np.array([9.9e-7, 0.0, 0.0]))
    above = exp_map_np(np.array([1.1e-6, 0.0, 0.0]))
    assert np.max(np.abs(below - above)) < 1e-5


def test_exp_map_inverse_property():
    rng = np.random.default_rng(23)
    for _ in range(100):
        w = random_omega(rng)
        R = exp_map_np(w) @ exp_map_np(-w)
        assert np.max(np.abs(R - np.eye(3))) < 1e-9


def test_exp_map_fixed_backend_orthonormal():
    rng = np.random.default_rng(24)
    be = get_backend("q40_23")
    for _ in range(50):
        w = random_omega(rng)
        R = exp_map([be.from_float(x) for x in w], be)
        Rf = np.array([[be.to_float(v) for v in row] for row in R])
        assert np.max(np.abs(Rf @ Rf.T - np.eye(3))) < 1e-3
        assert abs(np.linalg.det(Rf) - 1.0) < 1e-3
        assert np.max(np.abs(Rf - exp_map_np(w))) < 1e-3


def test_exp_map_fixed_matches_float_coarsely():
    rng = np.random.default_rng(25)
    be = get_backend("q47_16")
    for _ in range(25):
        w = random_omega(rng)
        R = exp_map([be.from_float(x) for x in w], be)
        Rf = np.array([[be.to_float(v) for v in row] for row in R])
        assert np.max(np.abs(Rf - exp_map_np(w))) < 1e-2


# ---------------------------------------------------------------------------
# Rotation log.

def test_log_rotation_round_trip():
    rng = np.random.default_rng(26)
    for _ in range(200):
        w = random_omega(rng, max_angle=math.pi - 0.1)
        assert np.max(np.abs(log_rotation_np(exp_map_np(w)) - w)) < 1e-9


def test_log_rotation_small_angle():
    w = np.array([1e-8, -2e-8, 3e-9])
    assert np.max(np.abs(log_rotation_np(exp_map_np(w)) - w)) < 1e-12


def test_log_rotation_near_pi():
    rng = np.random.default_rng(27)
    for theta in (math.pi - 1e-7, math.pi):
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            R = exp_map_np(axis * theta)
            w = log_rotation_np(R)
            # Axis sign is ambiguous at pi; compare the rotations instead.
            assert np.max(np.abs(exp_map_np(w) - R)) < 1e-6
            assert np.linalg.norm(w) <= math.pi + 1e-9


# ---------------------------------------------------------------------------
# Projection.

def test_project_principal_point(qvga_camera):
    K = qvga_camera.to_backend(FLOAT)
    R = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    (u, v), _, (_, _, z) = project_point((0.0, 0.0, 150.0), R, [0.0, 0.0, 0.0], K, FLOAT)
    assert (u, v, z) == (160.0, 120.0, 150.0)


def test_project_hand_computed(qvga_camera):
    K = qvga_camera.to_backend(FLOAT)
    R = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    (u, v), _, (_, _, z) = project_point((30.0, 0.0, 150.0), R, [0.0, 0.0, 0.0], K, FLOAT)
    assert (u, v) == (260.0, 120.0)
    # A quarter turn about z, then a shift: the rotated-only and the
    # camera-space point come back beside the image point.
    Rz = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    uv, rotated, cam = project_point((30.0, 0.0, 140.0), Rz, [0.0, 0.0, 10.0], K, FLOAT)
    assert rotated == (0.0, 30.0, 140.0) and cam == (0.0, 30.0, 150.0)
    assert uv == (160.0, 220.0)


def test_project_behind_camera(qvga_camera):
    K = qvga_camera.to_backend(FLOAT)
    R = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(BehindCameraError):
        project_point((0.0, 0.0, -10.0), R, [0.0, 0.0, 0.0], K, FLOAT)
    with pytest.raises(BehindCameraError):
        project_point((0.0, 0.0, 0.0), R, [0.0, 0.0, 0.0], K, FLOAT)


def test_project_fixed_backend_close_to_float(qvga_camera):
    rng = np.random.default_rng(28)
    for name in ("q40_23", "q47_16"):
        be = get_backend(name)
        K = qvga_camera.to_backend(be)
        Kf = qvga_camera.to_backend(FLOAT)
        for _ in range(50):
            w = random_omega(rng, max_angle=0.5)
            X = rng.uniform(-30.0, 30.0, size=3)
            t = [0.0, 0.0, 150.0]
            Rf = exp_map_np(w)
            (uf, vf), _, _ = project_point(tuple(X), Rf.tolist(), t, Kf, FLOAT)
            Rb = [[be.from_float(x) for x in row] for row in Rf]
            tb = [be.from_float(x) for x in t]
            Xb = tuple(be.from_float(x) for x in X)
            (ub, vb), _, _ = project_point(Xb, Rb, tb, K, be)
            assert abs(be.to_float(ub) - uf) < 0.05
            assert abs(be.to_float(vb) - vf) < 0.05


def test_project_unproject_round_trip(qvga_camera):
    rng = np.random.default_rng(29)
    K = qvga_camera.to_backend(FLOAT)
    for _ in range(100):
        w = random_omega(rng)
        R = exp_map_np(w)
        t = np.array([rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(100, 300)])
        X = rng.uniform(-40.0, 40.0, size=3)
        z_cam = (R @ X + t)[2]
        if z_cam <= 1.0:
            continue
        (u, v), _, (_, _, z) = project_point(tuple(X), R.tolist(), t.tolist(), K, FLOAT)
        cam = np.array([(u - 160.0) * z / 500.0, (v - 120.0) * z / 500.0, z])
        back = R.T @ (cam - t)
        assert np.max(np.abs(back - X)) < 1e-6


def test_project_np_matches_scalar(qvga_camera):
    rng = np.random.default_rng(30)
    K = qvga_camera.to_backend(FLOAT)
    w = random_omega(rng)
    R = exp_map_np(w)
    t = np.array([5.0, -3.0, 200.0])
    pts = rng.uniform(-40.0, 40.0, size=(50, 3))
    uv, z = project_np(pts, R, t, qvga_camera)
    for i, X in enumerate(pts):
        if z[i] <= 0:
            assert np.isnan(uv[i]).all()
            continue
        (u, v), _, (_, _, d) = project_point(tuple(X), R.tolist(), t.tolist(), K, FLOAT)
        assert abs(u - uv[i, 0]) < 1e-9 and abs(v - uv[i, 1]) < 1e-9 and abs(d - z[i]) < 1e-9


def test_project_np_behind_camera_is_nan(qvga_camera):
    uv, z = project_np(np.array([[0.0, 0.0, -50.0]]), np.eye(3), np.zeros(3), qvga_camera)
    assert z[0] == -50.0 and np.isnan(uv[0]).all()


# ---------------------------------------------------------------------------
# Pose type.

def test_pose_canonicalizes_omega():
    rng = np.random.default_rng(31)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(0.0, 4.0 * math.pi)
        pose = PoseSE3(omega=axis * theta, t=np.zeros(3))
        assert np.linalg.norm(pose.omega) <= math.pi + 1e-9
        assert np.max(np.abs(pose.rotation() - exp_map_np(axis * theta))) < 1e-9


def test_pose_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            PoseSE3(omega=np.array([bad, 0.0, 0.0]), t=np.array([0.0, 0.0, 150.0]))
        with pytest.raises(ValueError, match="not finite"):
            PoseSE3(omega=np.zeros(3), t=np.array([0.0, bad, 150.0]))


def test_pose_camera_center():
    pose = PoseSE3(omega=np.zeros(3), t=np.array([0.0, 0.0, 150.0]))
    assert np.allclose(pose.camera_center(), [0.0, 0.0, -150.0])
    # A known rotation: camera at +150 z in world looking back at the origin.
    pose2 = PoseSE3(omega=np.array([math.pi, 0.0, 0.0]), t=np.array([0.0, 0.0, 150.0]))
    assert np.allclose(pose2.camera_center(), [0.0, 0.0, 150.0], atol=1e-9)


# ---------------------------------------------------------------------------
# Camera intrinsics.

def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=0.0, fy=500.0, cx=160, cy=120, width=320, height=240)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=500.0, fy=500.0, cx=400, cy=120, width=320, height=240)
    good = dict(fx=500.0, fy=500.0, cx=160.0, cy=120.0)
    for key in good:
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CameraIntrinsics(**{**good, key: bad}, width=320, height=240)


# ---------------------------------------------------------------------------
# Model loading.

def test_load_cube(cube_model):
    assert len(cube_model.vertices) == 8
    assert len(cube_model.faces) == 12
    assert len(cube_model.edges) == 12
    assert np.max(np.abs(cube_model.vertices)) == 30.0


def test_edges_derived_from_faces(tmp_path):
    path = tmp_path / "tri.model"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    model = load_model(path)
    assert model.edges.tolist() == [[0, 1], [0, 2], [1, 2]]  # sorted-pair order


def test_derived_edges_include_triangulation_diagonals(tmp_path, cube_model_path):
    text = "\n".join(
        line for line in cube_model_path.read_text().splitlines() if not line.startswith("e")
    )
    path = tmp_path / "nocontour.model"
    path.write_text(text + "\n")
    model = load_model(path)
    assert len(model.edges) == 18  # 12 cube edges + 6 face diagonals


def test_empty_model_rejected(tmp_path):
    path = tmp_path / "empty.model"
    path.write_text("")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_one_based_indices(tmp_path):
    path = tmp_path / "zero.model"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(ModelFormatError, match="line 4"):
        load_model(path)


def test_index_beyond_vertex_count(tmp_path):
    path = tmp_path / "oob.model"
    path.write_text("v 0 0 0\nv 1 0 0\ne 1 3\n")
    with pytest.raises(ModelFormatError, match="line 3"):
        load_model(path)


def test_unknown_directive(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("v 0 0 0\nq 1 2\n")
    with pytest.raises(ModelFormatError, match="line 2"):
        load_model(path)


def test_bad_vertex_coordinate(tmp_path):
    path = tmp_path / "badv.model"
    path.write_text("v 0 zero 0\n")
    with pytest.raises(ModelFormatError, match="line 1"):
        load_model(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"v 0 0 0\nv 1 {bad} 0\n")
        with pytest.raises(ModelFormatError, match="line 2: bad vertex coordinate"):
            load_model(path)


def test_zero_length_edge(tmp_path):
    path = tmp_path / "degenerate.model"
    path.write_text("v 0 0 0\nv 1 0 0\ne 1 1\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_duplicate_edge(tmp_path):
    path = tmp_path / "dup.model"
    path.write_text("v 0 0 0\nv 1 0 0\ne 1 2\ne 2 1\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "comments.model"
    path.write_text("# header\n\nv 0 0 0  # origin\nv 1 0 0\n\ne 1 2\n")
    model = load_model(path)
    assert len(model.vertices) == 2 and len(model.edges) == 1


def test_edge_capacity_limit(tmp_path):
    # A path graph one edge over the 15-bit ID capacity.
    n = 32769
    lines = [f"v {i} 0 0" for i in range(n)]
    lines += [f"e {i} {i + 1}" for i in range(1, n)]
    path = tmp_path / "huge.model"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="capacity"):
        load_model(path)


def test_load_model_round_trips_counts(tmp_path):
    rng = np.random.default_rng(32)
    for trial in range(10):
        nv = int(rng.integers(4, 30))
        verts = rng.uniform(-50, 50, size=(nv, 3))
        nf = int(rng.integers(1, 20))
        faces = []
        for _ in range(nf):
            f = rng.choice(nv, size=3, replace=False) + 1
            faces.append(tuple(int(i) for i in f))
        pairs = set()
        while len(pairs) < min(10, nv * (nv - 1) // 2):
            a, b = rng.choice(nv, size=2, replace=False) + 1
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
        lines = [f"v {x} {y} {z}" for x, y, z in verts]
        lines += ["f %d %d %d" % f for f in faces]
        lines += ["e %d %d" % p for p in pairs]
        path = tmp_path / f"rand{trial}.model"
        path.write_text("\n".join(lines) + "\n")
        model = load_model(path)
        assert len(model.vertices) == nv
        assert len(model.faces) == nf
        assert len(model.edges) == len(pairs)
