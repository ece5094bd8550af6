"""Shared fixtures: model files, random scenes, the standard camera, and
the reference scalars the backends' arrays and words are checked against."""

import math
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from edgetrack.geometry import CameraIntrinsics, WireframeModel, load_model, look_at_pose
from edgetrack.realmath import Q40_23, Q47_16, FixedPoint

CUBE_VERTICES = [
    (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
    (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
]
CUBE_FACES = [
    (1, 2, 3), (1, 3, 4), (5, 6, 7), (5, 7, 8),
    (1, 2, 6), (1, 6, 5), (4, 3, 7), (4, 7, 8),
    (1, 4, 8), (1, 8, 5), (2, 3, 7), (2, 7, 6),
]
CUBE_EDGES = [
    (1, 2), (2, 3), (3, 4), (4, 1),
    (5, 6), (6, 7), (7, 8), (8, 5),
    (1, 5), (2, 6), (3, 7), (4, 8),
]


def cube_model_text(side: float = 60.0) -> str:
    """Axis-aligned cube centered on the origin, 12 explicit contour edges."""
    half = side / 2.0
    lines = ["# cube, side %g mm" % side]
    for x, y, z in CUBE_VERTICES:
        lines.append(f"v {x * half} {y * half} {z * half}")
    for f in CUBE_FACES:
        lines.append("f %d %d %d" % f)
    for e in CUBE_EDGES:
        lines.append("e %d %d" % e)
    return "\n".join(lines) + "\n"


@pytest.fixture
def cube_model_path(tmp_path):
    path = tmp_path / "cube.model"
    path.write_text(cube_model_text())
    return path


@pytest.fixture
def cube_model(cube_model_path):
    return load_model(cube_model_path)


@pytest.fixture
def icosphere_model(tmp_path, monkeypatch):
    """The benchmark's icosphere: 42 vertices, 80 faces, 120 edges."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    from models import icosphere_text

    path = tmp_path / "icosphere.model"
    path.write_text(icosphere_text())
    return load_model(path)


@pytest.fixture
def qvga_camera():
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=160.0, cy=120.0, width=320, height=240)


def random_convex_model(rng, n_points: int = 14, radius: float = 30.0) -> WireframeModel:
    """Convex polyhedron from random sphere points; edges derived from faces."""
    from scipy.spatial import ConvexHull

    pts = rng.normal(size=(n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= radius
    faces = ConvexHull(pts).simplices
    pairs = set()
    for f in faces:
        a, b, c = int(f[0]), int(f[1]), int(f[2])
        pairs.update({(min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(a, c), max(a, c))})
    return WireframeModel(vertices=pts, faces=faces, edges=sorted(pairs))


def random_orbit_pose(rng, distance_range=(120.0, 260.0)):
    """Camera on a random bearing looking at the origin."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    camera = direction * rng.uniform(*distance_range)
    down = rng.normal(size=3)
    while np.linalg.norm(np.cross(down, -direction)) < 1e-6:
        down = rng.normal(size=3)
    return look_at_pose(camera, target=(0.0, 0.0, 0.0), down=down)


def silhouette_edge_ids(model, pose) -> set:
    """Edges between a front- and a back-facing face for this view.

    Points on such edges sit exactly on the silhouette: their visibility is
    tangent-marginal, and the ID buffer can legitimately report either state.
    The model interior must contain the origin (true for the test shapes).
    """
    center = pose.camera_center()
    verts = model.vertices
    facing = []
    for f in model.faces:
        a, b, c = verts[f[0]], verts[f[1]], verts[f[2]]
        n = np.cross(b - a, c - a)
        if np.dot(n, a + b + c) < 0.0:  # orient outward from the origin
            n = -n
        facing.append(bool(np.dot(n, a - center) < 0.0))
    by_pair = {}
    for fi, f in enumerate(model.faces):
        a, b, c = int(f[0]), int(f[1]), int(f[2])
        for p in ((a, b), (b, c), (a, c)):
            by_pair.setdefault((min(p), max(p)), []).append(fi)
    out = set()
    for i, e in enumerate(model.edges):
        a, b = int(e[0]), int(e[1])
        adj = by_pair.get((min(a, b), max(a, b)), [])
        if len(adj) != 2 or facing[adj[0]] != facing[adj[1]]:
            out.add(i)
    return out


def perturbed_pose(pose, angle_rad: float, dist_mm: float, rng):
    """Pose offset by a rotation of angle_rad and a translation of dist_mm."""
    from edgetrack.geometry import PoseSE3, exp_map_np, log_rotation_np

    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    shift = rng.normal(size=3)
    shift *= dist_mm / np.linalg.norm(shift)
    R = exp_map_np(angle_rad * axis) @ exp_map_np(pose.omega)
    return PoseSE3(log_rotation_np(R), pose.t + shift)


def synthetic_measurements(model, pose, K, step: float = 10.0):
    """Noiseless control points with exact matches at a known pose.

    Samples each edge uniformly in 3D and projects; independent of the
    tracker's image-driven sampling so it can serve as its oracle.
    """
    from edgetrack.geometry import exp_map_np
    from edgetrack.tracking import ControlPoint

    R = exp_map_np(pose.omega)
    out = []
    for ei, (ia, ib) in enumerate(model.edges):
        A = np.asarray(model.vertices[ia], dtype=float)
        B = np.asarray(model.vertices[ib], dtype=float)
        ca = R @ A + pose.t
        cb = R @ B + pose.t
        if ca[2] <= 0 or cb[2] <= 0:
            continue
        pa = np.array([K.fx * ca[0] / ca[2] + K.cx, K.fy * ca[1] / ca[2] + K.cy])
        pb = np.array([K.fx * cb[0] / cb[2] + K.cx, K.fy * cb[1] / cb[2] + K.cy])
        d = pb - pa
        length = float(np.hypot(d[0], d[1]))
        count = int(length // step)
        if count == 0:
            continue
        n = np.array([-d[1], d[0]]) / length
        for k in range(count):
            tau = (k + 0.5) / count
            X = A + tau * (B - A)
            c = R @ X + pose.t
            q = (K.fx * c[0] / c[2] + K.cx, K.fy * c[1] / c[2] + K.cy)
            out.append(
                ControlPoint(
                    edge_index=ei, p=q, n=(float(n[0]), float(n[1])),
                    X=(float(X[0]), float(X[1]), float(X[2])), match=q,
                )
            )
    return out


def columns(measurements, backend):
    """World points, normals and matches of ControlPoints holding floats, as
    the backend arrays (X, n, match) that solve_lm takes: (3, N), (2, N) and
    (2, N), one column per point."""
    return tuple(
        backend.array([[getattr(m, name)[j] for m in measurements] for j in range(dim)])
        for name, dim in (("X", 3), ("n", 2), ("match", 2))
    )


def pose_errors(pose_a, pose_b):
    """(geodesic rotation angle, translation distance) between two poses."""
    from edgetrack.geometry import exp_map_np

    Ra = exp_map_np(pose_a.omega)
    Rb = exp_map_np(pose_b.omega)
    cosang = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
    ang = float(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return ang, float(np.linalg.norm(np.asarray(pose_a.t) - np.asarray(pose_b.t)))


# ---------------------------------------------------------------------------
# A float projection and the one-point LM Jacobian, built on the program's
# own functions, and two independent oracles: the edge-ID colour decoder
# and ray-cast visibility.

def pinhole(c, K):
    """Image point (u, v) of the camera-space point c = (x, y, z), or of
    arrays of their coordinates: (fx x / z + cx, fy y / z + cy), each
    formed in that order, as geometry.project_cam forms it."""
    return K.fx * c[0] / c[2] + K.cx, K.fy * c[1] / c[2] + K.cy


def project_np(points, R, t, K):
    """Float image points (N, 2) and depths (N,) of world points at the pose
    (R, t): numpy's matrix product, then pinhole.  No depth check; callers
    test z."""
    cam = np.asarray(points, dtype=np.float64).reshape(-1, 3) @ np.asarray(R).T + np.asarray(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.stack(pinhole(cam.T, K), axis=1)
    return uv, cam[:, 2]


def decode_ids(rgb):
    """Edge IDs of (..., 3) uint8 colours in the ID-buffer colour code, -1
    (the rasterizer's BACKGROUND) for black: the inverse of
    rasterizer.encode_id_array, written from the code's definition."""
    r, g, b = (np.asarray(rgb)[..., c].astype(np.int64) for c in range(3))
    ids = (((r // 8) * 256 + g) // 8 * 256 + b) // 8 - 1
    return np.where((r == 0) & (g == 0) & (b == 0), -1, ids)


def visibility_oracle(model, pose, p3d, tol: float = 1e-6):
    """Ray-cast visibility of world points on model edges: a bool for one
    point, a (P,) bool array for (P, 3) points.

    Visible iff the open segment from the camera center to the point crosses
    no model face strictly nearer than the point (relative tolerance excludes
    the faces the edge itself lies on).  Every (point, face) pair gets the
    same Moller-Trumbore test.  Shares no code with the rasterizer.
    """
    center = pose.camera_center()
    target = np.asarray(p3d, dtype=np.float64)
    direction = target.reshape(-1, 3) - center  # (P, 3)
    dist = np.linalg.norm(direction, axis=1)[:, None]  # (P, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        direction = direction / dist

    v0 = model.vertices[model.faces[:, 0]]
    e1 = model.vertices[model.faces[:, 1]] - v0
    e2 = model.vertices[model.faces[:, 2]] - v0
    # Moller-Trumbore, vectorized across points (rows) and faces (columns).
    pvec = np.cross(direction[:, None], e2)  # (P, F, 3)
    det = np.einsum("fj,pfj->pf", e1, pvec)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = np.where(np.abs(det) > 1e-12, 1.0 / det, 0.0)
        tvec = center - v0
        u = np.einsum("fj,pfj->pf", tvec, pvec) * inv_det
        qvec = np.cross(tvec, e1)
        v = np.einsum("fj,pj->pf", qvec, direction) * inv_det
        s = np.einsum("fj,fj->f", e2, qvec) * inv_det
    hit = (
        (np.abs(det) > 1e-12)
        & (u >= -1e-9)
        & (v >= -1e-9)
        & (u + v <= 1.0 + 1e-9)
        & (s > dist * tol)
        & (s < dist * (1.0 - tol))
    )
    visible = (dist[:, 0] > 0.0) & ~hit.any(axis=1)
    return bool(visible[0]) if target.ndim == 1 else visible


def residual_jacobian(X, R, t, K, n, backend):
    """Row of d(residual)/d(rotation increment, translation) at the pose
    (R, t), for the point X with the normal n, all given as floats and
    converted to the backend: the Jacobian LM builds, on one-point columns."""
    from edgetrack.pose_estimation import _jacobian, _project

    from_float = backend.words.from_float
    X, n, focal = (backend.array(c)[:, None] for c in (X, n, (K.fx, K.fy)))
    R = [list(map(from_float, row)) for row in R]
    f, v, z = _project(X, R, list(map(from_float, t)), focal, backend)
    return tuple(_jacobian(f, v, z, n, focal, backend)[:, 0])


# ---------------------------------------------------------------------------
# Reference scalars: the oracle for the backends' arrays and words.

def _fixed_class(fmt):
    return type(f"FixedQ{fmt.integer_bits}_{fmt.fraction_bits}", (FixedPoint,),
                {"__slots__": (), "FORMAT": fmt, "FRAC_BITS": fmt.fraction_bits})


FixedQ40_23, FixedQ47_16 = _fixed_class(Q40_23), _fixed_class(Q47_16)


def fixed_type(fmt):
    """The FixedPoint subclass of one of the two formats, ValueError for
    any other."""
    for cls in (FixedQ40_23, FixedQ47_16):
        if cls.FORMAT == fmt:
            return cls
    raise ValueError(f"unsupported fixed-point format {fmt}")


def ref_scalars(backend) -> SimpleNamespace:
    """The reference scalars of a backend: FixedPoint values on fixed point,
    floats on float.  They convert and compute on their own, so a test can
    form a result one scalar at a time and compare the backend's arrays
    and words with it.  ``word`` gives a scalar's word (``backend.words``)
    and ``scalar`` the scalar of a word."""
    if not backend.is_fixed:
        return SimpleNamespace(from_float=float, from_int=float, zero=0.0, one=1.0,
                               sqrt=backend.words.sqrt, to_float=float, floor_to_int=math.floor,
                               word=float, scalar=float)
    st = fixed_type(backend.format)
    return SimpleNamespace(from_float=st.from_float, from_int=st.from_int, zero=st(0),
                           one=st.from_int(1), sqrt=st.sqrt, to_float=st.to_float,
                           floor_to_int=st.floor_to_int, word=attrgetter("raw"), scalar=st)


def ref_intrinsics(K, backend):
    """The intrinsics K as reference scalars fx, fy, cx and cy."""
    fx, fy, cx, cy = map(ref_scalars(backend).from_float, (K.fx, K.fy, K.cx, K.cy))
    return SimpleNamespace(fx=fx, fy=fy, cx=cx, cy=cy)


# ---------------------------------------------------------------------------
# Scalar references for the word- and array-level rotation code.

def ref_exp_map(omega, backend):
    """Rodrigues rotation from three reference scalars (ref_scalars), as a
    3x3 nested list of them: the formula geometry.exp_map runs on words,
    written with the scalars' own operators."""
    from edgetrack.geometry import _TAYLOR_ANGLE

    ref = ref_scalars(backend)
    wx, wy, wz = omega
    xx, yy, zz = wx * wx, wy * wy, wz * wz
    xy, xz, yz = wx * wy, wx * wz, wy * wz
    theta_sq = xx + yy + zz
    theta = ref.sqrt(theta_sq)
    if ref.to_float(theta) < _TAYLOR_ANGLE:
        return [
            [1 - (yy + zz) / 2, xy / 2 - wz, xz / 2 + wy],
            [xy / 2 + wz, 1 - (xx + zz) / 2, yz / 2 - wx],
            [xz / 2 - wy, yz / 2 + wx, 1 - (xx + yy) / 2],
        ]
    w = backend.words
    a = ref.scalar(w.sin(ref.word(theta))) / theta
    b = (1 - ref.scalar(w.cos(ref.word(theta)))) / theta_sq
    return [
        [1 - b * (yy + zz), b * xy - a * wz, b * xz + a * wy],
        [b * xy + a * wz, 1 - b * (xx + zz), b * yz - a * wx],
        [b * xz - a * wy, b * yz + a * wx, 1 - b * (xx + yy)],
    ]


def mat_vec(R, v):
    """3x3 matrix times 3-vector on nested sequences of any scalar type,
    each row summed left to right."""
    return (
        R[0][0] * v[0] + R[0][1] * v[1] + R[0][2] * v[2],
        R[1][0] * v[0] + R[1][1] * v[1] + R[1][2] * v[2],
        R[2][0] * v[0] + R[2][1] * v[1] + R[2][2] * v[2],
    )


def to_words(values, backend):
    """Reference scalars (ref_scalars), in nested lists, as words
    (backend.words)."""
    if isinstance(values, (list, tuple)):
        return [to_words(v, backend) for v in values]
    return ref_scalars(backend).word(values)
