"""Wireframe models, pinhole camera projection, and SE(3) poses.

Rotation is parameterized by an exponential-map vector: direction is the
rotation axis, norm is the angle in radians.  The pose convention is
camera-from-world (``x_cam = R x_world + t``), translations in millimeters,
image y growing downward.

Scalar-level routines (`exp_map`, `mat_vec`, `project_cam`, `project_point`)
are written against the realmath backend protocol so they run identically in
floating point and fixed point; all but `exp_map` also take backend arrays.
The segment clips (`clip_near`, `clip_box`) run on backend arrays only; the
renderer and the tracker share them.  Bulk float paths use numpy directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

MAX_EDGES = 32767  # edge IDs occupy 15 bits; index 32767 would encode to black


class ModelFormatError(ValueError):
    """A model file could not be parsed or violates model invariants."""


class BehindCameraError(ValueError):
    """A point with non-positive camera-space depth was projected."""


# ---------------------------------------------------------------------------
# Domain types.

@dataclass
class WireframeModel:
    """Triangulated solid with an explicit list of contour edges to track."""

    vertices: np.ndarray  # (N, 3) float64, mm
    faces: np.ndarray  # (M, 3) int32, vertex indices
    edges: np.ndarray  # (E, 2) int32, vertex indices; row order is the edge ID

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int32).reshape(-1, 3)
        self.edges = np.asarray(self.edges, dtype=np.int32).reshape(-1, 2)
        n = len(self.vertices)
        for name, idx in (("face", self.faces), ("edge", self.edges)):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ModelFormatError(f"{name} vertex index out of range")
        if np.any(self.edges[:, 0] == self.edges[:, 1]):
            raise ModelFormatError("zero-length edge")
        pairs = {tuple(sorted(e)) for e in self.edges.tolist()}
        if len(pairs) != len(self.edges):
            raise ModelFormatError("duplicate undirected edge")
        if len(self.edges) > MAX_EDGES:
            raise ModelFormatError(
                f"{len(self.edges)} edges exceed the {MAX_EDGES} edge-ID capacity"
            )

    @cached_property
    def edge_faces(self) -> np.ndarray:
        """For each edge, the indices of faces containing both its endpoints:
        an (E, m) int array, rows padded with -2, which is no face index."""
        by_pair: dict[tuple[int, int], list] = {}
        for fi, f in enumerate(self.faces.tolist()):
            a, b, c = f
            for p in ((a, b), (b, c), (a, c)):
                by_pair.setdefault((min(p), max(p)), []).append(fi)
        rows = [by_pair.get((min(a, b), max(a, b)), []) for a, b in self.edges.tolist()]
        table = np.full((len(rows), max([1, *map(len, rows)])), -2, dtype=np.int64)
        for row, fs in zip(table, rows):
            row[:len(fs)] = fs
        return table


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels; no distortion model."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside the image")

    def to_backend(self, backend) -> "BackendIntrinsics":
        return BackendIntrinsics(
            fx=backend.from_float(self.fx),
            fy=backend.from_float(self.fy),
            cx=backend.from_float(self.cx),
            cy=backend.from_float(self.cy),
        )


@dataclass(frozen=True)
class BackendIntrinsics:
    """Intrinsics pre-converted to one backend's scalar type."""

    fx: object
    fy: object
    cx: object
    cy: object


@dataclass
class PoseSE3:
    """Camera-from-world pose: exp-map rotation vector plus translation (mm)."""

    omega: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=np.float64).reshape(3)
        t = np.asarray(self.t, dtype=np.float64).reshape(3)
        if not (np.isfinite(omega).all() and np.isfinite(t).all()):
            raise ValueError(f"pose is not finite: omega={omega.tolist()}, t={t.tolist()}")
        self.omega = _canonical_omega(omega)
        self.t = t.copy()

    def rotation(self) -> np.ndarray:
        return exp_map_np(self.omega)

    def camera_center(self) -> np.ndarray:
        """Camera position in world coordinates: -R^T t."""
        return -self.rotation().T @ self.t

    def copy(self) -> "PoseSE3":
        return PoseSE3(self.omega.copy(), self.t.copy())


def _canonical_omega(omega: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
    if theta <= math.pi or theta == 0.0:
        return omega.copy()
    reduced = math.fmod(theta, 2.0 * math.pi)
    if reduced > math.pi:
        reduced -= 2.0 * math.pi  # negative: flips the axis below
    return omega * (reduced / theta)


# ---------------------------------------------------------------------------
# Exponential map.

_TAYLOR_ANGLE = 1e-6


def exp_map(omega: Sequence, backend) -> list:
    """Rodrigues rotation from three backend scalars, as a 3x3 nested list."""
    wx, wy, wz = omega
    xx, yy, zz = wx * wx, wy * wy, wz * wz
    xy, xz, yz = wx * wy, wx * wz, wy * wz
    theta_sq = xx + yy + zz
    theta = backend.sqrt(theta_sq)
    if backend.to_float(theta) < _TAYLOR_ANGLE:
        # I + W + W^2/2: second-order Taylor, no division by the tiny angle
        return [
            [1 - (yy + zz) / 2, xy / 2 - wz, xz / 2 + wy],
            [xy / 2 + wz, 1 - (xx + zz) / 2, yz / 2 - wx],
            [xz / 2 - wy, yz / 2 + wx, 1 - (xx + yy) / 2],
        ]
    a = backend.sin(theta) / theta
    b = (1 - backend.cos(theta)) / theta_sq
    return [
        [1 - b * (yy + zz), b * xy - a * wz, b * xz + a * wy],
        [b * xy + a * wz, 1 - b * (xx + zz), b * yz - a * wx],
        [b * xz - a * wy, b * yz + a * wx, 1 - b * (xx + yy)],
    ]


def exp_map_np(omega: np.ndarray) -> np.ndarray:
    """Float-path Rodrigues rotation as a numpy 3x3 array."""
    from .realmath import FloatBackend

    w = np.asarray(omega, dtype=np.float64).reshape(3)
    return np.array(exp_map((w[0], w[1], w[2]), FloatBackend()), dtype=np.float64)


def log_rotation_np(R: np.ndarray) -> np.ndarray:
    """Exp-map vector of a rotation matrix (float path, ||result|| in [0, pi])."""
    v = np.array(
        [R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]], dtype=np.float64
    )
    sin_theta = 0.5 * float(np.linalg.norm(v))
    cos_theta = 0.5 * (float(np.trace(R)) - 1.0)
    theta = math.atan2(sin_theta, min(1.0, max(-1.0, cos_theta)))
    if theta < 1e-6:
        return 0.5 * v
    if theta < math.pi - 1e-4:
        return v * (theta / (2.0 * sin_theta))
    # Near pi the skew part vanishes; recover the axis from the diagonal.
    k = int(np.argmax(np.diag(R)))
    axis = np.empty(3)
    axis[k] = math.sqrt(max(0.0, (R[k, k] + 1.0) / 2.0))
    for i in range(3):
        if i != k:
            axis[i] = (R[k, i] + R[i, k]) / (4.0 * axis[k])
    axis /= np.linalg.norm(axis)
    if sin_theta > 1e-12 and np.dot(axis, v) < 0.0:
        axis = -axis
    return axis * theta


def look_at_pose(camera_pos, target=(0.0, 0.0, 0.0), down=(0.0, 1.0, 0.0)) -> PoseSE3:
    """Camera-from-world pose with the camera at camera_pos facing target.

    ``down`` is a world-space hint for the image's downward direction (image
    y grows downward); it falls back to +x when collinear with the view axis.
    """
    c = np.asarray(camera_pos, dtype=np.float64).reshape(3)
    z = np.asarray(target, dtype=np.float64).reshape(3) - c
    norm = np.linalg.norm(z)
    if norm == 0.0:
        raise ValueError("camera position coincides with the look-at target")
    z = z / norm
    d = np.asarray(down, dtype=np.float64).reshape(3)
    x = np.cross(d, z)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(np.array([1.0, 0.0, 0.0]), z)
        if np.linalg.norm(x) < 1e-9:
            x = np.cross(np.array([0.0, 0.0, 1.0]), z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.stack([x, y, z])
    return PoseSE3(log_rotation_np(R), -R @ c)


# ---------------------------------------------------------------------------
# Projection.

def mat_vec(R: Sequence, v: Sequence) -> tuple:
    """3x3 matrix times 3-vector on nested sequences of any scalar type."""
    return (
        R[0][0] * v[0] + R[0][1] * v[1] + R[0][2] * v[2],
        R[1][0] * v[0] + R[1][1] * v[1] + R[1][2] * v[2],
        R[2][0] * v[0] + R[2][1] * v[1] + R[2][2] * v[2],
    )


def project_cam(c: Sequence, K) -> tuple:
    """Pinhole image point (u, v) of camera-space point c; no depth check.

    K is CameraIntrinsics or BackendIntrinsics: plain operators let the same
    expression run on floats, numpy arrays and backend scalars.
    """
    return K.fx * c[0] / c[2] + K.cx, K.fy * c[1] / c[2] + K.cy


def project_point(X: Sequence, R: Sequence, t: Sequence, K: BackendIntrinsics, backend):
    """Project world points; returns ((u, v), R X, R X + t) in backend values.

    R and t are camera-from-world in backend scalars (R a 3x3 nested list);
    the coordinates of X are backend scalars for one point or backend
    arrays for many.  The rotated-only point and the camera-space point come
    back too: the pose Jacobian needs both.  Raises BehindCameraError when
    any camera-space z <= 0.
    """
    v = mat_vec(R, X)
    c = (v[0] + t[0], v[1] + t[1], v[2] + t[2])
    if not np.all(c[2] > backend.zero):
        depth = np.min(backend.to_float(c[2]))
        raise BehindCameraError(f"point depth {depth} mm is not positive")
    return project_cam(c, K), v, c


def project_np(points: np.ndarray, R: np.ndarray, t: np.ndarray, K: CameraIntrinsics):
    """Vectorized float projection; returns (uv (N,2), depth (N,)), unclipped.

    Depths may be non-positive; callers clip.  Rows with z <= 0 get NaN uv.
    """
    cam = transform_np(points, R, t)
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.stack(project_cam(cam.T, K), axis=1)
    uv[~(z > 0.0)] = np.nan
    return uv, z


def transform_np(points: np.ndarray, R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """World points to camera space, vectorized float path."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return pts @ np.asarray(R, dtype=np.float64).T + np.asarray(t, dtype=np.float64)


# ---------------------------------------------------------------------------
# Segment clipping, on backend arrays.

def clip_near(a, b, near, backend):
    """Clip the segments a[i]-b[i] to the half-space z >= near.

    ``a`` and ``b`` are tuples of backend coordinate arrays with z at index
    2; further components (say the world copy of a camera-space point) are
    clipped with the same parameter.  Returns the indices of the segments
    with an end in front of the plane and their clipped ends.  An end in
    front is kept as it is; an end behind moves to a + s (b - a) with
    s = (near - z_a) / (z_b - z_a), computed only where the segment crosses.
    """
    a_in, b_in = a[2] >= near, b[2] >= near
    live = np.flatnonzero(a_in | b_in)
    a, b = tuple(c[live] for c in a), tuple(c[live] for c in b)
    a_in, b_in = a_in[live], b_in[live]
    cross = a_in != b_in
    if cross.any():
        at = np.flatnonzero(cross)
        ca, cb = tuple(c[at] for c in a), tuple(c[at] for c in b)
        s = (near - ca[2]) / (cb[2] - ca[2])
        moved = tuple(x + s * (y - x) for x, y in zip(ca, cb))
        row = np.maximum(np.cumsum(cross) - 1, 0)  # a crossing row's entry in moved
        a = tuple(backend.where(a_in, x, m[row]) for x, m in zip(a, moved))
        b = tuple(backend.where(b_in, x, m[row]) for x, m in zip(b, moved))
    return live, a, b


def clip_box(a, d, lo, hi, backend):
    """Liang-Barsky clip of the segments a + s d, 0 <= s <= 1, to the box
    lo <= p <= hi.

    ``a`` and ``d`` are tuples of per-axis backend arrays, ``lo`` and ``hi``
    per-axis bounds.  Returns the span [s0, s1] of each segment inside the
    box and whether the segment meets it (s0 <= s1, so a segment touching
    the box gets an empty span).  On each axis the crossings are (lo - a) / d
    and (hi - a) / d, swapped where d < 0; a flat axis (d == 0) is a
    containment test.  A segment already outside divides by 1 on later
    axes, so no division runs that a clip stopping at the first failed
    test would skip.
    """
    s0, s1 = backend.zero, backend.one
    meets = True
    for a_k, d_k, lo_k, hi_k in zip(a, d, lo, hi):
        to_lo, to_hi = lo_k - a_k, hi_k - a_k
        flat = d_k == 0
        meets = meets & ~(flat & ((to_lo > 0) | (to_hi < 0)))
        step = backend.where(flat | ~meets, backend.one, d_k)
        t_lo, t_hi = to_lo / step, to_hi / step
        rising = d_k > 0
        enter, leave = backend.where(rising, t_lo, t_hi), backend.where(rising, t_hi, t_lo)
        s0 = backend.where(~flat & (enter > s0), enter, s0)
        s1 = backend.where(~flat & (leave < s1), leave, s1)
    return s0, s1, meets & (s0 <= s1)


# ---------------------------------------------------------------------------
# Model file I/O.

def load_model(path) -> WireframeModel:
    """Parse a wireframe model file.

    Format, one item per line, ``#`` starts a comment, indices 1-based::

        v <x> <y> <z>   vertex (mm)
        f <i> <j> <k>   triangular face
        e <i> <j>       contour edge (optional)

    Without ``e`` lines, edges are the unique undirected vertex pairs of all
    faces, ordered lexicographically by sorted pair.  With ``e`` lines, edge
    IDs follow order of appearance.
    """
    vertices: list[tuple[float, float, float]] = []
    faces: list[tuple[int, tuple]] = []  # (lineno, indices)
    edges: list[tuple[int, tuple]] = []
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "v":
            if len(args) != 3:
                raise ModelFormatError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                v = tuple(map(float, args))
            except ValueError:
                v = None
            if v is None or not all(map(math.isfinite, v)):
                raise ModelFormatError(f"line {lineno}: bad vertex coordinate")
            vertices.append(v)
        elif kind == "f":
            faces.append((lineno, _parse_indices(args, 3, lineno)))
        elif kind == "e":
            edges.append((lineno, _parse_indices(args, 2, lineno)))
        else:
            raise ModelFormatError(f"line {lineno}: unknown directive {kind!r}")
    if not vertices:
        raise ModelFormatError("model has no vertices")
    n = len(vertices)
    for lineno, idx in faces + edges:
        for i in idx:
            if i >= n:
                raise ModelFormatError(
                    f"line {lineno}: vertex index {i + 1} exceeds vertex count {n}"
                )
    edge_rows = [idx for _, idx in edges]
    if not edge_rows:
        pair_set = set()
        for _, f in faces:
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[0], f[2])):
                pair_set.add((min(a, b), max(a, b)))
        edge_rows = sorted(pair_set)
    return WireframeModel(
        vertices=np.array(vertices, dtype=np.float64).reshape(n, 3),
        faces=np.array([f for _, f in faces], dtype=np.int32).reshape(-1, 3),
        edges=np.array(edge_rows, dtype=np.int32).reshape(-1, 2),
    )


def _parse_indices(args, count, lineno):
    if len(args) != count:
        raise ModelFormatError(f"line {lineno}: expected {count} vertex indices")
    try:
        idx = [int(a) for a in args]
    except ValueError:
        raise ModelFormatError(f"line {lineno}: bad vertex index") from None
    for i in idx:
        if i < 1:
            raise ModelFormatError(f"line {lineno}: vertex index {i} below 1 (1-based)")
    return tuple(i - 1 for i in idx)
