"""Wireframe models, pinhole camera projection, and SE(3) poses.

Rotation is parameterized by an exponential-map vector: direction is the
rotation axis, norm is the angle in radians.  The pose convention is
camera-from-world (``x_cam = R x_world + t``), translations in millimeters,
image y growing downward.

The backend routines are written against the realmath backend protocol so
they run identically in floating point and fixed point.  `exp_map` runs on
the backend's words (``backend.words``).  Everywhere else a point set is
one (k, N) backend array, coordinates along axis 0: `transform` takes a
pose on words and world points as one (3, N) array, `project_cam` maps
(k, N) camera points to (2, N) image points, and the segment clips
(`clip_near`, `clip_box`) take and return such arrays.  The renderer, on
float arrays and the pose's float words (`pose_words`), and the tracker
share all four, so the synthetic frames are drawn on that geometry too.
`look_at_pose` and `PoseSE3.camera_center`, which form the ground truth
and the error, keep numpy's matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .realmath import FloatBackend

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
        if not np.isfinite(self.vertices).all():
            raise ModelFormatError("vertex coordinate is not finite")
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

    @cached_property
    def edge_ends(self) -> tuple:
        """The vertices the edges use, ascending, as a (V,) index array, and
        each edge's two ends as indices into it, an (E, 2) array."""
        used, ends = np.unique(self.edges.ravel(), return_inverse=True)
        return used, ends.reshape(-1, 2)

    @cached_property
    def _backend_forms(self) -> dict:
        return {}

    def used_vertices(self, backend):
        """The vertices edge_ends names, as one (3, V) array of the backend,
        converted by ``backend.array`` on the first call for the backend."""
        forms = self._backend_forms
        if backend.name not in forms:
            forms[backend.name] = backend.array(self.vertices[self.edge_ends[0]].T)
        return forms[backend.name]


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

    @cached_property
    def _backend_forms(self) -> dict:
        return {}

    def to_backend(self, backend) -> "BackendIntrinsics":
        """The intrinsics converted by ``backend.array``, on the first call
        for the backend."""
        forms = self._backend_forms
        if backend.name not in forms:
            v = backend.array([[self.fx], [self.fy], [self.cx], [self.cy]])
            forms[backend.name] = BackendIntrinsics(v[:2], v[2:])
        return forms[backend.name]


@dataclass(frozen=True)
class BackendIntrinsics:
    """Intrinsics converted to one backend by ``backend.array``: (fx, fy)
    and (cx, cy) as (2, 1) arrays, which broadcast over (2, N) points."""

    focal: object
    center: object


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
    """Rodrigues rotation from three words (``backend.words``), as a 3x3
    nested list of words.

    Each step rounds and range-checks as FixedPoint's operators do on
    fixed point, so the words are those the same formula gives on
    FixedPoint values.
    """
    w = backend.words
    add, sub, mul, div = w.add, w.sub, w.mul, w.div
    one = w.constant(1)
    two = add(one, one)
    wx, wy, wz = omega
    xx, yy, zz = mul(wx, wx), mul(wy, wy), mul(wz, wz)
    xy, xz, yz = mul(wx, wy), mul(wx, wz), mul(wy, wz)
    theta_sq = add(add(xx, yy), zz)
    theta = w.sqrt(theta_sq)
    if w.to_float(theta) < _TAYLOR_ANGLE:
        # I + W + W^2/2: second-order Taylor, no division by the tiny angle
        return [
            [sub(one, div(add(yy, zz), two)), sub(div(xy, two), wz), add(div(xz, two), wy)],
            [add(div(xy, two), wz), sub(one, div(add(xx, zz), two)), sub(div(yz, two), wx)],
            [sub(div(xz, two), wy), add(div(yz, two), wx), sub(one, div(add(xx, yy), two))],
        ]
    a = div(w.sin(theta), theta)
    b = div(sub(one, w.cos(theta)), theta_sq)
    return [
        [sub(one, mul(b, add(yy, zz))), sub(mul(b, xy), mul(a, wz)), add(mul(b, xz), mul(a, wy))],
        [add(mul(b, xy), mul(a, wz)), sub(one, mul(b, add(xx, zz))), sub(mul(b, yz), mul(a, wx))],
        [sub(mul(b, xz), mul(a, wy)), add(mul(b, yz), mul(a, wx)), sub(one, mul(b, add(xx, yy)))],
    ]


def pose_words(pose: PoseSE3, backend) -> tuple:
    """The pose (R, t) on the backend's words: ``exp_map`` of omega's words
    and t's words, each number converted by ``words.from_float``."""
    from_float = backend.words.from_float
    return exp_map([from_float(v) for v in pose.omega], backend), [from_float(v) for v in pose.t]


def exp_map_np(omega: np.ndarray) -> np.ndarray:
    """Float-path Rodrigues rotation as a numpy 3x3 array."""
    # Python floats: numpy scalars give the same bits at twice the cost.
    return np.array(exp_map(np.asarray(omega, dtype=np.float64).tolist(), FloatBackend))


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

def transform(X, R: Sequence, t: Sequence, backend):
    """R X and R X + t for the world points X, one (3, N) backend array,
    at the camera-from-world pose (R, t) given on the backend's words.

    R X is one (3, k, N) product for the k rows of R (3 for a rotation),
    whose rows are summed left to right, R[i][0] X[0] + R[i][1] X[1] +
    R[i][2] X[2], as a scalar loop sums them; t has k entries too.
    """
    w = backend.words
    P = w.array(list(zip(*R)))[:, :, None] * X[:, None]
    v = P[0] + P[1] + P[2]
    return v, v + w.array(t)[:, None]


def project_cam(c, K):
    """Pinhole image points, a (2, N) array with u in row 0 and v in row 1,
    of the camera-space points c, a (k, N) array with z in row 2 (rows past
    it are ignored); no depth check.

    K is BackendIntrinsics of the backend of c: u = fx x / z + cx and
    v = fy y / z + cy, each formed in that order.
    """
    return K.focal * c[:2] / c[2] + K.center


# ---------------------------------------------------------------------------
# Segment clipping, on backend arrays.

def clip_near(a, b, near, backend):
    """Clip the segments a[:, i]-b[:, i] to the half-space z >= near.

    ``a`` and ``b`` are (k, N) backend arrays of points with z in row 2;
    further rows (say the world copy of a camera-space point) are clipped
    with the same parameter.  Returns the indices of the segments with an
    end in front of the plane and their clipped ends, (k, M) arrays.  An
    end in front is kept as it is; an end behind moves to a + s (b - a)
    with s = (near - z_a) / (z_b - z_a), computed only where the segment
    crosses.
    """
    a_in, b_in = a[2] >= near, b[2] >= near
    live = np.flatnonzero(a_in | b_in)
    a, b = a[:, live], b[:, live]
    a_in, b_in = a_in[live], b_in[live]
    cross = a_in != b_in
    if cross.any():
        at = np.flatnonzero(cross)
        ca, cb = a[:, at], b[:, at]
        s = (near - ca[2]) / (cb[2] - ca[2])
        moved = (ca + s * (cb - ca))[:, np.maximum(np.cumsum(cross) - 1, 0)]  # per row of a
        a, b = backend.where(a_in, a, moved), backend.where(b_in, b, moved)
    return live, a, b


def clip_box(a, d, lo, hi, backend):
    """Liang-Barsky clip of the segments a + s d, 0 <= s <= 1, to the box
    lo <= p <= hi.

    ``a`` and ``d`` are (2, N) backend arrays of points and directions,
    ``lo`` and ``hi`` per-axis bounds that their rows take as operands
    (ints, or arrays of the backend).  Returns the span [s0, s1] of each
    segment inside the box and whether the segment meets it (s0 <= s1, so
    a segment touching the box gets an empty span).  On each axis the
    crossings are (lo - a) / d and (hi - a) / d, swapped where d < 0; a
    flat axis (d == 0) is a containment test.  A segment already outside
    divides by 1 on later axes, so no division runs that a clip stopping at
    the first failed test would skip.
    """
    s0 = backend.constant(0)
    s1 = one = backend.constant(1)
    meets = True
    for k, (lo_k, hi_k) in enumerate(zip(lo, hi)):
        a_k, d_k = a[k], d[k]
        to_lo, to_hi = lo_k - a_k, hi_k - a_k
        flat = d_k == 0
        meets = meets & ~(flat & ((to_lo > 0) | (to_hi < 0)))
        step = backend.where(flat | ~meets, one, d_k)
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
