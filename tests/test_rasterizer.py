"""Tests for the edge-ID codec, the software renderer, and visibility."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgetrack.rasterizer as rasterizer
from edgetrack.geometry import (
    CameraIntrinsics,
    PoseSE3,
    WireframeModel,
    look_at_pose,
    pose_words,
    project_cam,
)
from edgetrack.imaging import ColorImage, GrayImage
from edgetrack.rasterizer import (
    BACKGROUND,
    DEPTH_BIAS,
    MAX_EDGE_ID,
    NEAR_PLANE_MM,
    CapacityError,
    IdBuffer,
    depth_buffer_to_image,
    encode_id_array,
    id_buffer_to_image,
    is_point_visible,
    render_depth_buffer,
    render_id_buffer,
    _camera_points,
    _face_depth,
    _triangles,
)
from edgetrack.realmath import FloatBackend

from conftest import (
    decode_ids,
    pinhole,
    project_np,
    random_convex_model,
    random_orbit_pose,
    silhouette_edge_ids,
    visibility_oracle,
)


def assert_same_bytes(got, want):
    """got holds want's values bit for bit, want taken in got's dtype (the
    reference fill keeps its owners as int32)."""
    want = np.asarray(want).astype(got.dtype, copy=False)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Codec.

def test_encode_examples():
    ids = [0, 31, 100, 32766]
    want = [(0, 0, 8), (0, 8, 0), (0, 24, 40), (248, 248, 248)]
    assert encode_id_array(ids).tolist() == [list(c) for c in want]
    assert encode_id_array(100).tolist() == [0, 24, 40]


def test_encode_capacity():
    for bad in (32767, -1):
        with pytest.raises(CapacityError):
            encode_id_array(bad)
        with pytest.raises(CapacityError):
            encode_id_array([3, bad])
    assert encode_id_array(np.zeros(0, dtype=int)).shape == (0, 3)


def _encode_scalar(i):
    """One edge ID to an (R, G, B) colour, channel by channel in Python ints:
    B = (i + 1) * 8, each channel's overflow carried into the next as a
    multiple of 8."""
    b = (i + 1) * 8
    g = (b // 256) * 8
    r = (g // 256) * 8
    return (r % 256, g % 256, b % 256)


def test_encode_id_array_matches_scalar():
    ids = np.arange(32767)
    assert np.array_equal(encode_id_array(ids), np.array([_encode_scalar(int(i)) for i in ids]))
    assert encode_id_array(np.zeros(0, dtype=int)).shape == (0, 3)
    for bad in (-1, 32767):
        with pytest.raises(CapacityError):
            encode_id_array([3, bad])


def test_decode_examples():
    colors = np.array([(0, 0, 8), (0, 0, 0), (248, 248, 248)], dtype=np.uint8)
    assert decode_ids(colors).tolist() == [0, BACKGROUND, 32766]


def test_codec_round_trip_exhaustive():
    ids = np.arange(MAX_EDGE_ID + 1)
    colors = encode_id_array(ids)
    assert colors.dtype == np.uint8 and colors.shape == (MAX_EDGE_ID + 1, 3)
    assert not (colors % 8).any()
    assert np.array_equal(decode_ids(colors), ids)


# ---------------------------------------------------------------------------
# Rendering.

def single_triangle_model():
    return WireframeModel(
        vertices=np.array([[-20.0, -15.0, 0.0], [20.0, -15.0, 0.0], [0.0, 20.0, 0.0]]),
        faces=np.array([[0, 1, 2]]),
        edges=np.array([[0, 1], [0, 2], [1, 2]]),
    )


def face_on_pose(distance=200.0):
    return look_at_pose((0.0, 0.0, -distance))


def present_ids(id_buf):
    return set(int(i) for i in np.unique(id_buf.ids)) - {BACKGROUND}


def test_single_triangle_all_edges_present(qvga_camera):
    id_buf = render_id_buffer(single_triangle_model(), face_on_pose(), qvga_camera)
    depth_buf = render_depth_buffer(single_triangle_model(), face_on_pose(), qvga_camera)
    assert present_ids(id_buf) == {0, 1, 2}
    assert np.isfinite(depth_buf.depth).any()


def test_model_behind_camera_empty(qvga_camera):
    pose = PoseSE3(omega=np.zeros(3), t=np.array([0.0, 0.0, -500.0]))
    id_buf = render_id_buffer(single_triangle_model(), pose, qvga_camera)
    depth_buf = render_depth_buffer(single_triangle_model(), pose, qvga_camera)
    assert not present_ids(id_buf)
    assert not np.isfinite(depth_buf.depth).any()


def test_cube_face_on_front_edges_visible_rear_hidden(cube_model, qvga_camera):
    id_buf = render_id_buffer(cube_model, face_on_pose(), qvga_camera)
    depth_buf = render_depth_buffer(cube_model, face_on_pose(), qvga_camera)
    ids = present_ids(id_buf)
    # Cube edge order: front ring 0-3, rear ring 4-7, connecting edges 8-11.
    assert {0, 1, 2, 3} <= ids
    assert not ids & {4, 5, 6, 7}
    # Front face plane sits 170 mm from the camera at distance 200.
    assert abs(float(np.min(depth_buf.depth[np.isfinite(depth_buf.depth)])) - 170.0) < 2.0


def test_all_rendered_ids_valid(cube_model, qvga_camera):
    rng = np.random.default_rng(52)
    for _ in range(5):
        pose = random_orbit_pose(rng)
        id_buf = render_id_buffer(cube_model, pose, qvga_camera)
        ids = present_ids(id_buf)
        assert all(0 <= i < len(cube_model.edges) for i in ids)
        # Channel levels of drawn pixels are always multiples of 8.
        assert not np.any(id_buffer_to_image(id_buf).pixels % 8)


def test_render_deterministic(cube_model, qvga_camera):
    pose = random_orbit_pose(np.random.default_rng(53))
    a_id, b_id = (render_id_buffer(cube_model, pose, qvga_camera) for _ in range(2))
    a_depth, b_depth = (render_depth_buffer(cube_model, pose, qvga_camera) for _ in range(2))
    assert np.array_equal(a_id.ids, b_id.ids)
    assert np.array_equal(a_depth.depth, b_depth.depth)


def test_near_plane_crossing_edge_clipped(qvga_camera):
    # One triangle vertex far behind the camera; the renderer must not crash
    # and must still draw the in-front part of the crossing edges.
    model = WireframeModel(
        vertices=np.array([[-20.0, 0.0, 50.0], [20.0, 0.0, 50.0], [0.0, 10.0, -50.0]]),
        faces=np.array([[0, 1, 2]]),
        edges=np.array([[0, 1], [0, 2], [1, 2]]),
    )
    pose = PoseSE3(omega=np.zeros(3), t=np.zeros(3))
    id_buf = render_id_buffer(model, pose, qvga_camera)
    assert 0 in present_ids(id_buf)


# References: the full-image z-fill and the per-pixel edge loop that
# render_id_buffer and render_depth_buffer must match byte for byte.

def clip_polygon_near(points_cam):
    """Sutherland-Hodgman clip of a camera-space polygon against z >= near."""
    out = []
    n = len(points_cam)
    for i in range(n):
        a, b = points_cam[i], points_cam[(i + 1) % n]
        a_in, b_in = a[2] >= NEAR_PLANE_MM, b[2] >= NEAR_PLANE_MM
        if a_in:
            out.append(a)
        if a_in != b_in:
            s = (NEAR_PLANE_MM - a[2]) / (b[2] - a[2])
            out.append(a + s * (b - a))
    return out


def clip_segment_near(a, b):
    """Clip a camera-space segment against z >= near; None when fully behind."""
    a_in, b_in = a[2] >= NEAR_PLANE_MM, b[2] >= NEAR_PLANE_MM
    if not a_in and not b_in:
        return None
    if a_in and b_in:
        return a, b
    s = (NEAR_PLANE_MM - a[2]) / (b[2] - a[2])
    cross = a + s * (b - a)
    return (cross, b) if not a_in else (a, cross)


def fill_triangle(depth, owner, face_index, pts, K):
    """Depth fill of one camera-space triangle, pixel centers at ints;
    ``owner`` records the face holding each pixel's nearest depth."""
    uv = [pinhole(p, K) for p in pts]
    inv_z = [1.0 / p[2] for p in pts]
    (x0, y0), (x1, y1), (x2, y2) = uv
    area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if area == 0.0:
        return
    h, w = depth.shape
    xs_min = max(0, math.ceil(min(x0, x1, x2)))
    xs_max = min(w - 1, math.floor(max(x0, x1, x2)))
    ys_min = max(0, math.ceil(min(y0, y1, y2)))
    ys_max = min(h - 1, math.floor(max(y0, y1, y2)))
    if xs_min > xs_max or ys_min > ys_max:
        return
    xs = np.arange(xs_min, xs_max + 1, dtype=np.float64)
    ys = np.arange(ys_min, ys_max + 1, dtype=np.float64)[:, None]
    e12 = (x2 - x1) * (ys - y1) - (y2 - y1) * (xs - x1)
    e20 = (x0 - x2) * (ys - y2) - (y0 - y2) * (xs - x2)
    e01 = (x1 - x0) * (ys - y0) - (y1 - y0) * (xs - x0)
    if area > 0.0:
        mask = (e12 >= 0.0) & (e20 >= 0.0) & (e01 >= 0.0)
    else:
        mask = (e12 <= 0.0) & (e20 <= 0.0) & (e01 <= 0.0)
    if not mask.any():
        return
    inv_z_px = (e12 * inv_z[0] + e20 * inv_z[1] + e01 * inv_z[2]) / area
    with np.errstate(divide="ignore"):
        z = 1.0 / inv_z_px
    region = depth[ys_min:ys_max + 1, xs_min:xs_max + 1]
    owner_region = owner[ys_min:ys_max + 1, xs_min:xs_max + 1]
    write = mask & (z < region)
    region[write] = z[write]
    owner_region[write] = face_index


def reference_fill(model, cam, K):
    """Every face clipped, fan-triangulated and z-filled over the image;
    cam holds the camera-space vertices, (3, V)."""
    depth = np.full((K.height, K.width), np.inf)
    owner = np.full((K.height, K.width), -1, dtype=np.int32)
    for fi, f in enumerate(model.faces):
        poly = clip_polygon_near([cam[:, f[0]], cam[:, f[1]], cam[:, f[2]]])
        for j in range(1, len(poly) - 1):
            fill_triangle(depth, owner, fi, [poly[0], poly[j], poly[j + 1]], K)
    return depth, owner


def reference_render(model, pose, K):
    """Edge IDs and depths from the full z-fill and a per-pixel edge loop,
    on the renderer's camera points: this checks rasterization, not the
    transform."""
    cam = _camera_points(model, pose)
    depth, owner = reference_fill(model, cam, K)
    ids = np.full((K.height, K.width), BACKGROUND)
    edge_depth = np.full((K.height, K.width), np.inf)
    for i, own_faces in enumerate(model.edge_faces):
        seg = clip_segment_near(cam[:, model.edges[i][0]], cam[:, model.edges[i][1]])
        if seg is None:
            continue
        a, b = seg
        ua, va = K.fx * a[0] / a[2] + K.cx, K.fy * a[1] / a[2] + K.cy
        ub, vb = K.fx * b[0] / b[2] + K.cx, K.fy * b[1] / b[2] + K.cy
        steps = max(1, math.ceil(max(abs(ub - ua), abs(vb - va))))
        last = None
        for k in range(steps + 1):
            s = k / steps
            x = math.floor(ua + s * (ub - ua) + 0.5)
            y = math.floor(va + s * (vb - va) + 0.5)
            if (x, y) == last:
                continue
            last = (x, y)
            if not (0 <= x < K.width and 0 <= y < K.height):
                continue
            z = 1.0 / (1.0 / a[2] + s * (1.0 / b[2] - 1.0 / a[2]))
            passes = owner[y, x] in own_faces or z <= depth[y, x] * (1.0 + DEPTH_BIAS)
            if passes and z < edge_depth[y, x]:
                edge_depth[y, x] = z
                ids[y, x] = i
    return ids, depth


def reference_scenes(cube_model, rng):
    """The near-plane triangle, cube orbit poses, cameras inside or beside
    random models, and an orbit of a 44-face random model."""
    near_triangle = WireframeModel(
        vertices=np.array([[-20.0, 0.0, 50.0], [20.0, 0.0, 50.0], [0.0, 10.0, -50.0]]),
        faces=np.array([[0, 1, 2]]),
        edges=np.array([[0, 1], [0, 2], [1, 2]]),
    )
    scenes = [(near_triangle, PoseSE3(omega=np.zeros(3), t=np.zeros(3)))]
    scenes += [(cube_model, random_orbit_pose(rng)) for _ in range(3)]
    # Cameras 5-40 mm from the center: inside or beside the model, so
    # edges cross the near plane.
    for _ in range(6):
        model = random_convex_model(rng)
        center = rng.normal(size=3)
        center *= rng.uniform(5.0, 40.0) / np.linalg.norm(center)
        scenes.append((model, look_at_pose(center, rng.normal(size=3), down=rng.normal(size=3))))
    model = random_convex_model(rng, n_points=24)
    assert len(model.faces) >= 40
    scenes += [(model, random_orbit_pose(rng, (60.0, 200.0))) for _ in range(6)]
    return scenes


def test_render_matches_per_pixel_reference(cube_model, qvga_camera):
    for model, pose in reference_scenes(cube_model, np.random.default_rng(56)):
        ids, depth = reference_render(model, pose, qvga_camera)
        assert np.array_equal(render_id_buffer(model, pose, qvga_camera).ids, ids)
        assert_same_bytes(render_depth_buffer(model, pose, qvga_camera).depth, depth)


def test_triangles_match_per_face_clip(cube_model, monkeypatch):
    # The near-plane triangle, the corridor and cameras inside or beside
    # random models: the crossing faces, clipped in one array call, give
    # the triangles of a per-face Sutherland-Hodgman clip and fan, value
    # for value and in order.
    from test_harness import corridor_scene

    rng = np.random.default_rng(57)
    scenes = reference_scenes(cube_model, rng)[:1] + [corridor_scene()]
    for _ in range(20):
        model = random_convex_model(rng)
        center = rng.normal(size=3)
        center *= rng.uniform(2.0, 40.0) / np.linalg.norm(center)
        scenes.append((model, look_at_pose(center, rng.normal(size=3), down=rng.normal(size=3))))
    crossing = 0
    for model, pose in scenes:
        cam = _camera_points(model, pose)
        front = cam[2, model.faces] >= NEAR_PLANE_MM
        crossing += np.count_nonzero(front.any(axis=1) & ~front.all(axis=1))
        want_tris, want_faces = [], []
        for fi, f in enumerate(model.faces):
            poly = clip_polygon_near([cam[:, f[0]], cam[:, f[1]], cam[:, f[2]]])
            for j in range(1, len(poly) - 1):
                want_tris.append([poly[0], poly[j], poly[j + 1]])
                want_faces.append(fi)
        tris, faces = _triangles(model, cam)
        order = np.argsort(faces, kind="stable")  # whole faces come first
        assert np.array_equal(faces[order], want_faces)
        assert np.array_equal(tris[:, order], np.moveaxis(np.array(want_tris), 2, 0))
    assert crossing >= 40

    # With no face crossing the plane, as on every orbit pose, no clip runs.
    def no_clip(*args):
        raise AssertionError("clip_near called with no crossing face")

    monkeypatch.setattr(rasterizer, "clip_near", no_clip)
    for _ in range(5):
        pose = random_orbit_pose(rng)
        cam = _camera_points(cube_model, pose)
        tris, faces = _triangles(cube_model, cam)
        assert np.array_equal(tris, cam[:, cube_model.faces]) and faces.tolist() == list(range(12))


# A 32x24 camera for the coplanar-tie scenes.
TIE_CAMERA = CameraIntrinsics(fx=40.0, fy=40.0, cx=16.0, cy=12.0, width=32, height=24)


def coplanar_tie_scenes():
    """Coplanar faces at equal depth, seen from two poses: a quad split
    along its diagonal (the diagonal's pixels lie in both halves), the same
    triangle listed twice with either winding, and a larger triangle in the
    same plane under both."""
    vertices = np.array([
        [-4.0, -3.0, 10.0], [4.0, -3.0, 10.0], [4.0, 3.0, 10.0], [-4.0, 3.0, 10.0],
        [-6.0, -5.0, 10.0], [6.0, -5.0, 10.0], [0.0, 5.0, 10.0],
        [-3.0, -2.0, 8.0], [3.0, 2.0, 12.0], [-3.0, 2.0, 10.0],
    ])
    faces = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [1, 0, 2], [7, 8, 9], [3, 2, 0]])
    model = WireframeModel(vertices=vertices, faces=faces, edges=np.array([[0, 1], [1, 2]]))
    return [(model, PoseSE3(omega=np.zeros(3), t=np.zeros(3))),
            (model, PoseSE3(omega=np.array([0.1, -0.2, 0.05]), t=np.array([0.5, -0.3, 2.0])))]


def test_face_depth_owner_ties_go_to_lower_face():
    # The depth query must give every pixel of the coplanar-tie scenes the
    # nearest depth and, on a tie, the lower face index, as the ordered
    # fill does.
    K = TIE_CAMERA
    for model, pose in coplanar_tie_scenes():
        vertices, faces = model.vertices, model.faces
        cam = _camera_points(model, pose)
        depth, owner = reference_fill(model, cam, K)
        got_depth, got_owner = _face_depth(model, cam, K, np.arange(K.width * K.height))
        assert_same_bytes(got_depth, depth.ravel())
        assert_same_bytes(got_owner, owner.ravel())
        # Ties really occur: pixels where two faces reach the nearest depth.
        alone = [reference_fill(WireframeModel(vertices, faces[[fi]], np.zeros((0, 2))), cam, K)[0]
                 for fi in range(len(faces))]
        tied = np.sum([d == depth for d in alone], axis=0) >= 2
        assert np.count_nonzero(tied & np.isfinite(depth)) >= 20


# ---------------------------------------------------------------------------
# Rendering at chosen pixels: each against the full render read there.

def traced_pixels(id_buf, K):
    """Sorted distinct flat indices of the on-image pixels the buffer's
    trace steps on."""
    tr = id_buf.trace
    on = (tr.x >= 0) & (tr.x < K.width) & (tr.y >= 0) & (tr.y < K.height)
    return np.unique(tr.y[on] * K.width + tr.x[on])


def tracker_read_pixels(model, pose, K):
    """The pixels collect_measurements asks its one ID render for at pose."""
    from edgetrack.realmath import get_backend
    from edgetrack.pose_estimation import TrackerConfig
    from edgetrack.tracking import InsufficientMeasurementsError, collect_measurements

    asked = []

    def render(pixels):
        asked.append(pixels)
        return render_id_buffer(model, pose, K, pixels)

    blank = GrayImage(np.full((K.height, K.width), 255, dtype=np.uint8))
    be = get_backend("float")
    with pytest.raises(InsufficientMeasurementsError):  # a blank frame matches nothing
        collect_measurements(model, *pose_words(pose, be), K, blank, render, TrackerConfig(), be)
    assert len(asked) == 1
    return asked[0]


def check_render_at(model, pose, K, pixels):
    """The render at pixels holds the full render's IDs there and
    background everywhere else."""
    full = render_id_buffer(model, pose, K).ids.ravel()
    want = np.full_like(full, BACKGROUND)
    want[pixels] = full[pixels]
    assert np.array_equal(render_id_buffer(model, pose, K, pixels).ids.ravel(), want)


def subset_scenes(cube_model, icosphere_model, rng):
    """The 60-frame cube and icosphere orbits, the corridor, and the
    reference scenes: the near-plane triangle, cube orbit poses and random
    convex models with the camera outside, inside or beside them."""
    from edgetrack.harness import standard_trajectory
    from test_harness import corridor_scene

    traj = standard_trajectory()
    scenes = [(m, traj.pose(k)) for m in (cube_model, icosphere_model) for k in range(traj.frames)]
    return scenes + [corridor_scene()] + reference_scenes(cube_model, rng)


def test_render_at_tracker_pixels_matches_full_render(cube_model, icosphere_model, qvga_camera):
    K = qvga_camera
    rng = np.random.default_rng(58)
    asked_share = []
    for model, pose in subset_scenes(cube_model, icosphere_model, rng):
        pixels = tracker_read_pixels(model, pose, K)
        check_render_at(model, pose, K, pixels)
        traced = traced_pixels(render_id_buffer(model, pose, K), K)
        if model is cube_model and len(traced):
            asked_share.append(np.isin(traced, pixels).mean())
        # Random pixel sets, traced or not, with gaps between their rows.
        for share in (0.05, 0.5):
            pick = rng.random(len(traced)) < share
            extra = rng.integers(0, K.width * K.height, 40)
            check_render_at(model, pose, K, np.union1d(traced[pick], extra))
    # The tracker reads about a third of a cube frame's traced pixels.
    assert 0.1 < np.mean(asked_share) < 0.5


def test_render_at_no_traced_pixel_is_background(cube_model, qvga_camera):
    K = qvga_camera
    pose = random_orbit_pose(np.random.default_rng(59))
    full = render_id_buffer(cube_model, pose, K)
    traced = traced_pixels(full, K)
    assert len(traced) > 100
    untraced = np.setdiff1d(np.arange(K.width * K.height), traced)[::7]
    for pixels in (np.zeros(0, dtype=np.int64), untraced):
        buf = render_id_buffer(cube_model, pose, K, pixels)
        assert (buf.ids == BACKGROUND).all()
        assert not id_buffer_to_image(buf).pixels.any()
    # Untraced pixels next to traced ones change nothing.
    check_render_at(cube_model, pose, K, np.union1d(traced[::3], untraced))


def test_face_depth_at_sparse_rows_matches_depth_buffer(cube_model, qvga_camera):
    # Pixel sets whose rows have gaps: the row enumeration skips the rows
    # that hold no pixel and must still pair every pixel with every
    # triangle whose bounding box holds it.
    K = qvga_camera
    rng = np.random.default_rng(60)
    n = K.width * K.height
    for model, pose in reference_scenes(cube_model, rng):
        cam = _camera_points(model, pose)
        depth = render_depth_buffer(model, pose, K).depth.ravel()
        _, owner = _face_depth(model, cam, K, np.arange(n))
        rows = np.sort(rng.choice(K.height, 12, replace=False))
        in_rows = (np.arange(n) // K.width)[:, None] == rows
        for pixels in (np.flatnonzero(in_rows.any(axis=1)),
                       np.unique(rng.integers(0, n, 300)),
                       np.array([rng.integers(0, n)])):
            got_depth, got_owner = _face_depth(model, cam, K, pixels)
            assert_same_bytes(got_depth, depth[pixels])
            assert_same_bytes(got_owner, owner[pixels])


def face_depth_by(enumeration, model, pose, K, pixels, monkeypatch):
    """_face_depth's (depth, owner) bytes with every query sent to one
    enumeration: "mask" or "spans"."""
    monkeypatch.setattr(rasterizer, "_MASK_GRID", 1 << 62 if enumeration == "mask" else 0)
    cam = _camera_points(model, pose)
    depth, owner = _face_depth(model, cam, K, pixels)
    return depth.tobytes(), owner.tobytes()


# A 64x48 camera whose projections of points at z = 250, 500 or 1000 mm
# are exact: u = 500 x / z + 32 is x doubled, kept or halved, shifted.
EXACT_CAMERA = CameraIntrinsics(fx=500.0, fy=500.0, cx=32.0, cy=24.0, width=64, height=48)


def exact_triangles(corners, depths):
    """A model of one triangle per entry of corners, whose projections
    through EXACT_CAMERA at the identity pose are the given (u, v) image
    points, at the given depths."""
    K = EXACT_CAMERA
    vertices = [[(u - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z]
                for tri, z in zip(corners, depths) for u, v in tri]
    faces = np.arange(len(vertices)).reshape(-1, 3)
    model = WireframeModel(vertices=np.array(vertices), faces=faces,
                           edges=np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]]]))
    pose = PoseSE3(omega=np.zeros(3), t=np.zeros(3))
    u, v = project_cam(_camera_points(model, pose), K.to_backend(FloatBackend()))
    assert np.array_equal(u, np.ravel(corners)[0::2]) and np.array_equal(v, np.ravel(corners)[1::2])
    return model, pose


def sliver_scene():
    """Thin and nearly degenerate triangles over a few wide ones: one px or
    less tall across the image, 1/128 px wide down it, nearly collinear,
    and with every vertex on a pixel center, so edge functions vanish
    exactly at pixels; then triangles whose span bounds need their float
    margin."""
    corners = [
        [(2.0, 10.0), (60.0, 10.5), (30.0, 11.0)],
        [(1.0, 20.0), (62.0, 21.0), (62.0, 20.0)],
        [(5.0, 1.0), (5.0 + 2.0 ** -7, 46.0), (5.0, 46.0)],
        [(40.0, 2.0), (40.0, 45.0), (40.0 + 2.0 ** -30, 23.5)],
        [(0.0, 0.0), (63.0, 47.0), (31.5, 23.5 + 2.0 ** -40)],
        [(3.0, 3.0), (60.0, 30.0), (9.0, 40.0)],
        [(62.0, 1.0), (10.0, 12.0), (33.0, 46.0)],
        [(10.0, 30.0), (50.0, 30.0), (30.0, 30.0 + 2.0 ** -44)],
        # On one row each, the float bound of an edge falls a few ulp
        # inside a vertex's pixel, which the test passes with a zero edge
        # function; only the widening keeps that pixel in the span.
        [(1.0, 25.0), (33.0, 27.0), (64.0 / 3.0, 12.0000000000001)],
        [(13.99999999999909, 23.1), (0.0, 29.0), (39.0, 24.0)],
        [(32.00000000000091, 18.1), (9.0, 47.0), (6.0, 35.0)],
        [(37.7, 22.7), (19.0, 37.0), (42.0, 14.0)],
    ]
    return exact_triangles(corners, [500.0, 250.0, 1000.0, 500.0, 250.0, 1000.0, 500.0, 250.0]
                           + [500.0] * 4)


def flat_edge_scenes():
    """Triangles with one edge whose rise |dy| lies at, just inside and
    just outside the span walk's cutoff for nearly horizontal edges, and
    at twice and half of it, with the edge on a pixel row or across one,
    in either winding."""
    cut = rasterizer._FLAT_DY
    rises = [cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0), 2.0 * cut, 0.5 * cut, 0.0]
    scenes = []
    for y0 in (20.0, 20.0 - cut / 2.0):
        corners = []
        for d in rises:
            corners += [[(4.0, y0), (61.0, y0 + d), (30.0, 40.0)],
                        [(61.0, y0 - d), (4.0, y0), (20.0, 3.0)]]
        scenes.append(exact_triangles(corners, [500.0, 250.0] * len(rises)))
    return scenes


def test_face_depth_enumerations_agree(cube_model, icosphere_model, qvga_camera, monkeypatch):
    # The bounding-box mask is the oracle of the span walk: both give the
    # same depth and owner bytes on pixel sets on both sides of the size
    # rule: one pixel, the rows of a sparse row set, a tracker's read
    # pixels and a full image (of a quarter-size camera, which keeps the
    # mask small); on every icosphere synthesis query of the standard
    # orbit; and on full images of slivers, of edges with |dy| around the
    # walk's cutoff, of the near-plane-crossing corridor and of the
    # coplanar-tie scenes.
    from edgetrack.harness import standard_trajectory
    from test_harness import corridor_scene

    rule = rasterizer._MASK_GRID
    K = qvga_camera
    small = CameraIntrinsics(fx=125.0, fy=125.0, cx=40.0, cy=30.0, width=80, height=60)
    rng = np.random.default_rng(61)
    n = K.width * K.height
    scenes = reference_scenes(cube_model, rng) + [corridor_scene()]
    sides = set()
    for model, pose in scenes:
        rows = np.sort(rng.choice(K.height, 12, replace=False))
        in_rows = (np.arange(n) // K.width)[:, None] == rows
        queries = [(K, np.array([rng.integers(0, n)])),
                   (K, np.flatnonzero(in_rows.any(axis=1))),
                   (small, np.arange(small.width * small.height)),
                   (K, tracker_read_pixels(model, pose, K))]
        for camera, pixels in queries:
            assert (face_depth_by("mask", model, pose, camera, pixels, monkeypatch)
                    == face_depth_by("spans", model, pose, camera, pixels, monkeypatch))
            cam = _camera_points(model, pose)
            sides.add(len(_triangles(model, cam)[1]) * len(pixels) < rule)
    assert sides == {True, False}

    traj = standard_trajectory()
    for k in range(traj.frames):
        pose = traj.pose(k)
        pixels = traced_pixels(render_id_buffer(icosphere_model, pose, K), K)
        assert (face_depth_by("mask", icosphere_model, pose, K, pixels, monkeypatch)
                == face_depth_by("spans", icosphere_model, pose, K, pixels, monkeypatch))

    exact = [(EXACT_CAMERA, scene) for scene in [sliver_scene()] + flat_edge_scenes()]
    whole = [(small, corridor_scene())] + [(TIE_CAMERA, scene) for scene in coplanar_tie_scenes()]
    for camera, (model, pose) in exact + whole:
        pixels = np.arange(camera.width * camera.height)
        assert (face_depth_by("mask", model, pose, camera, pixels, monkeypatch)
                == face_depth_by("spans", model, pose, camera, pixels, monkeypatch))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), inside=st.booleans(), share=st.floats(0.02, 1.0))
def test_face_depth_spans_match_mask_on_random_models(seed, inside, share):
    # Random convex models seen from outside (orbit poses) or from a camera
    # inside or beside them, whose faces cross the near plane; the query is
    # a random share of a 64x48 image.
    rule = rasterizer._MASK_GRID
    rng = np.random.default_rng(seed)
    model = random_convex_model(rng, n_points=int(rng.integers(6, 30)))
    if inside:
        center = rng.normal(size=3)
        center *= rng.uniform(2.0, 40.0) / np.linalg.norm(center)
        pose = look_at_pose(center, rng.normal(size=3), down=rng.normal(size=3))
    else:
        pose = random_orbit_pose(rng, (40.0, 300.0))
    K = EXACT_CAMERA
    pixels = np.flatnonzero(rng.random(K.width * K.height) < share)
    cam = _camera_points(model, pose)
    got = []
    for grid in (1 << 62, 0):  # the mask, then the span walk
        rasterizer._MASK_GRID = grid
        try:
            depth, owner = _face_depth(model, cam, K, pixels)
        finally:
            rasterizer._MASK_GRID = rule
        got.append((depth.tobytes(), owner.tobytes()))
    assert got[0] == got[1]


def guard_scene(vertices):
    """A model of one triangle per three camera-space vertices, at the
    identity pose."""
    faces = np.arange(len(vertices)).reshape(-1, 3)
    model = WireframeModel(vertices=np.array(vertices, dtype=float), faces=faces,
                           edges=faces[:, :2])
    return model, PoseSE3(omega=np.zeros(3), t=np.zeros(3))


def test_span_walk_leaves_subnormal_rises_to_the_pixel_test(monkeypatch):
    # Two vertices a subnormal distance apart in y, on row 0 of a camera
    # that projects camera-space points at z = 1 unchanged.  On the edge
    # between them the per-pair test's product dy * (x - x_r) underflows
    # to 0 at pixel (9, 0), which passes with a zero edge function though
    # it lies 0.3 px outside the exact edge; that edge's span bound would
    # drop it.  Below _FLAT_DY an edge bounds no span, so the walk keeps it.
    s = 5e-324
    K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=32, height=8)
    model, pose = guard_scene([(9.3, 0.0, 1.0), (8.9, s, 1.0), (20.0, 0.0, 1.0)])
    pixels = np.arange(K.width * K.height)
    mask = face_depth_by("mask", model, pose, K, pixels, monkeypatch)
    assert np.frombuffer(mask[1], dtype=np.int64)[9] == 0
    assert face_depth_by("spans", model, pose, K, pixels, monkeypatch) == mask


def test_span_walk_agrees_beyond_the_coordinate_cutoff(monkeypatch):
    # Triangles with a vertex far off-axis just beyond the near plane, one
    # in front of it and one clipped onto it, project to |u| of about
    # 5e19 px, above 2**60.  Their span bounds come from those coordinates
    # and drop no pixel the per-pair test passes: the walk agrees with the
    # mask, as it does on random triangles with coordinates up to 1e308.
    model, pose = guard_scene([(0.0, -30.0, 250.0), (0.0, 30.0, 250.0),
                               (1e17, 0.0, 1.0 + 2.0 ** -40), (-10.0, -30.0, 250.0),
                               (-10.0, 30.0, 250.0), (-1e17, 5.0, 0.5)])
    K = EXACT_CAMERA
    cam = _camera_points(model, pose)
    u = project_cam(_triangles(model, cam)[0].reshape(3, -1), K.to_backend(FloatBackend()))[0]
    assert (np.abs(u.reshape(-1, 3)).max(axis=1) > 2.0 ** 60).all()  # every triangle's rows
    pixels = np.arange(K.width * K.height)
    mask = face_depth_by("mask", model, pose, K, pixels, monkeypatch)
    assert set(np.frombuffer(mask[1], dtype=np.int64)) == {-1, 0, 1}
    assert face_depth_by("spans", model, pose, K, pixels, monkeypatch) == mask


def test_face_depth_overflow_raises_no_warning_and_owns_no_pixel(qvga_camera, monkeypatch):
    # A camera-space vertex at (1e300, 1e300, 1) through a 500-px focal
    # length: the row terms, the span bounds and the edge functions
    # overflow, on both enumerations and on a full QVGA depth render (a
    # span walk).  No warning is raised, and the triangle owns no pixel:
    # the edge function from the far vertex is inf - inf at every pixel.
    model, pose = guard_scene([(-10.0, -10.0, 100.0), (10.0, -10.0, 100.0), (1e300, 1e300, 1.0)])
    K = CameraIntrinsics(fx=500.0, fy=500.0, cx=32.0, cy=24.0, width=64, height=48)
    pixels = np.arange(K.width * K.height)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for enumeration in ("mask", "spans"):
            depth, owner = face_depth_by(enumeration, model, pose, K, pixels, monkeypatch)
            assert not np.isfinite(np.frombuffer(depth)).any()
            assert (np.frombuffer(owner, dtype=np.int64) == -1).all()
        monkeypatch.undo()
        assert not np.isfinite(render_depth_buffer(model, pose, qvga_camera).depth).any()


def pairs_tested(enumeration, model, pose, K, pixels, monkeypatch):
    """The (triangle, pixel) pairs _face_depth tests when every query goes
    to one enumeration: "mask" or "spans"."""
    count = []
    if enumeration == "mask":
        mask = rasterizer._box_mask_pairs

        def counted(*args):
            t, p = mask(*args)
            count.append(len(t))
            return t, p
        monkeypatch.setattr(rasterizer, "_box_mask_pairs", counted)
    else:
        spans = rasterizer._span_pairs

        def counted(*args):
            for t, p, terms in spans(*args):
                count.append(len(t))
                yield t, p, terms
        monkeypatch.setattr(rasterizer, "_span_pairs", counted)
    face_depth_by(enumeration, model, pose, K, pixels, monkeypatch)
    monkeypatch.undo()
    return sum(count)


def test_span_walk_tests_only_covered_pixels(icosphere_model, qvga_camera, monkeypatch):
    # On icosphere synthesis frames of the standard orbit the boxes hold
    # about 17,000 pairs a frame and about 7,050 pass; the span walk tests
    # those and at most a few more, at float margins.
    from edgetrack.harness import standard_trajectory

    traj = standard_trajectory()
    frames = range(0, traj.frames, 6)
    box = spans = 0
    for k in frames:
        pose = traj.pose(k)
        pixels = traced_pixels(render_id_buffer(icosphere_model, pose, qvga_camera), qvga_camera)
        box += pairs_tested("mask", icosphere_model, pose, qvga_camera, pixels, monkeypatch)
        spans += pairs_tested("spans", icosphere_model, pose, qvga_camera, pixels, monkeypatch)
    assert 16_000 < box / len(frames) < 18_000
    assert 6_900 < spans / len(frames) < 7_200


def test_size_rule_masks_cube_queries_and_walks_icosphere_spans(
        cube_model, icosphere_model, qvga_camera, monkeypatch):
    # The cube tracker's query (12 triangles by ~330 pixels) and a cube
    # synthesis frame go to the mask; an icosphere synthesis frame (80
    # triangles by ~3700 pixels) walks the scanline spans.
    from edgetrack.harness import render_frame_gray, standard_trajectory

    used = []
    for name in ("_box_mask_pairs", "_span_pairs"):
        def wrapped(*args, _name=name, _f=getattr(rasterizer, name)):
            used.append(_name)
            return _f(*args)
        monkeypatch.setattr(rasterizer, name, wrapped)
    pose = standard_trajectory().pose(0)

    def enumerations(run):
        used.clear()
        run()
        return set(used)

    assert enumerations(lambda: tracker_read_pixels(cube_model, pose, qvga_camera)) == {
        "_box_mask_pairs"}
    assert enumerations(lambda: render_frame_gray(cube_model, pose, qvga_camera)) == {
        "_box_mask_pairs"}
    assert enumerations(lambda: render_frame_gray(icosphere_model, pose, qvga_camera)) == {
        "_span_pairs"}


# ---------------------------------------------------------------------------
# Point visibility against the buffer.

def edge_midpoint_px(model, edge_index, pose, K):
    e = model.edges[edge_index]
    mid = 0.5 * (model.vertices[e[0]] + model.vertices[e[1]])
    uv, z = project_np(mid[None, :], pose.rotation(), pose.t, K)
    return uv[0], mid, float(z[0])


def test_visible_point_on_front_edge(cube_model, qvga_camera):
    pose = face_on_pose()
    id_buf = render_id_buffer(cube_model, pose, qvga_camera)
    uv, mid, _ = edge_midpoint_px(cube_model, 0, pose, qvga_camera)
    assert is_point_visible(uv, 0, id_buf)
    assert visibility_oracle(cube_model, pose, mid)


def test_background_point_not_visible(cube_model, qvga_camera):
    pose = face_on_pose()
    id_buf = render_id_buffer(cube_model, pose, qvga_camera)
    assert not is_point_visible((5.0, 5.0), 0, id_buf)


def test_out_of_bounds_not_visible(cube_model, qvga_camera):
    pose = face_on_pose()
    id_buf = render_id_buffer(cube_model, pose, qvga_camera)
    assert not is_point_visible((-3.0, 10.0), 0, id_buf)
    assert not is_point_visible((1000.0, 10.0), 0, id_buf)


def test_occluded_rear_edge_not_visible(cube_model, qvga_camera):
    pose = face_on_pose()
    id_buf = render_id_buffer(cube_model, pose, qvga_camera)
    uv, mid, _ = edge_midpoint_px(cube_model, 4, pose, qvga_camera)
    assert not is_point_visible(uv, 4, id_buf)
    assert not visibility_oracle(cube_model, pose, mid)


def test_occluding_plane_blocks_edge(qvga_camera):
    # A large quad 100 mm in front of a small triangle blocks its edges.
    model = WireframeModel(
        vertices=np.array(
            [
                [-15.0, -15.0, 200.0], [15.0, -15.0, 200.0], [0.0, 15.0, 200.0],
                [-60.0, -60.0, 100.0], [60.0, -60.0, 100.0],
                [60.0, 60.0, 100.0], [-60.0, 60.0, 100.0],
            ]
        ),
        faces=np.array([[0, 1, 2], [3, 4, 5], [3, 5, 6]]),
        edges=np.array([[0, 1], [0, 2], [1, 2]]),
    )
    pose = PoseSE3(omega=np.zeros(3), t=np.zeros(3))
    id_buf = render_id_buffer(model, pose, qvga_camera)
    assert not present_ids(id_buf)
    mid = np.array([0.0, -15.0, 200.0])
    uv, _ = project_np(mid[None, :], pose.rotation(), pose.t, qvga_camera)
    assert not is_point_visible(uv[0], 0, id_buf)
    assert not visibility_oracle(model, pose, mid)


def test_neighborhood_tolerance_absorbs_quantization(cube_model, qvga_camera):
    rng = np.random.default_rng(54)
    pose = face_on_pose()
    id_buf = render_id_buffer(cube_model, pose, qvga_camera)
    uv, _, _ = edge_midpoint_px(cube_model, 0, pose, qvga_camera)
    for _ in range(20):
        jitter = rng.uniform(-0.49, 0.49, size=2)
        assert is_point_visible((uv[0] + jitter[0], uv[1] + jitter[1]), 0, id_buf)


# ---------------------------------------------------------------------------
# Buffer-vs-raycast agreement.

def test_oracle_agreement_random_scenes(qvga_camera):
    # Points exactly on the silhouette may legitimately report either state
    # and are excluded from the headline statistic; with them included the
    # agreement still has to stay high.
    rng = np.random.default_rng(55)
    agree = total = agree_sil = total_sil = 0
    for _ in range(3):
        model = random_convex_model(rng)
        for _ in range(5):
            pose = random_orbit_pose(rng)
            on_silhouette = silhouette_edge_ids(model, pose)
            id_buf = render_id_buffer(model, pose, qvga_camera)
            R, t = pose.rotation(), pose.t
            for i, e in enumerate(model.edges):
                a, b = model.vertices[e[0]], model.vertices[e[1]]
                for s in (0.25, 0.5, 0.75):
                    p3d = a + s * (b - a)
                    uv, z = project_np(p3d[None, :], R, t, qvga_camera)
                    u, v = uv[0]
                    if not (z[0] > 1.0 and 3 <= u < 317 and 3 <= v < 237):
                        continue
                    same = is_point_visible(uv[0], i, id_buf) == visibility_oracle(model, pose, p3d)
                    total_sil += 1
                    agree_sil += same
                    if i not in on_silhouette:
                        total += 1
                        agree += same
    assert total > 300
    assert agree / total >= 0.99
    assert agree_sil / total_sil >= 0.97


# ---------------------------------------------------------------------------
# Debug dumps.

def test_id_buffer_dump(cube_model, qvga_camera):
    id_buf = render_id_buffer(cube_model, face_on_pose(), qvga_camera)
    img = id_buffer_to_image(id_buf)
    assert isinstance(img, ColorImage)
    assert img.pixels.shape == (qvga_camera.height, qvga_camera.width, 3)
    assert np.array_equal(decode_ids(img.pixels), id_buf.ids)


def test_id_buffer_image_codes_every_id():
    buf = IdBuffer(4, 4)
    buf.ids[2, 1] = 7
    buf.ids[3, 3] = MAX_EDGE_ID  # the buffer's integers hold every ID
    pixels = id_buffer_to_image(buf).pixels
    assert np.array_equal(pixels[[2, 3], [1, 3]], encode_id_array([7, MAX_EDGE_ID]))
    assert np.array_equal(decode_ids(pixels), buf.ids)


def test_depth_buffer_dump(cube_model, qvga_camera):
    depth_buf = render_depth_buffer(cube_model, face_on_pose(), qvga_camera)
    img = depth_buffer_to_image(depth_buf)
    assert isinstance(img, GrayImage)
    finite = np.isfinite(depth_buf.depth)
    assert np.all(img.pixels[~finite] == 255)
    assert img.pixels[finite].min() == 0


def test_depth_dump_empty_buffer():
    from edgetrack.rasterizer import DepthBuffer

    img = depth_buffer_to_image(DepthBuffer(8, 8))
    assert np.all(img.pixels == 255)
