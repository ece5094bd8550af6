"""Tests for the edge-ID codec, the software renderer, and visibility."""

import math

import numpy as np
import pytest

from edgetrack.geometry import PoseSE3, WireframeModel, look_at_pose, project_np, transform_np
from edgetrack.imaging import ColorImage, GrayImage
from edgetrack.rasterizer import (
    BACKGROUND,
    DEPTH_BIAS,
    CapacityError,
    IdBuffer,
    decode_edge_id,
    decode_id_array,
    depth_buffer_to_image,
    encode_edge_id,
    id_buffer_to_image,
    is_point_visible,
    render_id_buffer,
    visibility_oracle,
    _clip_polygon_near,
    _clip_segment_near,
    _fill_triangle,
)

from conftest import random_convex_model, random_orbit_pose, silhouette_edge_ids


# ---------------------------------------------------------------------------
# Codec.

def test_encode_examples():
    assert encode_edge_id(0) == (0, 0, 8)
    assert encode_edge_id(31) == (0, 8, 0)
    assert encode_edge_id(100) == (0, 24, 40)
    assert encode_edge_id(32766) == (248, 248, 248)


def test_encode_capacity():
    with pytest.raises(CapacityError):
        encode_edge_id(32767)
    with pytest.raises(CapacityError):
        encode_edge_id(-1)


def test_decode_examples():
    assert decode_edge_id(0, 0, 8) == 0
    assert decode_edge_id(0, 0, 0) == BACKGROUND
    assert decode_edge_id(248, 248, 248) == 32766


def test_codec_round_trip_exhaustive():
    for i in range(32767):
        r, g, b = encode_edge_id(i)
        assert r % 8 == 0 and g % 8 == 0 and b % 8 == 0
        assert decode_edge_id(r, g, b) == i


def test_decode_id_array_matches_scalar():
    rng = np.random.default_rng(51)
    colors = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    decoded = decode_id_array(colors)
    for y in range(16):
        for x in range(16):
            r, g, b = (int(v) for v in colors[y, x])
            assert decoded[y, x] == decode_edge_id(r, g, b)


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
    ids = decode_id_array(id_buf.rgb)
    return set(int(i) for i in np.unique(ids)) - {BACKGROUND}


def test_single_triangle_all_edges_present(qvga_camera):
    id_buf, depth_buf = render_id_buffer(single_triangle_model(), face_on_pose(), qvga_camera)
    assert present_ids(id_buf) == {0, 1, 2}
    assert np.isfinite(depth_buf.depth).any()


def test_model_behind_camera_empty(qvga_camera):
    pose = PoseSE3(omega=np.zeros(3), t=np.array([0.0, 0.0, -500.0]))
    id_buf, depth_buf = render_id_buffer(single_triangle_model(), pose, qvga_camera)
    assert not present_ids(id_buf)
    assert not np.isfinite(depth_buf.depth).any()


def test_cube_face_on_front_edges_visible_rear_hidden(cube_model, qvga_camera):
    id_buf, depth_buf = render_id_buffer(cube_model, face_on_pose(), qvga_camera)
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
        id_buf, _ = render_id_buffer(cube_model, pose, qvga_camera)
        ids = present_ids(id_buf)
        assert all(0 <= i < len(cube_model.edges) for i in ids)
        # Channel levels of drawn pixels are always multiples of 8.
        assert not np.any(id_buf.rgb % 8)


def test_render_deterministic(cube_model, qvga_camera):
    pose = random_orbit_pose(np.random.default_rng(53))
    a_id, a_depth = render_id_buffer(cube_model, pose, qvga_camera)
    b_id, b_depth = render_id_buffer(cube_model, pose, qvga_camera)
    assert np.array_equal(a_id.rgb, b_id.rgb)
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
    id_buf, _ = render_id_buffer(model, pose, qvga_camera)
    assert 0 in present_ids(id_buf)


def reference_render(model, pose, K):
    """render_id_buffer with the edge pass written as a per-pixel loop."""
    cam = transform_np(model.vertices, pose.rotation(), pose.t)
    depth = np.full((K.height, K.width), np.inf)
    owner = np.full((K.height, K.width), -1, dtype=np.int32)
    for fi, f in enumerate(model.faces):
        poly = _clip_polygon_near([cam[f[0]], cam[f[1]], cam[f[2]]])
        for j in range(1, len(poly) - 1):
            _fill_triangle(depth, owner, fi, [poly[0], poly[j], poly[j + 1]], K)
    rgb = np.zeros((K.height, K.width, 3), dtype=np.uint8)
    edge_depth = np.full((K.height, K.width), np.inf)
    for i, own_faces in enumerate(model.edge_faces):
        seg = _clip_segment_near(cam[model.edges[i][0]], cam[model.edges[i][1]])
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
                rgb[y, x] = encode_edge_id(i)
    return rgb, depth


def test_render_matches_per_pixel_reference(cube_model, qvga_camera):
    rng = np.random.default_rng(56)
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
    for model, pose in scenes:
        id_buf, depth_buf = render_id_buffer(model, pose, qvga_camera)
        rgb, depth = reference_render(model, pose, qvga_camera)
        assert np.array_equal(id_buf.rgb, rgb)
        assert np.array_equal(depth_buf.depth, depth)


# ---------------------------------------------------------------------------
# Point visibility against the buffer.

def edge_midpoint_px(model, edge_index, pose, K):
    e = model.edges[edge_index]
    mid = 0.5 * (model.vertices[e[0]] + model.vertices[e[1]])
    uv, z = project_np(mid[None, :], pose.rotation(), pose.t, K)
    return uv[0], mid, float(z[0])


def test_visible_point_on_front_edge(cube_model, qvga_camera):
    pose = face_on_pose()
    id_buf, _ = render_id_buffer(cube_model, pose, qvga_camera)
    uv, mid, _ = edge_midpoint_px(cube_model, 0, pose, qvga_camera)
    assert is_point_visible(uv, 0, id_buf)
    assert visibility_oracle(cube_model, pose, qvga_camera, mid)


def test_background_point_not_visible(cube_model, qvga_camera):
    pose = face_on_pose()
    id_buf, _ = render_id_buffer(cube_model, pose, qvga_camera)
    assert not is_point_visible((5.0, 5.0), 0, id_buf)


def test_out_of_bounds_not_visible(cube_model, qvga_camera):
    pose = face_on_pose()
    id_buf, _ = render_id_buffer(cube_model, pose, qvga_camera)
    assert not is_point_visible((-3.0, 10.0), 0, id_buf)
    assert not is_point_visible((1000.0, 10.0), 0, id_buf)


def test_occluded_rear_edge_not_visible(cube_model, qvga_camera):
    pose = face_on_pose()
    id_buf, _ = render_id_buffer(cube_model, pose, qvga_camera)
    uv, mid, _ = edge_midpoint_px(cube_model, 4, pose, qvga_camera)
    assert not is_point_visible(uv, 4, id_buf)
    assert not visibility_oracle(cube_model, pose, qvga_camera, mid)


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
    id_buf, _ = render_id_buffer(model, pose, qvga_camera)
    assert not present_ids(id_buf)
    mid = np.array([0.0, -15.0, 200.0])
    uv, _ = project_np(mid[None, :], pose.rotation(), pose.t, qvga_camera)
    assert not is_point_visible(uv[0], 0, id_buf)
    assert not visibility_oracle(model, pose, qvga_camera, mid)


def test_neighborhood_tolerance_absorbs_quantization(cube_model, qvga_camera):
    rng = np.random.default_rng(54)
    pose = face_on_pose()
    id_buf, _ = render_id_buffer(cube_model, pose, qvga_camera)
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
            id_buf, _ = render_id_buffer(model, pose, qvga_camera)
            R, t = pose.rotation(), pose.t
            for i, e in enumerate(model.edges):
                a, b = model.vertices[e[0]], model.vertices[e[1]]
                for s in (0.25, 0.5, 0.75):
                    p3d = a + s * (b - a)
                    uv, z = project_np(p3d[None, :], R, t, qvga_camera)
                    u, v = uv[0]
                    if not (z[0] > 1.0 and 3 <= u < 317 and 3 <= v < 237):
                        continue
                    same = is_point_visible(uv[0], i, id_buf) == visibility_oracle(
                        model, pose, qvga_camera, p3d
                    )
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
    id_buf, _ = render_id_buffer(cube_model, face_on_pose(), qvga_camera)
    img = id_buffer_to_image(id_buf)
    assert isinstance(img, ColorImage)
    assert np.array_equal(img.pixels, id_buf.rgb)


def test_depth_buffer_dump(cube_model, qvga_camera):
    _, depth_buf = render_id_buffer(cube_model, face_on_pose(), qvga_camera)
    img = depth_buffer_to_image(depth_buf)
    assert isinstance(img, GrayImage)
    finite = np.isfinite(depth_buf.depth)
    assert np.all(img.pixels[~finite] == 255)
    assert img.pixels[finite].min() == 0


def test_depth_dump_empty_buffer():
    from edgetrack.rasterizer import DepthBuffer

    img = depth_buffer_to_image(DepthBuffer(8, 8))
    assert np.all(img.pixels == 255)


def test_id_buffer_decode_at():
    buf = IdBuffer(4, 4)
    buf.rgb[2, 1] = encode_edge_id(7)
    assert buf.decode_at(1, 2) == 7
    assert buf.decode_at(0, 0) == BACKGROUND
