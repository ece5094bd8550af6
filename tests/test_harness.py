"""Sequence generation, tracked runs, evaluation, and the CLI."""

import hashlib
import math
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from edgetrack.geometry import PoseSE3, WireframeModel, load_model, look_at_pose
from edgetrack.harness import (
    CONFIG_KEYS,
    GROUND_TRUTH_NAME,
    POSES_NAME,
    STATS_NAME,
    EvaluationReport,
    OrbitTrajectory,
    RunConfig,
    evaluate,
    generate_sequence,
    load_pose_csv,
    occlude_strip,
    parse_config,
    profile,
    render_frame_gray,
    run_tracking,
    save_pose_csv,
    standard_camera,
    standard_trajectory,
    _draw_runs,
)
from edgetrack.imaging import ColorImage, GrayImage
from edgetrack.pose_estimation import LM_STOPS, TrackerConfig
from edgetrack.rasterizer import BACKGROUND, render_id_buffer, visible_runs
from edgetrack.realmath import get_backend

from conftest import (
    CUBE_EDGES,
    CUBE_FACES,
    CUBE_VERTICES,
    pose_errors,
    random_convex_model,
    random_orbit_pose,
)

# ---------------------------------------------------------------------------
# Trajectories.

def test_orbit_radius_and_aim():
    traj = OrbitTrajectory(frames=10, radius_mm=150.0)
    for k in (0, 4, 9):
        pose = traj.pose(k)
        assert np.linalg.norm(pose.camera_center()) == pytest.approx(150.0)
        # the target sits on the optical axis when aim_offset is zero
        R = pose.rotation()
        c = R @ np.zeros(3) + pose.t
        assert c[2] == pytest.approx(150.0)
        assert abs(c[0]) < 1e-9 and abs(c[1]) < 1e-9


def test_orbit_rejects_bad_parameters():
    with pytest.raises(ValueError):
        OrbitTrajectory(frames=-1)
    with pytest.raises(ValueError):
        OrbitTrajectory(frames=5, radius_mm=0.0)


# ---------------------------------------------------------------------------
# Rendering and occlusion.

def test_render_draws_dark_edges_on_white(cube_model, qvga_camera):
    pose = standard_trajectory(1).pose(0)
    img = render_frame_gray(cube_model, pose, qvga_camera, sigma=0.0).pixels
    dark = np.count_nonzero(img < 128)
    assert 200 < dark < 20000
    assert img.max() == 255


def corridor_scene():
    """A box 400 mm deep around the camera: its four long edges cross the
    near plane in view and project to lines far longer than the image."""
    corridor = WireframeModel(
        vertices=np.array(CUBE_VERTICES, dtype=float) * (20.0, 15.0, 200.0) + (0.0, 0.0, 100.0),
        faces=np.array(CUBE_FACES) - 1,
        edges=np.array(CUBE_EDGES) - 1,
    )
    return corridor, PoseSE3(omega=np.array([0.05, 0.1, 0.0]), t=np.array([3.0, -2.0, 0.0]))


def test_frame_follows_id_buffer(cube_model, qvga_camera):
    # Noiseless frames vs. ID buffers: every edge pixel is dark, and every
    # dark pixel lies within 2 px (a 5x5 window) of an edge pixel.  The
    # triangle is the one of test_near_plane_crossing_edge_clipped: two
    # edges run from 50 mm in front of the camera to 50 mm behind it, off
    # the image.  Inside the corridor the four long edges cross the near
    # plane and stay in view.
    traj = standard_trajectory()
    scenes = [(cube_model, traj.pose(k)) for k in range(0, traj.frames, 6)]
    triangle = WireframeModel(
        vertices=np.array([[-20.0, 0.0, 50.0], [20.0, 0.0, 50.0], [0.0, 10.0, -50.0]]),
        faces=np.array([[0, 1, 2]]),
        edges=np.array([[0, 1], [0, 2], [1, 2]]),
    )
    scenes.append((triangle, PoseSE3(omega=np.zeros(3), t=np.zeros(3))))
    scenes.append(corridor_scene())
    K = qvga_camera
    for model, pose in scenes:
        dark = render_frame_gray(model, pose, K, sigma=0.0).pixels < 128
        id_buf = render_id_buffer(model, pose, K)
        edge = id_buf.ids != BACKGROUND
        assert edge.any()
        assert dark[edge].all()
        padded = np.pad(edge, 2)
        near_edge = np.zeros_like(edge)
        for dy in range(5):
            for dx in range(5):
                near_edge |= padded[dy:dy + K.height, dx:dx + K.width]
        assert near_edge[dark].all()


def full_trace(a, b, K):
    """rasterizer._edge_pixels stepping every step of each projected
    segment, on the image or not: the reference for the cut trace; a and b
    are (3, E)."""
    from edgetrack.rasterizer import EdgeTrace
    from test_rasterizer import clip_segment_near

    from conftest import pinhole

    n = a.shape[1]
    pa, pb, inv_z = (np.full((2, n), np.nan) for _ in range(3))
    steps = np.zeros(n, dtype=np.int64)
    columns = [[np.zeros(0, dtype=np.int64)] * 2 + [np.zeros(0)]]  # edge, flat, s
    for i in range(n):
        ends = clip_segment_near(a[:, i], b[:, i])
        if ends is None:
            continue
        pa[:, i], pb[:, i] = pinhole(ends[0], K), pinhole(ends[1], K)
        inv_z[:, i] = 1.0 / ends[0][2], 1.0 / ends[1][2]
        (ua, va), (ub, vb) = pa[:, i], pb[:, i]
        steps[i] = max(1, math.ceil(max(abs(ub - ua), abs(vb - va))))
        s = np.arange(steps[i] + 1) / steps[i]
        x = np.floor(ua + s * (ub - ua) + 0.5).astype(np.int64)
        y = np.floor(va + s * (vb - va) + 0.5).astype(np.int64)
        on = (x >= 0) & (x < K.width) & (y >= 0) & (y < K.height)
        columns.append([np.full(len(s), i), np.where(on, y * K.width + x, -1), s])
    return EdgeTrace(pa, pb, inv_z, steps, *(np.concatenate(c) for c in zip(*columns)))


def test_trace_steps_only_near_the_image(cube_model, qvga_camera, monkeypatch):
    import edgetrack.rasterizer as rasterizer
    from edgetrack.rasterizer import _camera_points, _edge_pixels

    K = qvga_camera
    corridor, pose = corridor_scene()
    cam = _camera_points(corridor, pose)
    a, b = cam[:, corridor.edges[:, 0]], cam[:, corridor.edges[:, 1]]
    full, cut = full_trace(a, b, K), _edge_pixels(a, b, K)
    assert len(full.s) > 40000 and len(cut.s) < 2000
    for i in range(len(corridor.edges)):
        f, c = full.edge == i, cut.edge == i
        if not c.any():
            continue
        assert c.sum() <= max(K.width, K.height) + 8
        assert cut.steps[i] == full.steps[i]  # s and steps still refer to the whole segment
        assert np.array_equal(cut.pa[:, i], full.pa[:, i]) and np.array_equal(cut.pb[:, i], full.pb[:, i])
        assert np.array_equal(cut.inv_z[:, i], full.inv_z[:, i])
        k = np.rint(cut.s[c] * cut.steps[i]).astype(int)
        assert np.array_equal(cut.s[c], full.s[f][k])
        assert np.array_equal(cut.flat[c], full.flat[f][k])

    rng = np.random.default_rng(71)
    traj = standard_trajectory()
    scenes = [corridor_scene(), (cube_model, traj.pose(0)), (cube_model, traj.pose(30))]
    for _ in range(4):  # cameras inside or beside a random model
        model = random_convex_model(rng)
        center = rng.normal(size=3)
        center *= rng.uniform(5.0, 40.0) / np.linalg.norm(center)
        scenes.append((model, look_at_pose(center, rng.normal(size=3), down=rng.normal(size=3))))
    for model, scene_pose in scenes:
        id_buf = render_id_buffer(model, scene_pose, K)
        frame = render_frame_gray(model, scene_pose, K, sigma=0.0).pixels
        with monkeypatch.context() as m:
            m.setattr(rasterizer, "_edge_pixels", full_trace)
            ref_id = render_id_buffer(model, scene_pose, K)
            ref_frame = render_frame_gray(model, scene_pose, K, sigma=0.0).pixels
        assert np.array_equal(id_buf.ids, ref_id.ids)
        assert np.array_equal(frame, ref_frame)


def test_render_noise_changes_with_rng(cube_model, qvga_camera):
    pose = standard_trajectory(1).pose(0)
    a = render_frame_gray(cube_model, pose, qvga_camera, sigma=2.0,
                          rng=np.random.default_rng(1)).pixels
    b = render_frame_gray(cube_model, pose, qvga_camera, sigma=2.0,
                          rng=np.random.default_rng(2)).pixels
    c = render_frame_gray(cube_model, pose, qvga_camera, sigma=2.0,
                          rng=np.random.default_rng(1)).pixels
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_occlude_strip_hides_requested_share(cube_model, qvga_camera):
    pose = standard_trajectory(1).pose(0)
    img = render_frame_gray(cube_model, pose, qvga_camera, sigma=0.0).pixels
    before = np.count_nonzero(img < 255)
    covered = img.copy()
    occlude_strip(covered, 0.2)
    after = np.count_nonzero(covered < 255)
    removed = (before - after) / before
    assert 0.15 <= removed <= 0.30
    # strip is a full-height white band
    cols = np.nonzero((covered == 255).all(axis=0) & ~(img == 255).all(axis=0))[0]
    assert cols.size > 0


def draw_aa_segment(img, a, b):
    """Darken pixels within the anti-aliased band of one segment: the
    per-run loop _draw_runs replaces, and its reference.

    Intensity ramps 0..255 over point-to-segment distance 0.5..1.5 px,
    giving a dark line an effective width of 2 px.
    """
    h, w = img.shape
    x0 = max(0, int(math.floor(min(a[0], b[0]) - 2)))
    x1 = min(w - 1, int(math.ceil(max(a[0], b[0]) + 2)))
    y0 = max(0, int(math.floor(min(a[1], b[1]) - 2)))
    y1 = min(h - 1, int(math.ceil(max(a[1], b[1]) + 2)))
    if x0 > x1 or y0 > y1:
        return
    xs = np.arange(x0, x1 + 1, dtype=float)
    ys = np.arange(y0, y1 + 1, dtype=float)[:, None]
    d = b - a
    dd = float(d[0] * d[0] + d[1] * d[1])
    if dd == 0.0:
        dist = np.hypot(xs - a[0], ys - a[1])
    else:
        tau = ((xs - a[0]) * d[0] + (ys - a[1]) * d[1]) / dd
        tau = np.clip(tau, 0.0, 1.0)
        dist = np.hypot(xs - (a[0] + tau * d[0]), ys - (a[1] + tau * d[1]))
    shade = np.clip((dist - 0.5) * 255.0, 0.0, 255.0)
    region = img[y0 : y1 + 1, x0 : x1 + 1]
    np.minimum(region, shade.astype(np.uint8), out=region)


def assert_draw_matches_loop(a, b, shape):
    """_draw_runs against the per-run loop on the runs a[:, i]-b[:, i]."""
    a, b = np.asarray(a, dtype=float).reshape(2, -1), np.asarray(b, dtype=float).reshape(2, -1)
    ref = np.full(shape, 255, dtype=np.uint8)
    for pa, pb in zip(a.T, b.T):
        draw_aa_segment(ref, pa, pb)
    img = np.full(shape, 255, dtype=np.uint8)
    _draw_runs(img, a, b)
    assert np.array_equal(img, ref), np.argwhere(img != ref)[:5]
    return ref


def test_draw_runs_matches_per_run_loop_on_scenes(cube_model, icosphere_model, qvga_camera):
    K = qvga_camera
    traj = standard_trajectory()
    scenes = [(model, traj.pose(k)) for model in (cube_model, icosphere_model)
              for k in range(traj.frames)]
    scenes.append(corridor_scene())
    triangle = WireframeModel(
        vertices=np.array([[-20.0, 0.0, 50.0], [20.0, 0.0, 50.0], [0.0, 10.0, -50.0]]),
        faces=np.array([[0, 1, 2]]),
        edges=np.array([[0, 1], [0, 2], [1, 2]]),
    )
    scenes.append((triangle, PoseSE3(omega=np.zeros(3), t=np.zeros(3))))
    rng = np.random.default_rng(23)
    for _ in range(6):
        scenes.append((random_convex_model(rng), random_orbit_pose(rng, (60.0, 160.0))))
    drawn = 0
    for model, pose in scenes:
        a, b = visible_runs(render_id_buffer(model, pose, K))
        assert a.shape == b.shape == (2, a.shape[1])
        ref = assert_draw_matches_loop(a, b, (K.height, K.width))
        assert np.array_equal(ref, render_frame_gray(model, pose, K).pixels)
        drawn += a.shape[1]
    assert drawn > 3000


def test_draw_runs_matches_per_run_loop_on_hand_made_runs():
    h, w = 30, 40
    runs = [
        ((10.0, 10.0), (10.0, 10.0)),  # zero length, on a pixel center
        ((20.3, 7.6), (20.3, 7.6)),  # zero length, between pixels
        ((5.2, 20.1), (5.6, 20.4)),  # sub-pixel
        ((3.0, 5.0), (35.0, 5.0)),  # horizontal
        ((12.5, 3.5), (31.5, 3.5)),  # horizontal, on pixel edges
        ((30.0, 2.0), (30.0, 27.0)),  # vertical
        ((8.0, 8.0), (22.0, 22.0)),  # 45 degrees
        ((25.0, 20.0), (37.0, 8.0)),  # -45 degrees
        ((14.2, 1.3), (18.9, 28.4)),  # steep
        ((2.2, 12.7), (38.6, 17.1)),  # shallow
        ((0.0, 0.0), (39.0, 29.0)),  # corner to corner
        ((0.0, 15.0), (0.0, 15.0)),  # ends on the left border
        ((39.0, 3.0), (39.0, 26.0)),  # on the right border
        ((4.0, 0.0), (36.0, 0.0)),  # on the top border
        ((4.0, 29.0), (36.0, 29.0)),  # on the bottom border
        ((-7.5, 11.0), (9.0, 14.0)),  # past the left border
        ((30.0, 16.0), (52.0, 21.5)),  # past the right border
        ((17.0, -6.0), (21.0, 9.0)),  # past the top border
        ((6.0, 24.0), (13.0, 41.0)),  # past the bottom border
        ((-12.0, -9.0), (55.0, 44.0)),  # past two corners
        ((-1.2, 31.0), (41.3, -1.4)),  # just outside, crossing
        ((-10.0, -10.0), (-3.0, -5.0)),  # wholly off the image
        ((41.6, 2.0), (60.0, 25.0)),  # wholly off, right
        ((3.0, -1.6), (36.0, -1.6)),  # off the top, band still inside
        ((9.0, 10.0), (24.0, 12.0)),  # overlapping the 45 degree run
        ((9.0, 10.5), (24.0, 12.5)),  # overlapping its neighbour
    ]
    a, b = (np.array(ends).T for ends in zip(*runs))
    assert_draw_matches_loop(a, b, (h, w))
    for pa, pb in runs:
        assert_draw_matches_loop(pa, pb, (h, w))
        assert_draw_matches_loop(pb, pa, (h, w))
    rng = np.random.default_rng(5)
    a = rng.uniform((-8.0, -8.0), (w + 8.0, h + 8.0), size=(300, 2))
    b = a + rng.normal(scale=rng.choice([0.3, 3.0, 20.0], size=(300, 1)), size=(300, 2))
    assert_draw_matches_loop(a.T, b.T, (h, w))
    assert_draw_matches_loop(np.zeros((2, 0)), np.zeros((2, 0)), (h, w))


def test_render_noise_matches_the_out_of_place_formula(cube_model, icosphere_model, qvga_camera):
    K = qvga_camera
    traj = standard_trajectory()
    for model in (cube_model, icosphere_model):
        for seed, k in ((1, 0), (2, 17), (3, 42), (4, 59)):
            pose = traj.pose(k)
            clean = render_frame_gray(model, pose, K).pixels
            noise = np.random.default_rng([seed, k]).normal(0.0, 2.0, clean.shape)
            ref = np.clip(np.rint(clean.astype(np.float64) + noise), 0, 255).astype(np.uint8)
            img = render_frame_gray(model, pose, K, sigma=2.0,
                                    rng=np.random.default_rng([seed, k])).pixels
            assert np.array_equal(img, ref)


# ---------------------------------------------------------------------------
# Sequence generation.

def test_generate_sequence_is_deterministic(tmp_path, cube_model, qvga_camera):
    traj = standard_trajectory(3)
    for sub in ("a", "b"):
        n = generate_sequence(cube_model, qvga_camera, traj, sigma=2.0,
                              out_dir=tmp_path / sub, seed=7)
        assert n == 3
    for name in ["frame_%06d.pgm" % k for k in range(3)] + [GROUND_TRUTH_NAME]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    n = generate_sequence(cube_model, qvga_camera, traj, sigma=2.0,
                          out_dir=tmp_path / "c", seed=8)
    assert (tmp_path / "a" / "frame_000000.pgm").read_bytes() != (
        tmp_path / "c" / "frame_000000.pgm"
    ).read_bytes()


def sequence_digest(seq_dir) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(seq_dir).glob("frame_*.pgm")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


# sha256 over the frame files of each sequence, in frame order.  Synthetic
# sequences are the ground truth of every accuracy figure, so any change to
# these bytes is a change of behaviour.  The frames pass through float
# projection and libm, so the digests were recorded on x86-64 Linux.
GOLDEN_SEQUENCES = {
    # name: (model, frames, seed, occlusion fraction, sha256)
    "cube_seed5": ("cube", 60, 5, 0.0,
                   "a39df85fdbd1366d2584e236959e8d2509ea5c32b226ccd304edd15c5692c334"),
    "icosphere": ("icosphere", 20, 11, 0.0,
                  "601f00fac38737c5f13176ae1c0fd78ad7cf494e6ba04aa9e82ab9db246c9650"),
    "cube_occluded": ("cube", 20, 5, 0.2,
                      "82300fde25747d9d39f708bad7c085702c85f5ab0398d8289e9195efd096f18a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SEQUENCES))
def test_synthetic_sequences_match_golden_digests(name, tmp_path, cube_model, icosphere_model):
    model_name, frames, seed, occlusion, expected = GOLDEN_SEQUENCES[name]
    model = {"cube": cube_model, "icosphere": icosphere_model}[model_name]
    generate_sequence(model, standard_camera(), standard_trajectory(frames),
                      sigma=2.0, out_dir=tmp_path / name, seed=seed,
                      occlusion_fraction=occlusion)
    assert sequence_digest(tmp_path / name) == expected


@pytest.mark.parametrize("sigma, occlusion", [
    (-1.0, 0.0), (float("nan"), 0.0), (float("inf"), 0.0),
    (2.0, 1.5), (2.0, -0.2), (2.0, float("nan")),
])
def test_synthesis_rejects_invalid_parameters(sigma, occlusion, tmp_path, cube_model,
                                              qvga_camera):
    pose = standard_trajectory(1).pose(0)
    with pytest.raises(ValueError):
        render_frame_gray(cube_model, pose, qvga_camera, sigma=sigma,
                          rng=np.random.default_rng(0), occlusion_fraction=occlusion)
    with pytest.raises(ValueError):
        generate_sequence(cube_model, qvga_camera, standard_trajectory(2), sigma=sigma,
                          out_dir=tmp_path / "seq", occlusion_fraction=occlusion)
    assert not (tmp_path / "seq").exists()


def test_synthesis_accepts_boundary_parameters(tmp_path, cube_model, qvga_camera):
    for sigma, occlusion in ((0.0, 0.0), (2.0, 1.0)):
        assert generate_sequence(cube_model, qvga_camera, standard_trajectory(1),
                                 sigma=sigma, out_dir=tmp_path / f"s{sigma}",
                                 occlusion_fraction=occlusion) == 1


def test_generate_zero_frames(tmp_path, cube_model, qvga_camera):
    n = generate_sequence(cube_model, qvga_camera, OrbitTrajectory(frames=0),
                          sigma=0.0, out_dir=tmp_path / "empty", seed=0)
    assert n == 0
    assert load_pose_csv(tmp_path / "empty" / GROUND_TRUTH_NAME) == []


def test_ground_truth_round_trips(tmp_path, cube_model, qvga_camera):
    traj = standard_trajectory(4)
    generate_sequence(cube_model, qvga_camera, traj, sigma=0.0,
                      out_dir=tmp_path / "s", seed=0)
    rows = load_pose_csv(tmp_path / "s" / GROUND_TRUTH_NAME)
    assert [k for k, _ in rows] == [0, 1, 2, 3]
    # arccos of a near-1 trace floors the angle metric at ~3e-8
    for k, pose in rows:
        ang, dist = pose_errors(pose, traj.pose(k))
        assert ang < 1e-7 and dist < 1e-12


# ---------------------------------------------------------------------------
# Tracked runs.

def test_run_tracking_noiseless_short_sequence(tmp_path, cube_model, qvga_camera):
    traj = standard_trajectory(4)
    generate_sequence(cube_model, qvga_camera, traj, sigma=0.0,
                      out_dir=tmp_path / "s", seed=0)
    records = run_tracking(tmp_path / "s", cube_model, qvga_camera,
                           TrackerConfig(), traj.pose(0), out_dir=tmp_path / "run")
    assert len(records) == 4
    assert all(r.status == "ok" for r in records)
    # frame 0 starts at its own ground truth; the refined pose stays close
    ang, dist = pose_errors(records[0].pose, traj.pose(0))
    assert dist < 0.5
    assert (tmp_path / "run" / POSES_NAME).exists()
    assert (tmp_path / "run" / STATS_NAME).exists()
    stats_text = (tmp_path / "run" / STATS_NAME).read_text()
    assert stats_text.splitlines()[0].startswith("frame,sampled,matched,err,iters")
    rep = evaluate(tmp_path / "run" / POSES_NAME, tmp_path / "s" / GROUND_TRUTH_NAME)
    assert rep.frames == 4
    assert rep.mean_distance < 1.5


def test_run_tracking_coasts_then_loses(tmp_path, cube_model, qvga_camera):
    traj = standard_trajectory(6)
    generate_sequence(cube_model, qvga_camera, traj, sigma=0.0,
                      out_dir=tmp_path / "s", seed=0)
    # blank out frames 2.. so matching fails from there on
    from edgetrack.imaging import GrayImage, save_image

    blank = GrayImage(pixels=np.full((240, 320), 255, dtype=np.uint8))
    for k in range(2, 6):
        save_image(blank, tmp_path / "s" / ("frame_%06d.pgm" % k))
    records = run_tracking(tmp_path / "s", cube_model, qvga_camera,
                           TrackerConfig(), traj.pose(0), coast_frames=2)
    assert [r.status for r in records] == ["ok", "ok", "coast", "coast", "lost", "lost"]
    for r in records[2:]:
        assert r.matched == 0 and np.isnan(r.err)
        ang, dist = pose_errors(r.pose, records[1].pose)
        assert ang == 0.0 and dist == 0.0  # carries the last good pose


def test_run_tracking_survives_numeric_faults(tmp_path, cube_model, qvga_camera, monkeypatch):
    # A fixed-point overflow or domain error, or a point projected behind
    # the camera, fails its frame as too few matches do: the frame coasts,
    # then is lost, and the run still writes one record per frame.
    import edgetrack.harness as harness
    from edgetrack.geometry import BehindCameraError
    from edgetrack.realmath import MathDomainError, MathOverflowError

    traj = standard_trajectory(7)
    generate_sequence(cube_model, qvga_camera, traj, sigma=0.0,
                      out_dir=tmp_path / "s", seed=0)
    faults = {1: MathOverflowError, 2: MathDomainError, 3: BehindCameraError, 4: MathOverflowError}
    calls = iter(range(7))
    track_frame = harness.track_frame

    def faulty_track_frame(*args):
        k = next(calls)
        if k in faults:
            raise faults[k](f"injected into frame {k}")
        return track_frame(*args)

    monkeypatch.setattr(harness, "track_frame", faulty_track_frame)
    records = run_tracking(tmp_path / "s", cube_model, qvga_camera, TrackerConfig(),
                           traj.pose(0), coast_frames=3, out_dir=tmp_path / "run")
    statuses = ["ok", "coast", "coast", "coast", "lost", "ok", "ok"]
    assert [r.status for r in records] == statuses
    stats = [line.split(",") for line in (tmp_path / "run" / STATS_NAME).read_text().splitlines()]
    header = stats[0]
    assert header[-4:] == ["status", "projected", "attempts", "lm_stop"]
    assert [row[header.index("status")] for row in stats[1:]] == statuses
    for row, r in zip(stats[1:], records):
        projected, sampled, matched = (int(row[header.index(k)]) for k in ("projected", "sampled", "matched"))
        assert projected == r.projected and int(row[header.index("attempts")]) == r.attempts
        assert row[header.index("lm_stop")] == r.lm_stop
        if r.status == "ok":
            assert projected >= sampled >= matched >= 6 and r.attempts >= r.iterations
            assert r.lm_stop in LM_STOPS
        else:
            assert projected == sampled == matched == r.attempts == 0 and r.lm_stop == ""
    assert len(load_pose_csv(tmp_path / "run" / POSES_NAME)) == 7


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_model_with_a_non_finite_vertex_is_a_typed_error(bad, tmp_path, cube_model, qvga_camera):
    # A model built in code, not read by load_model, with one vertex
    # coordinate that is not finite: building it raises ModelFormatError,
    # so a tracking run on every backend and the synthesis meet that typed
    # error instead of an untyped one from deep inside the renderer.
    from edgetrack.geometry import ModelFormatError

    vertices = np.array(CUBE_VERTICES, dtype=np.float64) * 30.0
    vertices[6, 1] = bad
    faces, edges = np.array(CUBE_FACES) - 1, np.array(CUBE_EDGES) - 1

    def model():
        return WireframeModel(vertices=vertices, faces=faces, edges=edges)

    with pytest.raises(ModelFormatError, match="not finite"):
        model()
    traj = standard_trajectory(2)
    generate_sequence(cube_model, qvga_camera, traj, sigma=2.0, out_dir=tmp_path / "s", seed=5)
    for backend in ("float", "q40_23", "q47_16"):
        with pytest.raises(ModelFormatError):
            run_tracking(tmp_path / "s", model(), qvga_camera, TrackerConfig(backend=backend),
                         traj.pose(0))
    with pytest.raises(ModelFormatError):
        render_frame_gray(model(), traj.pose(0), qvga_camera, sigma=2.0)
    with pytest.raises(ModelFormatError):
        generate_sequence(model(), qvga_camera, traj, sigma=2.0, out_dir=tmp_path / "t", seed=5)


def test_model_keeps_its_checked_arrays_when_the_callers_change(cube_model):
    # A model built in code copies the arrays it is given: NaN written into
    # the caller's vertices afterwards, and a zero-length edge into the
    # caller's edges, change neither the model's checked arrays nor its
    # Q40.23 vertices, which still match a fresh conversion of its own.
    q40 = get_backend("q40_23")
    vertices = np.array(CUBE_VERTICES, dtype=np.float64) * 30.0
    edges = np.array(CUBE_EDGES, dtype=np.int32) - 1
    model = WireframeModel(vertices=vertices, faces=np.array(CUBE_FACES) - 1, edges=edges)
    converted = model.used_vertices(q40).raw.tolist()
    vertices[6, 1] = float("nan")
    edges[0] = edges[0, 0]
    assert model.vertices.tolist() == cube_model.vertices.tolist()
    assert model.edges.tolist() == cube_model.edges.tolist()
    assert model.used_vertices(q40).raw.tolist() == converted
    assert converted == q40.array(model.vertices[model.edge_ends[0]].T).raw.tolist()


def test_pose_and_model_arrays_are_read_only(cube_model):
    pose = standard_trajectory(1).pose(0)
    arrays = (pose.omega, pose.t, cube_model.vertices, cube_model.faces, cube_model.edges)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[-1] = array[0]
    assert np.isfinite(pose.t).all()


@pytest.mark.parametrize("make, field", [
    (lambda: WireframeModel(np.eye(3), [[0, 1, 2]], [[0, 1]]), "vertices"),
    (lambda: PoseSE3(np.zeros(3), [0.0, 0.0, 150.0]), "t"),
    (lambda: standard_trajectory(2), "frames"),
    (lambda: RunConfig(standard_camera(), TrackerConfig()), "coast_frames"),
    (lambda: GrayImage(np.zeros((2, 2))), "pixels"),
    (lambda: ColorImage(np.zeros((2, 2, 3))), "format"),
], ids=["WireframeModel", "PoseSE3", "OrbitTrajectory", "RunConfig", "GrayImage", "ColorImage"])
def test_checked_values_reject_field_assignment(make, field):
    # A value's fields keep what its __post_init__ checked.
    value = make()
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("backend", ["float", "q40_23", "q47_16"])
@pytest.mark.parametrize("first_fault", ["truncated", "small", "directory"])
def test_run_tracking_coasts_over_bad_frames(tmp_path, cube_model, qvga_camera, backend, first_fault):
    # A truncated PGM, a frame of the wrong size and a frame path that
    # cannot be opened (a directory) fail their frame as too few matches
    # do: with coast_frames=1, frame 10 coasts, frame 11 (a second fault) is
    # lost, and tracking resumes at frame 12.  The run writes one record
    # per frame and both CSVs.
    from edgetrack.imaging import GrayImage, save_image

    traj = standard_trajectory(13)
    seq = tmp_path / "s"
    generate_sequence(cube_model, qvga_camera, traj, sigma=0.0, out_dir=seq, seed=0)
    truncated = (seq / "frame_000010.pgm").read_bytes()[:1000]
    small = GrayImage(pixels=np.full((10, 10), 255, dtype=np.uint8))

    def inject(fault, frame):
        path = seq / ("frame_%06d.pgm" % frame)
        if fault == "truncated":
            path.write_bytes(truncated)
        elif fault == "small":
            save_image(small, path)
        else:
            path.unlink()
            path.mkdir()

    inject(first_fault, 10)
    inject("truncated" if first_fault == "small" else "small", 11)
    cfg = TrackerConfig(backend=backend)
    records = run_tracking(seq, cube_model, qvga_camera, cfg, traj.pose(0), coast_frames=1,
                           out_dir=tmp_path / "run")
    statuses = ["ok"] * 10 + ["coast", "lost", "ok"]
    assert [r.frame for r in records] == list(range(13))
    assert [r.status for r in records] == statuses
    for r in records[10:12]:
        assert r.projected == r.sampled == r.matched == r.iterations == r.attempts == 0
        assert np.isnan(r.err) and r.pose.t.tolist() == records[9].pose.t.tolist()
    stats = (tmp_path / "run" / STATS_NAME).read_text().splitlines()
    header = stats[0].split(",")
    assert [row.split(",")[header.index("status")] for row in stats[1:]] == statuses
    assert len(load_pose_csv(tmp_path / "run" / POSES_NAME)) == 13


def test_run_tracking_dumps_reference_buffers(tmp_path, cube_model, qvga_camera):
    # --dump-buffers writes, per frame, the ID and depth buffers at the
    # tracked pose: byte for byte those of the full z-fill reference.
    from edgetrack.imaging import save_image
    from edgetrack.rasterizer import IdBuffer, depth_buffer_to_image, id_buffer_to_image
    from test_rasterizer import reference_render

    K = qvga_camera
    traj = standard_trajectory(3)
    generate_sequence(cube_model, K, traj, sigma=2.0, out_dir=tmp_path / "s", seed=4)
    records = run_tracking(tmp_path / "s", cube_model, K, TrackerConfig(), traj.pose(0),
                           out_dir=tmp_path / "run", dump_buffers=True)
    buffers = tmp_path / "run" / "buffers"
    assert len(list(buffers.iterdir())) == 2 * len(records) == 6
    for r in records:
        ids, depth = reference_render(cube_model, r.pose, K)
        assert ids.max() >= 0 and np.isfinite(depth).any()
        save_image(id_buffer_to_image(IdBuffer(ids)), tmp_path / "id.ppm")
        save_image(depth_buffer_to_image(depth), tmp_path / "depth.pgm")
        assert (buffers / f"frame_{r.frame:06d}_id.ppm").read_bytes() == (tmp_path / "id.ppm").read_bytes()
        assert (buffers / f"frame_{r.frame:06d}_depth.pgm").read_bytes() == (
            tmp_path / "depth.pgm").read_bytes()


def test_run_tracking_reads_mixed_pgm_and_ppm_frames_in_name_order(tmp_path, cube_model,
                                                                    qvga_camera):
    # Frames 0 and 2 are colour PPMs and frame 1 a blank PGM: the run reads
    # the files in name order, so record 1 alone coasts and records 0 and 2
    # hold the poses of their own frames.
    from edgetrack.imaging import RGB888, ColorImage, GrayImage, load_image, save_image

    traj = standard_trajectory(3)
    seq = tmp_path / "s"
    generate_sequence(cube_model, qvga_camera, traj, sigma=0.0, out_dir=seq, seed=0)
    for k in (0, 2):
        pgm = seq / ("frame_%06d.pgm" % k)
        gray = load_image(pgm).pixels
        save_image(ColorImage(np.repeat(gray[..., None], 3, axis=2), RGB888), pgm.with_suffix(".ppm"))
        pgm.unlink()
    save_image(GrayImage(np.full((240, 320), 255, dtype=np.uint8)), seq / "frame_000001.pgm")
    records = run_tracking(seq, cube_model, qvga_camera, TrackerConfig(), traj.pose(0))
    assert [r.status for r in records] == ["ok", "coast", "ok"]
    for k in (0, 2):
        assert pose_errors(records[k].pose, traj.pose(k))[1] < 0.5


def duplicate_frame_sequence(seq, model, K):
    """Frames 0-3 of the standard orbit as PGMs, with frames 1 and 2 also as PPMs."""
    from edgetrack.imaging import RGB888, ColorImage, load_image, save_image

    traj = standard_trajectory(4)
    generate_sequence(model, K, traj, sigma=0.0, out_dir=seq, seed=0)
    for k in (1, 2):
        gray = load_image(seq / ("frame_%06d.pgm" % k)).pixels
        save_image(ColorImage(np.repeat(gray[..., None], 3, axis=2), RGB888),
                   seq / ("frame_%06d.ppm" % k))
    return traj


def test_run_tracking_rejects_a_frame_number_held_twice(tmp_path, cube_model, qvga_camera,
                                                        monkeypatch):
    # A frame number with both a PGM and a PPM would shift every later
    # record off its ground-truth row: the run raises before tracking any
    # frame, naming the numbers.
    from edgetrack import harness

    traj = duplicate_frame_sequence(tmp_path / "s", cube_model, qvga_camera)
    monkeypatch.setattr(harness, "track_frame", lambda *args: pytest.fail("tracked a frame"))
    with pytest.raises(ValueError, match="000001, 000002"):
        run_tracking(tmp_path / "s", cube_model, qvga_camera, TrackerConfig(), traj.pose(0),
                     out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_cli_track_rejects_a_frame_number_held_twice(tmp_path, cube_model_path, capsys):
    from edgetrack.cli import main

    seq = tmp_path / "s"
    duplicate_frame_sequence(seq, load_model(cube_model_path), standard_camera())
    rc = main(["track", "--model", str(cube_model_path), "--sequence", str(seq),
               "--init", str(seq / GROUND_TRUTH_NAME), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "000001, 000002" in err
    assert not (tmp_path / "run").exists()


def test_run_tracking_missing_frames_raises(tmp_path, cube_model, qvga_camera):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError):
        run_tracking(tmp_path / "empty", cube_model, qvga_camera,
                     TrackerConfig(), PoseSE3(np.zeros(3), np.array([0.0, 0.0, 150.0])))


# ---------------------------------------------------------------------------
# Evaluation.

def write_pose_csv(path, rows):
    save_pose_csv(path, rows)
    return path


def test_evaluate_identity_and_known_shift(tmp_path):
    rng = np.random.default_rng(5)
    rows = []
    for k in range(5):
        rows.append((k, PoseSE3(np.zeros(3), np.array([*rng.uniform(-5, 5, 2), 150.0]))))
    truth = write_pose_csv(tmp_path / "truth.csv", rows)
    same = write_pose_csv(tmp_path / "same.csv", rows)
    rep = evaluate(same, truth)
    assert rep.mean_distance == 0.0 and rep.max_distance == 0.0
    assert rep.per_axis_mae == (0.0, 0.0, 0.0)

    # identity rotation: shifting t by -1 in x moves the camera center +1
    shifted = [(k, PoseSE3(p.omega, p.t - np.array([1.0, 0.0, 0.0]))) for k, p in rows]
    rep = evaluate(write_pose_csv(tmp_path / "shift.csv", shifted), truth)
    assert rep.mean_distance == pytest.approx(1.0)
    assert rep.per_axis_mae[0] == pytest.approx(1.0)
    assert rep.per_axis_mae[1] == pytest.approx(0.0, abs=1e-12)


def test_evaluate_frame_count_mismatch(tmp_path):
    rows = [(k, PoseSE3(np.zeros(3), np.array([0.0, 0.0, 150.0]))) for k in range(3)]
    truth = write_pose_csv(tmp_path / "t.csv", rows)
    short = write_pose_csv(tmp_path / "p.csv", rows[:2])
    with pytest.raises(ValueError):
        evaluate(short, truth)


# ---------------------------------------------------------------------------
# Profiling.

def test_profile_share_accounting():
    from edgetrack.harness import FrameRecord

    records = [
        FrameRecord(frame=k, pose=PoseSE3(np.zeros(3), np.zeros(3)),
                    projected=60, sampled=50, matched=40, err=1.0, iterations=3, attempts=4,
                    lm_stop="rel_decrease",
                    t_total=0.010, t_visible=0.004, t_gray=0.001,
                    t_me=0.003, t_pose=0.001, status="ok")
        for k in range(5)
    ]
    rep = profile(records)
    assert rep.frames == 5
    assert rep.mean_total_ms == pytest.approx(10.0)
    assert rep.shares["visible_edges"] == pytest.approx(40.0)
    assert rep.shares["gray_scaling"] == pytest.approx(10.0)
    assert rep.shares["moving_edges"] == pytest.approx(30.0)
    assert rep.shares["pose_calculation"] == pytest.approx(10.0)
    assert rep.shares["overhead"] == pytest.approx(10.0)
    assert sum(rep.shares.values()) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        profile([])


# ---------------------------------------------------------------------------
# Config files.

def test_parse_config_defaults():
    rc = parse_config(None)
    cam = standard_camera()
    assert rc.camera == cam
    assert rc.tracker.sampling_step == 10.0
    assert rc.tracker.search_range == 8
    assert rc.tracker.gradient_threshold == 10.0
    assert rc.tracker.backend == "float"
    assert rc.coast_frames == 3
    # With no file every value is the dataclasses' own default.
    for b in ("float", "q40_23", "q47_16"):
        assert parse_config(None, backend=b) == RunConfig(standard_camera(), TrackerConfig(backend=b))


def test_parse_config_overrides_and_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# camera\n"
        "fx = 640.5\n"
        "width = 640   # VGA\n"
        "sampling_step = 8\n"
        "search_range = 12\n"
        "lm_max_iter = 25\n"
        "coast_frames = 5\n"
        "\n"
    )
    rc = parse_config(cfg, backend="q40_23")
    assert rc.camera.fx == 640.5 and rc.camera.width == 640
    assert rc.camera.fy == standard_camera().fy
    assert rc.tracker.sampling_step == 8.0
    assert rc.tracker.search_range == 12
    assert rc.tracker.lm_max_iter == 25
    assert rc.tracker.backend == "q40_23"
    assert rc.coast_frames == 5


def test_parse_config_errors_carry_line_numbers(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("fx = 500\nbogus_key = 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_config(cfg)
    cfg.write_text("fx 500\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config(cfg)
    cfg.write_text("width = wide\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config(cfg)
    # A check across values names the last value without which it passes,
    # not a later line that plays no part.
    cfg.write_text("cx = 300\nwidth = 200\nfx = 400\n")
    with pytest.raises(ValueError, match="line 2: principal point outside the image"):
        parse_config(cfg)


@pytest.mark.parametrize("line, match", [
    ("lm_lambda0 = nan", "lambda0"), ("lm_lambda0 = 0", "lambda0"),
    ("lm_max_iter = -3", "lm_max_iter"), ("lm_max_iter = 0", "lm_max_iter"),
    ("coast_frames = -1", "coast_frames"), ("fx = nan", "focal"),
    ("sampling_step = nan", "sampling_step"), ("gradient_threshold = nan", "gradient_threshold"),
    ("search_range = 561", "line 1: search_range must be <= 560 px"),
    ("fx = 500\nsearch_range = 1000000000", "line 2: search_range must be <= 560 px"),
    ("fx = 500\nsampling_step = nan", "sampling_step"), ("width = 100", "principal point"),
    ("fx = 400\ncx = 300\nwidth = 200", "principal point"),
])
def test_parse_config_rejects_unusable_values(line, match, tmp_path):
    # Every rejected value names its line, here the file's last.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(ValueError, match=match) as err:
        parse_config(cfg)
    assert str(err.value).startswith(f"line {line.count(chr(10)) + 1}: ")


def test_parse_config_bounds_search_range_by_its_own_image_size(tmp_path):
    # The bound is the configured width + height, wherever the file sets them.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("search_range = 540\nwidth = 300\n")
    assert parse_config(cfg).tracker.search_range == 540
    cfg.write_text("search_range = 541\nwidth = 300\n")
    with pytest.raises(ValueError, match="line 1: search_range must be <= 540 px"):
        parse_config(cfg)


def test_config_keys_are_the_settings_fields():
    # A field added to a settings dataclass becomes a config key here.
    assert CONFIG_KEYS == {
        "fx": float, "fy": float, "cx": float, "cy": float, "width": int, "height": int,
        "sampling_step": float, "search_range": int, "gradient_threshold": float,
        "lm_max_iter": int, "lm_lambda0": float, "coast_frames": int,
    }


@pytest.mark.parametrize("text, match", [
    # A check across values on line 2 is the first fault, whatever follows.
    ("cx = 300\nwidth = 200\nfx = nan", "line 2: principal point outside the image"),
    # A check across values that a later line clears is no fault.
    ("width = 100\ncx = 50\nfx = nan", "line 3: focal lengths"),
    # Line order across the camera, the tracker and the run's own fields.
    ("sampling_step = nan\nfx = nan", "line 1: sampling_step"),
    ("fx = nan\nlm_max_iter = 0", "line 1: focal lengths"),
    ("lm_max_iter = 0\ncoast_frames = -1", "line 1: lm_max_iter must be >= 1"),
    ("gradient_threshold = 5\ncoast_frames = -1\nfx = nan", "line 2: coast_frames must be >= 0"),
])
def test_parse_config_names_the_line_after_the_longest_accepted_prefix(text, match, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    with pytest.raises(ValueError, match=match):
        parse_config(cfg)


def test_parse_config_accepts_a_camera_in_any_line_order(tmp_path):
    # Only the whole file is checked against the dataclasses: a principal
    # point outside the default image is fine once the file resizes it.
    cfg = tmp_path / "run.cfg"
    for text in ("cx = 320\ncy = 240\nwidth = 640\nheight = 480\n",
                 "width = 64\nheight = 48\ncx = 32\ncy = 24\n"):
        cfg.write_text(text)
        cam = parse_config(cfg).camera
        assert (cam.cx, cam.cy) == (cam.width / 2, cam.height / 2)


def test_parse_config_takes_a_repeated_key_at_its_last_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sampling_step = nan\nsampling_step = 8\n")
    assert parse_config(cfg).tracker.sampling_step == 8.0
    cfg.write_text("sampling_step = 8\nfx = 400\nsampling_step = nan\n")
    with pytest.raises(ValueError, match="line 3: sampling_step"):
        parse_config(cfg)
    # width = 200 is replaced by line 3, so the principal point fits.
    cfg.write_text("width = 200\ncx = 300\nwidth = 640\n")
    assert parse_config(cfg).camera.width == 640


def test_run_config_rejects_negative_coast_frames():
    with pytest.raises(ValueError, match="coast_frames must be >= 0"):
        RunConfig(standard_camera(), TrackerConfig(), coast_frames=-1)
    assert RunConfig(standard_camera(), TrackerConfig(), coast_frames=0).coast_frames == 0


# ---------------------------------------------------------------------------
# CLI.

def test_cli_full_cycle(tmp_path, cube_model_path, capsys):
    from edgetrack.cli import main

    seq = tmp_path / "seq"
    run = tmp_path / "run"
    assert main(["synth", "--model", str(cube_model_path), "--frames", "5",
                 "--out", str(seq), "--seed", "3", "--noise", "2"]) == 0
    assert main(["track", "--model", str(cube_model_path), "--sequence", str(seq),
                 "--init", str(seq / GROUND_TRUTH_NAME), "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert "5 frames" in out and "5 ok" in out
    assert main(["eval", "--poses", str(run / POSES_NAME),
                 "--truth", str(seq / GROUND_TRUTH_NAME)]) == 0
    out = capsys.readouterr().out
    assert "mean camera-center distance" in out
    assert main(["bench", "--model", str(cube_model_path),
                 "--sequence", str(seq)]) == 0
    out = capsys.readouterr().out
    assert "ms/frame" in out and "pose_calculation" in out


def test_cli_reports_errors_as_exit_code(tmp_path, capsys):
    from edgetrack.cli import main

    rc = main(["track", "--model", str(tmp_path / "missing.txt"),
               "--sequence", str(tmp_path), "--init", "0,0,0,0,0,150",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--noise", "-1"], ["--noise", "nan"], ["--occlusion", "1.5"], ["--occlusion", "-0.2"],
])
def test_cli_synth_rejects_invalid_parameters(flags, tmp_path, cube_model_path, capsys):
    from edgetrack.cli import main

    seq = tmp_path / "seq"
    rc = main(["synth", "--model", str(cube_model_path), "--frames", "2",
               "--out", str(seq), *flags])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not seq.exists()


@pytest.mark.parametrize("command", ["synth", "track"])
@pytest.mark.parametrize("model_line, config, match", [
    ("v nan -30 -30", "", "vertex"), ("", "fx = nan", "focal"),
    ("", "sampling_step = nan", "sampling_step"),
    ("", "gradient_threshold = nan", "gradient_threshold"), ("", "lm_lambda0 = nan", "lambda0"),
    ("", "lm_max_iter = -3", "lm_max_iter"), ("", "coast_frames = -1", "coast_frames"),
], ids=["nan_vertex", "nan_fx", "nan_step", "nan_threshold", "nan_lambda0",
        "negative_max_iter", "negative_coast"])
def test_cli_rejects_unusable_model_or_config(command, model_line, config, match, tmp_path,
                                              cube_model_path, capsys):
    from edgetrack.cli import main

    seq = tmp_path / "seq"
    assert main(["synth", "--model", str(cube_model_path), "--frames", "1",
                 "--out", str(seq), "--noise", "0"]) == 0
    model = tmp_path / "bad.model"
    model.write_text(model_line + "\n" + cube_model_path.read_text())
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config + "\n")
    out = tmp_path / "out"
    args = {"synth": ["--frames", "1"],
            "track": ["--sequence", str(seq), "--init", str(seq / GROUND_TRUTH_NAME)]}[command]
    rc = main([command, "--model", str(model), "--config", str(cfg), "--out", str(out), *args])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["track", "bench"])
def test_cli_reads_config_then_model_then_init(command, tmp_path, cube_model_path, capsys):
    # track and bench report the first of their config, model and initial
    # pose that fails, in that order; bench's pose defaults to the first
    # row of the sequence's ground truth.
    from edgetrack.cli import main

    seq = tmp_path / "seq"
    assert main(["synth", "--model", str(cube_model_path), "--frames", "1",
                 "--out", str(seq), "--noise", "0"]) == 0
    (seq / GROUND_TRUTH_NAME).write_text("frame,wx,wy,wz,tx,ty,tz\n")
    bad_cfg, good_cfg = tmp_path / "bad.cfg", tmp_path / "good.cfg"
    bad_cfg.write_text("fx = nan\n")
    good_cfg.write_text("")
    bad_model = tmp_path / "bad.model"
    bad_model.write_text("v nan -30 -30\n" + cube_model_path.read_text())
    out = tmp_path / "out"
    extra = {"track": ["--init", str(seq / GROUND_TRUTH_NAME), "--out", str(out)],
             "bench": []}[command]
    for cfg, model, match in [(bad_cfg, bad_model, "focal"), (good_cfg, bad_model, "vertex"),
                              (good_cfg, cube_model_path, "has no rows")]:
        assert main([command, "--model", str(model), "--config", str(cfg),
                     "--sequence", str(seq), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err
    assert not out.exists()


def test_cli_rejects_non_finite_init(tmp_path, cube_model_path, capsys):
    from edgetrack.cli import main

    seq = tmp_path / "seq"
    assert main(["synth", "--model", str(cube_model_path), "--frames", "1",
                 "--out", str(seq), "--noise", "0"]) == 0
    for backend in ("float", "q40_23"):
        rc = main(["track", "--model", str(cube_model_path), "--sequence", str(seq),
                   "--init", "nan,0,0,0,0,150", "--backend", backend,
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not finite" in err
    assert not (tmp_path / "run").exists()


def test_cli_init_literal(tmp_path, cube_model_path, capsys):
    from edgetrack.cli import main

    seq = tmp_path / "seq"
    assert main(["synth", "--model", str(cube_model_path), "--frames", "2",
                 "--out", str(seq), "--noise", "0"]) == 0
    truth = load_pose_csv(seq / GROUND_TRUTH_NAME)
    p0 = truth[0][1]
    lit = ",".join(repr(float(v)) for v in [*p0.omega, *p0.t])
    run = tmp_path / "run"
    # --init= form: the literal may begin with a minus sign
    assert main(["track", "--model", str(cube_model_path), "--sequence", str(seq),
                 f"--init={lit}", "--out", str(run)]) == 0
    rep = evaluate(run / POSES_NAME, seq / GROUND_TRUTH_NAME)
    assert rep.mean_distance < 1.5


def test_cli_track_rejects_a_search_range_past_the_image(tmp_path, cube_model_path, capsys,
                                                          monkeypatch):
    from edgetrack import cli

    seq = tmp_path / "seq"
    assert cli.main(["synth", "--model", str(cube_model_path), "--frames", "1",
                     "--out", str(seq), "--noise", "0"]) == 0
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("search_range = 1000000000\n")

    def no_tracking(*args, **kwargs):  # the search would allocate 2e9 sites per point
        raise AssertionError("tracking started with an unbounded search range")

    monkeypatch.setattr(cli, "run_tracking", no_tracking)
    out = tmp_path / "out"
    rc = cli.main(["track", "--model", str(cube_model_path), "--config", str(cfg),
                   "--sequence", str(seq), "--init", str(seq / GROUND_TRUTH_NAME),
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: line 1: search_range must be <=")
    assert not out.exists()
