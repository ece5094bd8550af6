"""Control-point sampling and the 1D gradient search."""

import math

import numpy as np
import pytest

from edgetrack.geometry import exp_map_np, log_rotation_np, look_at_pose, pose_words
from edgetrack.imaging import GrayImage
from edgetrack.rasterizer import render_id_buffer
from edgetrack.realmath import get_backend
from edgetrack.tracking import (
    ControlPoint,
    InsufficientMeasurementsError,
    MeasurementSet,
    TrackerConfig,
    _sample_segments,
    bilinear_sample,
    collect_measurements,
    search_correspondence,
)

from conftest import decode_ids, mat_vec, project_np, ref_exp_map, ref_intrinsics, ref_scalars

FLOAT = get_backend("float")
Q40 = get_backend("q40_23")
Q47 = get_backend("q47_16")


def default_cfg(**kw):
    return TrackerConfig(**kw)


def render_at(model, pose, K):
    """The ID render collect_measurements takes: the buffer at the given
    pixels, as the tracker renders it."""
    return lambda pixels: render_id_buffer(model, pose, K, pixels)


def sample_control_points(segment, edge_index, cfg, backend):
    """Control points of one projected segment, a pair of 2D points given
    as floats, laid out by the tracker's array sampling."""
    a, b = (backend.array([[x], [y]]) for x, y in segment)
    seg, _, p, n = _sample_segments(a, b, cfg, backend)
    return [ControlPoint(edge_index=edge_index, p=(p[0, k], p[1, k]), n=(n[0, k], n[1, k]))
            for k in range(len(seg))]


# ---------------------------------------------------------------------------
# Configuration invariants.

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrackerConfig(sampling_step=1.0)
    with pytest.raises(ValueError):
        TrackerConfig(search_range=0)
    with pytest.raises(ValueError):
        TrackerConfig(gradient_threshold=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sampling_step"):
            TrackerConfig(sampling_step=bad)
        with pytest.raises(ValueError, match="gradient_threshold"):
            TrackerConfig(gradient_threshold=bad)
    with pytest.raises(ValueError):
        TrackerConfig(backend="decimal")


# ---------------------------------------------------------------------------
# Sampling.

def test_sampling_hundred_px_horizontal():
    pts = sample_control_points(((0.0, 0.0), (100.0, 0.0)), 0, default_cfg(), FLOAT)
    assert len(pts) == 10
    xs = [p.p[0] for p in pts]
    assert xs == pytest.approx([5.0 + 10.0 * k for k in range(10)])
    assert all(p.p[1] == 0.0 for p in pts)


def test_sampling_zero_length_segment():
    assert sample_control_points(((7.0, 3.0), (7.0, 3.0)), 0, default_cfg(), FLOAT) == []


def test_sampling_quarter_points_on_25px():
    pts = sample_control_points(((0.0, 0.0), (25.0, 0.0)), 0, default_cfg(), FLOAT)
    assert [p.p[0] for p in pts] == pytest.approx([6.25, 18.75])  # t = 0.25, 0.75


def test_sampling_short_segment_rules():
    # below half a step: nothing; at or above: a single midpoint sample
    assert sample_control_points(((0.0, 0.0), (4.9, 0.0)), 0, default_cfg(), FLOAT) == []
    pts = sample_control_points(((0.0, 0.0), (5.0, 0.0)), 0, default_cfg(), FLOAT)
    assert len(pts) == 1 and pts[0].p[0] == pytest.approx(2.5)
    pts = sample_control_points(((0.0, 0.0), (9.0, 0.0)), 0, default_cfg(), FLOAT)
    assert len(pts) == 1 and pts[0].p[0] == pytest.approx(4.5)


def test_sampling_points_and_normals_random_segments():
    rng = np.random.default_rng(31)
    cfg = default_cfg()
    for _ in range(200):
        a = rng.uniform(-50.0, 350.0, 2)
        b = rng.uniform(-50.0, 350.0, 2)
        d = b - a
        length = float(np.hypot(*d))
        pts = sample_control_points((tuple(a), tuple(b)), 4, cfg, FLOAT)
        assert len(pts) == int(length // cfg.sampling_step) or (
            len(pts) == 1 and length >= cfg.sampling_step / 2
        )
        for k, cp in enumerate(pts):
            p = np.array(cp.p)
            n = np.array(cp.n)
            # on the segment, evenly spaced, first point half a gap in
            t = (k + 0.5) / len(pts)
            assert p == pytest.approx(a + t * d, abs=1e-9)
            assert np.hypot(*n) == pytest.approx(1.0, abs=1e-12)
            assert abs(float(np.dot(n, d))) < 1e-6 * length


def test_sampling_normals_unit_in_fixed_backends():
    rng = np.random.default_rng(8)
    for be, tol in ((Q40, 1e-6), (Q47, 1e-4)):
        for _ in range(60):
            a = rng.uniform(0.0, 320.0, 2)
            b = rng.uniform(0.0, 320.0, 2)
            if np.hypot(*(b - a)) < 20.0:
                continue
            pts = sample_control_points((tuple(a), tuple(b)), 0, default_cfg(), be)
            for cp in pts:
                nn = cp.n[0] * cp.n[0] + cp.n[1] * cp.n[1]
                assert abs(be.to_float(nn) - 1.0) < tol


# ---------------------------------------------------------------------------
# Bilinear sampling.

def test_bilinear_matches_reference():
    rng = np.random.default_rng(12)
    img = GrayImage(pixels=rng.integers(0, 256, (40, 50), dtype=np.uint8))
    px = img.pixels.astype(float)
    for _ in range(300):
        x = rng.uniform(0.0, 48.9)
        y = rng.uniform(0.0, 38.9)
        x0, y0 = int(x), int(y)
        fx, fy = x - x0, y - y0
        want = (
            px[y0, x0] * (1 - fx) * (1 - fy)
            + px[y0, x0 + 1] * fx * (1 - fy)
            + px[y0 + 1, x0] * (1 - fx) * fy
            + px[y0 + 1, x0 + 1] * fx * fy
        )
        got = bilinear_sample(img, x, y, FLOAT)
        assert got == pytest.approx(want, abs=1e-9)


def test_bilinear_none_off_image():
    img = GrayImage(pixels=np.zeros((10, 10), dtype=np.uint8))
    assert bilinear_sample(img, -0.5, 5.0, FLOAT) is None
    assert bilinear_sample(img, 5.0, 9.5, FLOAT) is None
    assert bilinear_sample(img, 9.5, 5.0, FLOAT) is None
    assert bilinear_sample(img, 5.0, 5.0, FLOAT) is not None


# ---------------------------------------------------------------------------
# Correspondence search.

def step_image(col: int = 100, w: int = 200, h: int = 100) -> GrayImage:
    img = np.zeros((h, w), dtype=np.uint8)
    img[:, col:] = 255
    return GrayImage(pixels=img)


def test_search_step_edge_example():
    cp = ControlPoint(edge_index=0, p=(97.0, 50.0), n=(1.0, 0.0))
    cp = search_correspondence(step_image(), cp, default_cfg(), FLOAT)
    assert cp.match is not None
    assert 99.0 <= cp.match[0] <= 100.0
    assert cp.match[1] == 50.0
    assert cp.likelihood == pytest.approx(127.5)


def test_search_uniform_image_no_match():
    img = GrayImage(pixels=np.full((60, 60), 128, dtype=np.uint8))
    cp = ControlPoint(edge_index=0, p=(30.0, 30.0), n=(0.0, 1.0))
    cp = search_correspondence(img, cp, default_cfg(), FLOAT)
    assert cp.match is None and cp.likelihood is None


def test_search_threshold_boundary():
    # a linear ramp of slope s has likelihood exactly s everywhere
    for slope, expect in ((9, False), (10, True), (11, True)):
        img = GrayImage(
            pixels=np.clip(np.arange(60) * slope, 0, 255).astype(np.uint8)[None, :]
            * np.ones((40, 1), dtype=np.uint8)
        )
        cp = ControlPoint(edge_index=0, p=(12.0, 20.0), n=(1.0, 0.0))
        cp = search_correspondence(img, cp, default_cfg(), FLOAT)
        assert (cp.match is not None) == expect
        if expect:
            assert cp.likelihood == pytest.approx(slope)


def test_search_integer_shift_follows_edge():
    for col in (95, 98, 103, 105):
        cp = ControlPoint(edge_index=0, p=(97.0, 50.0), n=(1.0, 0.0))
        cp = search_correspondence(step_image(col=col), cp, default_cfg(), FLOAT)
        assert cp.match is not None
        assert cp.match[0] - 97.0 == pytest.approx(col - 0.5 - 97.0, abs=0.5)


def test_search_matches_brute_force_oracle():
    rng = np.random.default_rng(77)
    cfg = default_cfg(gradient_threshold=5.0)
    img = GrayImage(pixels=rng.integers(0, 256, (80, 90), dtype=np.uint8))
    px = img.pixels.astype(float)

    def ref_bilinear(x, y):
        if x < 0 or y < 0 or int(x) + 1 > 89 or int(y) + 1 > 79:
            return None
        x0, y0 = int(np.floor(x)), int(np.floor(y))
        if x0 + 1 > 89 or y0 + 1 > 79:
            return None
        fx, fy = x - x0, y - y0
        return (
            px[y0, x0] * (1 - fx) * (1 - fy)
            + px[y0, x0 + 1] * fx * (1 - fy)
            + px[y0 + 1, x0] * (1 - fx) * fy
            + px[y0 + 1, x0 + 1] * fx * fy
        )

    checked = 0
    for _ in range(250):
        p = rng.uniform(15.0, 65.0, 2)
        ang = rng.uniform(0.0, 2 * np.pi)
        n = (float(np.cos(ang)), float(np.sin(ang)))
        best = None
        for s in sorted(range(-cfg.search_range, cfg.search_range + 1), key=lambda v: (abs(v), v)):
            ia = ref_bilinear(p[0] + (s - 1) * n[0], p[1] + (s - 1) * n[1])
            ib = ref_bilinear(p[0] + (s + 1) * n[0], p[1] + (s + 1) * n[1])
            if ia is None or ib is None:
                continue
            like = abs(ib - ia) / 2.0
            if best is None or like > best[1]:
                best = (s, like)
        cp = ControlPoint(edge_index=0, p=(float(p[0]), float(p[1])), n=n)
        cp = search_correspondence(img, cp, cfg, FLOAT)
        if best is not None and best[1] >= cfg.gradient_threshold:
            assert cp.match is not None
            assert cp.match[0] == pytest.approx(p[0] + best[0] * n[0], abs=1e-9)
            assert cp.match[1] == pytest.approx(p[1] + best[0] * n[1], abs=1e-9)
            checked += 1
        else:
            assert cp.match is None
    assert checked > 100  # the oracle actually exercised matches


def test_search_fixed_float_agree_on_step_edge():
    for be in (Q40, Q47):
        cp = ControlPoint(
            edge_index=0,
            p=(be.array(97.0), be.array(50.0)),
            n=(be.array(1.0), be.array(0.0)),
        )
        cp = search_correspondence(step_image(), cp, default_cfg(), be)
        assert cp.match is not None
        assert be.to_float(cp.match[0]) == pytest.approx(99.0)


# ---------------------------------------------------------------------------
# Full collection against rendered views.

def edge_drawn_image(model, pose, K) -> GrayImage:
    """Visible edges painted as 2px dark bands, enough for the search."""
    from edgetrack.harness import render_frame_gray

    return render_frame_gray(model, pose, K, sigma=0.0)


def test_collect_measurements_counts_and_matches(cube_model, qvga_camera):
    pose = look_at_pose(
        np.array([40.0, -35.0, -130.0]), np.zeros(3), np.array([0.0, 1.0, 0.0])
    )
    render = render_at(cube_model, pose, qvga_camera)
    gray = edge_drawn_image(cube_model, pose, qvga_camera)
    ms = collect_measurements(
        cube_model, *pose_words(pose, FLOAT), qvga_camera, gray, render, default_cfg(), FLOAT
    )
    assert isinstance(ms, MeasurementSet)
    assert ms.n_projected >= ms.n_sampled >= ms.n_matched >= 6
    assert len(ms.edge_index) == len(ms.likelihood) == ms.n_matched
    assert ms.p.shape == ms.n.shape == ms.match.shape == (2, ms.n_matched)
    assert ms.X.shape == (3, ms.n_matched)
    assert np.isfinite(ms.match).all() and np.isfinite(ms.X).all()
    # most visible points should find the drawn edge under zero noise
    assert ms.n_matched >= 0.9 * ms.n_sampled


def test_collect_world_points_reproject_onto_control_points(cube_model, qvga_camera):
    pose = look_at_pose(
        np.array([40.0, -35.0, -130.0]), np.zeros(3), np.array([0.0, 1.0, 0.0])
    )
    render = render_at(cube_model, pose, qvga_camera)
    gray = edge_drawn_image(cube_model, pose, qvga_camera)
    ms = collect_measurements(
        cube_model, *pose_words(pose, FLOAT), qvga_camera, gray, render, default_cfg(), FLOAT
    )
    R = exp_map_np(pose.omega)
    uv, _ = project_np(ms.X.T, R, pose.t, qvga_camera)
    assert uv == pytest.approx(ms.p.T, abs=1e-6)


def test_collect_rear_edges_contribute_nothing(cube_model, qvga_camera):
    # face-on view: the four rear-ring edges are fully hidden
    pose = look_at_pose(
        np.array([0.0, 0.0, -200.0]), np.zeros(3), np.array([0.0, 1.0, 0.0])
    )
    render = render_at(cube_model, pose, qvga_camera)
    gray = edge_drawn_image(cube_model, pose, qvga_camera)
    ms = collect_measurements(
        cube_model, *pose_words(pose, FLOAT), qvga_camera, gray, render, default_cfg(), FLOAT
    )
    assert set(ms.edge_index.tolist()).isdisjoint({4, 5, 6, 7})


def test_collect_blank_image_insufficient(cube_model, qvga_camera):
    pose = look_at_pose(
        np.array([40.0, -35.0, -130.0]), np.zeros(3), np.array([0.0, 1.0, 0.0])
    )
    render = render_at(cube_model, pose, qvga_camera)
    blank = GrayImage(pixels=np.full((240, 320), 255, dtype=np.uint8))
    with pytest.raises(InsufficientMeasurementsError):
        collect_measurements(
            cube_model, *pose_words(pose, FLOAT), qvga_camera, blank, render, default_cfg(), FLOAT
        )


def test_collect_behind_camera_insufficient(cube_model, qvga_camera):
    from edgetrack.geometry import PoseSE3

    pose = PoseSE3(np.zeros(3), np.array([0.0, 0.0, -200.0]))  # model behind
    render = render_at(cube_model, pose, qvga_camera)
    gray = GrayImage(pixels=np.zeros((240, 320), dtype=np.uint8))
    with pytest.raises(InsufficientMeasurementsError):
        collect_measurements(
            cube_model, *pose_words(pose, FLOAT), qvga_camera, gray, render, default_cfg(), FLOAT
        )


def test_collect_fixed_backend_matches_float_counts(cube_model, qvga_camera):
    pose = look_at_pose(
        np.array([40.0, -35.0, -130.0]), np.zeros(3), np.array([0.0, 1.0, 0.0])
    )
    render = render_at(cube_model, pose, qvga_camera)
    gray = edge_drawn_image(cube_model, pose, qvga_camera)
    ms_f = collect_measurements(
        cube_model, *pose_words(pose, FLOAT), qvga_camera, gray, render, default_cfg(), FLOAT
    )
    ms_q = collect_measurements(
        cube_model, *pose_words(pose, Q40), qvga_camera, gray, render, default_cfg(), Q40
    )
    assert ms_q.n_sampled == ms_f.n_sampled
    assert abs(ms_q.n_matched - ms_f.n_matched) <= 2
    # clip and projection arithmetic round differently at 2^-23; a few 1e-4
    # of a pixel is far below the half-pixel matching scale
    n = min(ms_f.n_matched, ms_q.n_matched)
    for pf, pq in zip(ms_f.p, ms_q.p):
        assert Q40.to_float(pq[:n]) == pytest.approx(pf[:n], abs=1e-3)


# ---------------------------------------------------------------------------
# The array stage against per-point scalar references.  These are the
# per-point loops the stage ran before it worked on arrays, on reference
# scalars (ref_scalars); every backend must give the same bits.

def ref_bilinear_sample(gray, x, y, backend):
    floor = ref_scalars(backend).floor_to_int
    x0, y0 = floor(x), floor(y)
    if x0 < 0 or y0 < 0 or x0 + 1 >= gray.width or y0 + 1 >= gray.height:
        return None
    fx = x - x0
    fy = y - y0
    px = gray.pixels
    i00 = int(px[y0, x0])
    i10 = int(px[y0, x0 + 1])
    i01 = int(px[y0 + 1, x0])
    i11 = int(px[y0 + 1, x0 + 1])
    top = i00 + fx * (i10 - i00)
    bottom = i01 + fx * (i11 - i01)
    return top + fy * (bottom - top)


def ref_search(gray, p, n, cfg, backend):
    """(match, likelihood) of one control point; (None, None) without one."""
    r = cfg.search_range
    (px, py), (nx, ny) = p, n
    intensities = {s: ref_bilinear_sample(gray, px + s * nx, py + s * ny, backend)
                   for s in range(-r - 1, r + 2)}
    best_s = best_l = None
    for s in sorted(range(-r, r + 1), key=lambda v: (abs(v), v)):
        before, after = intensities[s - 1], intensities[s + 1]
        if before is None or after is None:
            continue
        likelihood = abs(after - before) / 2
        if best_l is None or likelihood > best_l:
            best_l, best_s = likelihood, s
    if best_l is not None and best_l >= ref_scalars(backend).from_float(cfg.gradient_threshold):
        return (px + best_s * nx, py + best_s * ny), best_l
    return None, None


def ref_is_point_visible(p, edge_index, id_buffer):
    def round_px(v):
        return math.floor(v + 0.5) if v >= 0.0 else math.ceil(v - 0.5)

    x, y = round_px(float(p[0])), round_px(float(p[1]))
    if not (0 <= x < id_buffer.width and 0 <= y < id_buffer.height):
        return False
    for ny in range(max(0, y - 1), min(id_buffer.height, y + 2)):
        for nx in range(max(0, x - 1), min(id_buffer.width, x + 2)):
            if id_buffer.ids[ny, nx] == edge_index:
                return True
    return False


def ref_sample_control_points(segment, cfg, backend):
    """[(t, p)] of one segment, and its normal."""
    ref = ref_scalars(backend)
    (ax, ay), (bx, by) = segment
    dx, dy = bx - ax, by - ay
    length = ref.sqrt(dx * dx + dy * dy)
    step = ref.from_float(cfg.sampling_step)
    n = ref.floor_to_int(length / step)
    if n == 0:
        if not (length + length >= step):
            return [], None
        n = 1
    out = []
    for k in range(n):
        t = ref.from_float(k + 0.5) / ref.from_int(n)
        out.append((t, (ax + t * dx, ay + t * dy)))
    return out, (-(dy / length), dx / length)


def _clip_unit_interval(constraints, backend, t_lo, t_hi):
    """Liang-Barsky style clip: keep t where fa + t*fd >= 0 for all pairs."""
    zero = ref_scalars(backend).zero
    for fa, fd in constraints:
        if fd == zero:
            if fa < zero:
                return None
            continue
        t_cross = -fa / fd
        if fd > zero:
            if t_cross > t_lo:
                t_lo = t_cross
        else:
            if t_cross < t_hi:
                t_hi = t_cross
    if not t_lo < t_hi:
        return None
    return t_lo, t_hi


def ref_clip_near(a, b, near, backend):
    """(a2, b2) of one segment clipped to z >= near (z at index 2), None
    when both ends are behind; the end in front is kept as it is."""
    a_in, b_in = a[2] >= near, b[2] >= near
    if not (a_in or b_in):
        return None
    if a_in and b_in:
        return a, b
    s = (near - a[2]) / (b[2] - a[2])
    moved = tuple(x + s * (y - x) for x, y in zip(a, b))
    return (a, moved) if a_in else (moved, b)


def ref_clip_box(a, d, lo, hi, backend):
    """Span (s0, s1) of one segment a + s d inside lo <= p <= hi, None
    when the clip leaves no interval of positive length."""
    constraints = []
    for a_k, d_k, lo_k, hi_k in zip(a, d, lo, hi):
        constraints += [(a_k - lo_k, d_k), (hi_k - a_k, -d_k)]
    ref = ref_scalars(backend)
    return _clip_unit_interval(constraints, backend, ref.zero, ref.one)


def ref_collect_measurements(model, pose, K, gray, id_buffer, cfg, be):
    """(matched ControlPoints, n_projected, n_sampled) from the per-point loop."""
    from edgetrack.rasterizer import NEAR_PLANE_MM

    ref = ref_scalars(be)
    R = ref_exp_map(tuple(ref.from_float(w) for w in pose.omega), be)
    t = tuple(ref.from_float(v) for v in pose.t)
    Kb = ref_intrinsics(K, be)
    near = ref.from_float(NEAR_PLANE_MM)
    lo, hi = (ref.zero, ref.zero), (ref.from_int(K.width - 1), ref.from_int(K.height - 1))
    matched, n_projected, n_sampled = [], 0, 0
    for i, e in enumerate(model.edges):
        wa = tuple(ref.from_float(c) for c in model.vertices[e[0]])
        wb = tuple(ref.from_float(c) for c in model.vertices[e[1]])
        ca, cb = mat_vec(R, wa), mat_vec(R, wb)
        ca = (ca[0] + t[0], ca[1] + t[1], ca[2] + t[2])
        cb = (cb[0] + t[0], cb[1] + t[1], cb[2] + t[2])
        ends = ref_clip_near((*ca, *wa), (*cb, *wb), near, be)
        if ends is None:
            continue
        a, b = ends
        ca2, wa2, cb2, wb2 = a[:3], a[3:], b[:3], b[3:]
        za2, zb2 = ca2[2], cb2[2]
        ua, va = Kb.fx * ca2[0] / za2 + Kb.cx, Kb.fy * ca2[1] / za2 + Kb.cy
        ub, vb = Kb.fx * cb2[0] / zb2 + Kb.cx, Kb.fy * cb2[1] / zb2 + Kb.cy
        du, dv = ub - ua, vb - va
        span = ref_clip_box((ua, va), (du, dv), lo, hi, be)
        if span is None:
            continue
        t_lo, t_hi = span
        a2 = (ua + t_lo * du, va + t_lo * dv)
        b2 = (ua + t_hi * du, va + t_hi * dv)
        samples, normal = ref_sample_control_points((a2, b2), cfg, be)
        n_projected += len(samples)
        for tk, p in samples:
            if not ref_is_point_visible((ref.to_float(p[0]), ref.to_float(p[1])), i, id_buffer):
                continue
            n_sampled += 1
            t2 = t_lo + tk * (t_hi - t_lo)
            t3 = t2 * za2 / (zb2 + t2 * (za2 - zb2))
            X = tuple(wa2[j] + t3 * (wb2[j] - wa2[j]) for j in range(3))
            match, likelihood = ref_search(gray, p, normal, cfg, be)
            if match is not None:
                matched.append(ControlPoint(edge_index=i, p=p, n=normal, X=X, match=match,
                                            likelihood=likelihood))
    return matched, n_projected, n_sampled


def bits(v):
    """Exact identity of a reference scalar or of a single backend value:
    the raw word or the float."""
    return ("raw", int(v.raw)) if hasattr(v, "raw") else ("float", float(v))


def random_gray(rng, h=60, w=70):
    # Smooth-ish content so a fair share of searches clear the threshold.
    base = rng.integers(0, 256, (h // 6 + 2, w // 6 + 2)).astype(float)
    img = np.kron(base, np.ones((6, 6)))[:h, :w] + rng.normal(0.0, 8.0, (h, w))
    return GrayImage(pixels=np.clip(img, 0, 255).astype(np.uint8))


@pytest.mark.parametrize("be", [FLOAT, Q40, Q47], ids=["float", "q40_23", "q47_16"])
def test_clip_near_matches_scalar_reference(be):
    from edgetrack.geometry import clip_near

    ref = ref_scalars(be)
    rng = np.random.default_rng(404)
    # Depths on both sides of the plane and on it; the rows cover every
    # pair, so segments lie wholly behind, cross either way, end on the
    # plane or lie wholly in front.
    depths = [-40.0, -1.0, 0.0, 0.5, 1.0, 1.0 + 2.0 ** -10, 3.0, 250.0]
    rows = [(za, zb) for za in depths for zb in depths]
    a = [(*rng.uniform(-90.0, 90.0, 2), za, *rng.uniform(-90.0, 90.0, 3)) for za, _ in rows]
    b = [(*rng.uniform(-90.0, 90.0, 2), zb, *rng.uniform(-90.0, 90.0, 3)) for _, zb in rows]
    live, ca, cb = clip_near(*(be.array([[p[j] for p in end] for j in range(6)])
                               for end in (a, b)), be.array(1.0), be)
    a = [tuple(ref.from_float(float(v)) for v in p) for p in a]
    b = [tuple(ref.from_float(float(v)) for v in p) for p in b]
    want = [ref_clip_near(pa, pb, ref.from_float(1.0), be) for pa, pb in zip(a, b)]
    assert live.tolist() == [i for i, w in enumerate(want) if w is not None]
    for k, i in enumerate(live.tolist()):
        for got, ref in zip((ca, cb), want[i]):
            assert [bits(got[j, k]) for j in range(6)] == [bits(v) for v in ref]
    # 4 depths lie behind the plane and 4 on or in front of it.
    assert sum(w is None for w in want) == 16
    assert sum(w is not None and w != (pa, pb) for w, pa, pb in zip(want, a, b)) == 32


@pytest.mark.parametrize("be", [FLOAT, Q40, Q47], ids=["float", "q40_23", "q47_16"])
def test_clip_box_matches_scalar_reference(be):
    from edgetrack.geometry import clip_box

    ref = ref_scalars(be)
    rng = np.random.default_rng(405)
    cases = [
        ((3.0, 2.0), (0.0, 3.0)),  # flat in x, inside
        ((-1.0, 2.0), (0.0, 3.0)),  # flat in x, outside
        ((3.0, 7.0), (4.0, 0.0)),  # flat in y, outside
        ((4.0, 4.0), (0.0, 0.0)),  # a point inside
        ((12.0, 4.0), (0.0, 0.0)),  # a point outside
        ((0.0, 0.0), (9.0, 6.0)),  # ends on the box corners
        ((9.0, 3.0), (-9.0, 0.0)),  # ends on the borders, descending
        ((-1.0, -1.0), (1.0, 1.0)),  # touches a corner: a zero-length span
        ((9.0, 6.0), (2.0, -3.0)),  # leaves from a corner: a zero-length span
        ((-5.0, 3.0), (20.0, 0.0)),  # crosses the box rising
        ((15.0, 3.0), (-20.0, 0.0)),  # crosses the box falling
        ((-3.0, 8.0), (16.0, -11.0)),  # crosses diagonally
        # Outside in x, so y is never divided: its crossings would
        # overflow both fixed-point formats.
        ((-5.0, 1e10), (0.0, 2.0 ** -16)),
    ]
    # Half-pixel grid: many crossings land exactly on the borders.
    cases += [(tuple(rng.integers(-6, 25, 2) * 0.5), tuple(rng.integers(-16, 17, 2) * 0.5))
              for _ in range(400)]
    for lo, hi in (((0.0, 0.0), (9.0, 6.0)), ((-1.5, -1.5), (10.5, 7.5))):
        s0, s1, meets = clip_box(be.array([[c[0][j] for c in cases] for j in range(2)]),
                                 be.array([[c[1][j] for c in cases] for j in range(2)]),
                                 tuple(map(be.array, lo)), tuple(map(be.array, hi)), be)
        lo_b, hi_b = tuple(ref.from_float(v) for v in lo), tuple(ref.from_float(v) for v in hi)
        a = [tuple(ref.from_float(v) for v in c[0]) for c in cases]
        d = [tuple(ref.from_float(v) for v in c[1]) for c in cases]
        spans = empty = 0
        for k, (pa, pd) in enumerate(zip(a, d)):
            want = ref_clip_box(pa, pd, lo_b, hi_b, be)
            if want is None:
                # The scalar clip also drops a span of length zero.
                assert not meets[k] or bits(s0[k]) == bits(s1[k]), cases[k]
                empty += bool(meets[k])
            else:
                assert meets[k] and (bits(s0[k]), bits(s1[k])) == tuple(map(bits, want)), cases[k]
                spans += 1
        assert spans > 150 and len(cases) - spans > 100 and empty >= 2


@pytest.mark.parametrize("be", [FLOAT, Q40, Q47], ids=["float", "q40_23", "q47_16"])
def test_bilinear_and_search_match_scalar_reference(be):
    ref = ref_scalars(be)
    rng = np.random.default_rng(401)
    gray = random_gray(rng)
    cfg = default_cfg()
    hits = misses = off = 0
    for _ in range(150):
        # Positions reach past the image so some samples fall off it.
        xy = rng.uniform(-4.0, 74.0, 2).tolist()
        x, y = map(ref.from_float, xy)
        want = ref_bilinear_sample(gray, x, y, be)
        got = bilinear_sample(gray, *map(be.array, xy), be)
        assert (got is None) == (want is None)
        off += got is None
        if got is not None:
            assert bits(got) == bits(want)
        ang = rng.uniform(0.0, 2 * np.pi)
        n = (float(np.cos(ang)), float(np.sin(ang)))
        match, likelihood = ref_search(gray, (x, y), tuple(map(ref.from_float, n)), cfg, be)
        cp = ControlPoint(edge_index=0, p=tuple(map(be.array, xy)), n=tuple(map(be.array, n)))
        cp = search_correspondence(gray, cp, cfg, be)
        if match is None:
            assert cp.match is None and cp.likelihood is None
            misses += 1
        else:
            assert [bits(v) for v in cp.match] == [bits(v) for v in match]
            assert bits(cp.likelihood) == bits(likelihood)
            hits += 1
    assert hits > 20 and misses > 5 and off > 5


@pytest.mark.parametrize("be", [FLOAT, Q40, Q47], ids=["float", "q40_23", "q47_16"])
def test_search_ties_prefer_nearest_then_negative_offset(be):
    # Intensity symmetric about x = 30: the likelihoods at s and -s are
    # equal, so only the tie order decides the side of the match.
    for profile in ((0, 0, 0, 200, 200, 0, 0, 0), (0, 90, 90, 90, 0, 0, 0, 0)):
        row = np.full(61, 255, dtype=np.uint8)
        row[22:30] = profile
        row[31:39] = profile[::-1]
        gray = GrayImage(pixels=np.tile(row, (40, 1)))
        p, n = (30.0, 20.0), (1.0, 0.0)
        ref = ref_scalars(be)
        match, likelihood = ref_search(gray, tuple(map(ref.from_float, p)),
                                       tuple(map(ref.from_float, n)), default_cfg(), be)
        cp = ControlPoint(edge_index=0, p=tuple(map(be.array, p)), n=tuple(map(be.array, n)))
        cp = search_correspondence(gray, cp, default_cfg(), be)
        assert ref.to_float(match[0]) < 30.0
        assert [bits(v) for v in cp.match] == [bits(v) for v in match]
        assert bits(cp.likelihood) == bits(likelihood)


def test_visibility_matches_scalar_reference(cube_model, qvga_camera):
    from edgetrack.rasterizer import is_point_visible, neighbourhoods, neighbourhoods_visible

    def points_visible(pts, edges, id_buffer):
        # The composition collect_measurements runs.
        flat = neighbourhoods(pts.T, id_buffer.width, id_buffer.height)
        return neighbourhoods_visible(flat, edges, id_buffer)

    rng = np.random.default_rng(402)
    pose = look_at_pose(np.array([40.0, -35.0, -130.0]), np.zeros(3), np.array([0.0, 1.0, 0.0]))
    id_buf = render_id_buffer(cube_model, pose, qvga_camera)
    uv, _ = project_np(cube_model.vertices, exp_map_np(pose.omega), pose.t, qvga_camera)
    pts, edges = [], []
    for i, (a, b) in enumerate(cube_model.edges):
        for s in rng.uniform(-0.1, 1.1, 40):
            pts.append(uv[a] + s * (uv[b] - uv[a]) + rng.uniform(-2.0, 2.0, 2))
            edges.append(i)
    # Ties at half pixels, both signs, and the image border.
    pts += [(-0.5, 10.0), (0.5, 10.0), (-1.5, 3.0), (319.5, 20.0), (318.5, 239.5), (-0.49, -0.49)]
    edges += [0] * 6
    pts = np.array(pts)
    want = [ref_is_point_visible(p, e, id_buf) for p, e in zip(pts, edges)]
    got = points_visible(pts, np.array(edges), id_buf)
    assert got.tolist() == want
    assert [is_point_visible(p, e, id_buf) for p, e in zip(pts, edges)] == want
    assert 100 < sum(want) < len(want) - 100

    # Random small buffers, points on the half-pixel grid: rounding ties of
    # both signs and every border neighbourhood.
    from edgetrack.rasterizer import IdBuffer, id_buffer_to_image

    for _ in range(20):
        buf = IdBuffer(7, 5)
        ids = rng.integers(-1, 3, (5, 7))
        for (y, x), i in np.ndenumerate(ids):
            if i >= 0:
                buf.ids[y, x] = i
        assert np.array_equal(decode_ids(id_buffer_to_image(buf).pixels), ids)
        pts = rng.integers(-5, 17, (60, 2)) * 0.5
        edges = rng.integers(0, 3, 60)
        want = [ref_is_point_visible(p, e, buf) for p, e in zip(pts, edges)]
        assert points_visible(pts, edges, buf).tolist() == want


@pytest.mark.parametrize("be", [FLOAT, Q40, Q47], ids=["float", "q40_23", "q47_16"])
def test_collect_measurements_matches_scalar_reference(be, cube_model, qvga_camera):
    from conftest import random_convex_model, random_orbit_pose
    from edgetrack.harness import render_frame_gray
    from test_harness import corridor_scene

    rng = np.random.default_rng(403)
    scenes = [(cube_model, look_at_pose(np.array([40.0, -35.0, -130.0]), np.zeros(3),
                                        np.array([0.0, 1.0, 0.0])))]
    scenes += [(random_convex_model(rng), random_orbit_pose(rng, (90.0, 160.0))) for _ in range(2)]
    scenes.append(corridor_scene())  # four edges cross the near plane in view
    cfg = default_cfg()
    for model, pose in scenes:
        gray = render_frame_gray(model, pose, qvga_camera, sigma=3.0, rng=rng)
        # Track from a pose off the truth, as a tracker does.
        start = perturbed_start(pose, rng)
        id_buf = render_id_buffer(model, start, qvga_camera)
        want, n_projected, n_sampled = ref_collect_measurements(
            model, start, qvga_camera, gray, id_buf, cfg, be)
        render = render_at(model, start, qvga_camera)
        ms = collect_measurements(model, *pose_words(start, be), qvga_camera, gray, render, cfg, be)
        assert (ms.n_projected, ms.n_sampled, ms.n_matched) == (n_projected, n_sampled, len(want))
        for k, ref in enumerate(want):
            assert ms.edge_index[k] == ref.edge_index
            for field in ("p", "n", "X", "match"):
                got, want_point = getattr(ms, field), getattr(ref, field)
                assert [bits(got[j, k]) for j in range(len(want_point))] == list(map(bits, want_point))
            assert bits(ms.likelihood[k]) == bits(ref.likelihood)


def measurement_bytes(ms):
    """Every column's words or floats as bytes, and the counters."""
    columns = (ms.edge_index, ms.p, ms.n, ms.X, ms.match, ms.likelihood)
    return [np.asarray(getattr(c, "raw", c)).tobytes() for c in columns], ms.n_projected, ms.n_sampled


@pytest.mark.parametrize("be", [FLOAT, Q40, Q47], ids=["float", "q40_23", "q47_16"])
def test_collect_at_read_pixels_matches_full_buffer(be, tmp_path, cube_model, qvga_camera):
    # The seed-5 standard frames, each measured from the previous frame's
    # true pose: the render at the pixels the visibility test reads gives
    # the MeasurementSet of the full buffer, byte for byte.
    from edgetrack.harness import generate_sequence, standard_trajectory
    from edgetrack.imaging import frame_filename, load_image

    K = qvga_camera
    traj = standard_trajectory()
    generate_sequence(cube_model, K, traj, sigma=2.0, out_dir=tmp_path, seed=5)
    cfg = default_cfg()
    for k in range(traj.frames):
        gray = load_image(tmp_path / frame_filename(k))
        pose = traj.pose(max(k - 1, 0))
        full = render_id_buffer(cube_model, pose, K)
        R, t = pose_words(pose, be)
        want = collect_measurements(cube_model, R, t, K, gray, lambda pixels: full, cfg, be)
        render = render_at(cube_model, pose, K)
        got = collect_measurements(cube_model, R, t, K, gray, render, cfg, be)
        assert measurement_bytes(got) == measurement_bytes(want)
        assert want.n_matched >= 6


@pytest.mark.parametrize("name", ["q40_23", "q47_16"])
def test_tracking_builds_no_fixed_point_scalar(name, tmp_path, cube_model, monkeypatch):
    # Ten seed-5 standard frames: arrays and words carry every fixed-point
    # number the tracker forms, and no path builds a FixedPoint, the
    # tests' reference scalar.
    from edgetrack import realmath
    from edgetrack.harness import (
        generate_sequence,
        run_tracking,
        standard_camera,
        standard_trajectory,
    )

    K, traj = standard_camera(), standard_trajectory(10)
    generate_sequence(cube_model, K, traj, sigma=2.0, out_dir=tmp_path, seed=5)
    built = []
    init = realmath.FixedPoint.__init__
    monkeypatch.setattr(realmath.FixedPoint, "__init__",
                        lambda self, raw: built.append(raw) or init(self, raw))
    records = run_tracking(tmp_path, cube_model, K, TrackerConfig(backend=name), traj.pose(0))
    assert [r.status for r in records] == ["ok"] * 10
    assert built == []


@pytest.mark.parametrize("name", ["q40_23", "q47_16"])
def test_tracking_converts_run_constants_once(name, tmp_path, cube_model, monkeypatch):
    # Ten seed-5 standard frames: the intrinsics, the model's vertices and
    # the settings are converted to the backend once per run, on the first
    # frame, so every later frame makes at most one FixedBackend.array
    # call, for its sample counts.  solve_lm's loop constants (the two
    # tolerances, the damping scale and cap, zero and lambda0) and
    # exp_map's 1 are converted to words once per backend, so no later
    # frame converts any of them: it converts only the prediction's six
    # numbers, once for both measurement and LM.
    from edgetrack import harness, pose_estimation, realmath
    from edgetrack.harness import generate_sequence, run_tracking, standard_camera, standard_trajectory

    constants = {*pose_estimation._TOLERANCES[True], pose_estimation._LAMBDA_SCALE,
                 pose_estimation._LAMBDA_MAX, 0.0, pose_estimation.LMSettings().lambda0, 1.0}
    K, traj = standard_camera(), standard_trajectory(10)
    generate_sequence(cube_model, K, traj, sigma=2.0, out_dir=tmp_path, seed=5)
    calls, words, per_frame = [], [], []
    array, word, track_frame = realmath.FixedBackend.array, realmath._float_word, harness.track_frame

    def counted_array(self, values):
        calls.append(1)
        start = len(words)
        try:
            return array(self, values)
        finally:
            del words[start:]  # counted as the array call, not as words

    monkeypatch.setattr(realmath.FixedBackend, "array", counted_array)
    monkeypatch.setattr(realmath, "_float_word", lambda v, fmt: words.append(v) or word(v, fmt))

    def counted_frame(*args):
        start, first = len(calls), len(words)
        try:
            return track_frame(*args)
        finally:
            per_frame.append((len(calls) - start, words[first:]))

    monkeypatch.setattr(harness, "track_frame", counted_frame)
    records = run_tracking(tmp_path, cube_model, K, TrackerConfig(backend=name), traj.pose(0))
    assert [r.status for r in records] == ["ok"] * 10
    arrays = [n for n, _ in per_frame]
    assert len(per_frame) == 10 and arrays[0] <= 9
    assert max(arrays[1:]) <= 1
    assert [len(w) for _, w in per_frame[1:]] == [6] * 9
    assert [v for _, w in per_frame[1:] for v in w if v in constants] == []


def perturbed_start(pose, rng):
    from conftest import perturbed_pose

    return perturbed_pose(pose, np.radians(1.0), 1.5, rng)
