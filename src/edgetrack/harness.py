"""Synthetic sequences, end-to-end tracking runs, and their evaluation.

The generator renders the model's visible edges as dark anti-aliased lines
on a white background, every visible run of a frame in one array pass, adds
sensor noise, and writes the ground-truth pose of every frame; the accuracy
oracle is that pose file, never the images.  The runner replays a
sequence through track_frame with a bounded coasting policy; a frame's
record (``FrameRecord``) is the FrameStats track_frame returns plus the
runner's frame number, pose, status, frame time and gray-scaling time.
Evaluation compares camera centers against the truth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .geometry import (
    BehindCameraError,
    CameraIntrinsics,
    PoseSE3,
    WireframeModel,
    look_at_pose,
)
from .imaging import (
    ColorImage,
    GrayImage,
    ImageFormatError,
    frame_filename,
    load_image,
    save_image,
    to_gray,
)
from .pose_estimation import (
    DegenerateGeometryError,
    FrameSizeError,
    FrameStats,
    TrackerConfig,
    track_frame,
)
from .rasterizer import (
    depth_buffer_to_image,
    id_buffer_to_image,
    render_depth_buffer,
    render_id_buffer,
)
from .realmath import MathDomainError, MathOverflowError
from .tracking import InsufficientMeasurementsError

GROUND_TRUTH_NAME = "ground_truth.csv"
POSES_NAME = "poses.csv"
STATS_NAME = "stats.csv"

POSE_COLUMNS = "frame,wx,wy,wz,tx,ty,tz"
STATS_COLUMNS = (
    "frame,sampled,matched,err,iters,t_total_ms,t_visible_ms,"
    "t_gray_ms,t_me_ms,t_pose_ms,status,projected,attempts,lm_stop"
)

# Desk-scale defaults: every headline accuracy number refers to this setup.
STANDARD_SIDE_MM = 60.0
STANDARD_RADIUS_MM = 150.0
STANDARD_RATE_RAD = math.radians(0.5)
STANDARD_FRAMES = 60
STANDARD_SIGMA = 2.0


def standard_camera() -> CameraIntrinsics:
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=160.0, cy=120.0, width=320, height=240)


# ---------------------------------------------------------------------------
# Trajectories.

@dataclass
class OrbitTrajectory:
    """Camera circling the world origin at fixed radius and elevation.

    ``aim_offset`` shifts the look-at point away from the orbit center so
    the model can sit off-center (or partially out of frame) while the
    camera distance stays fixed.
    """

    frames: int
    radius_mm: float = STANDARD_RADIUS_MM
    rate_rad: float = STANDARD_RATE_RAD
    elevation_rad: float = 0.45
    phase_rad: float = 0.35
    aim_offset: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.frames < 0:
            raise ValueError("frame count must be >= 0")
        if self.radius_mm <= 0:
            raise ValueError("orbit radius must be positive")

    def pose(self, index: int) -> PoseSE3:
        theta = self.phase_rad + self.rate_rad * index
        ce = math.cos(self.elevation_rad)
        camera = self.radius_mm * np.array(
            [ce * math.cos(theta), math.sin(self.elevation_rad), ce * math.sin(theta)]
        )
        return look_at_pose(camera, self.aim_offset, down=np.array([0.0, 1.0, 0.0]))


def standard_trajectory(frames: int = STANDARD_FRAMES) -> OrbitTrajectory:
    """The desk-scale orbit every headline number refers to.

    Elevation, phase, and the off-center aim are chosen so a typical frame
    samples 60-90 visible control points at the default 10 px spacing.
    """
    return OrbitTrajectory(frames=frames, aim_offset=(32.0, 24.0, 0.0))


# ---------------------------------------------------------------------------
# Sequence generation.

def _visible_runs(model: WireframeModel, pose: PoseSE3, K: CameraIntrinsics):
    """Visible parts of each edge as 2D sub-segments: (2, N) arrays of
    their start and end points (x, y).

    Walks the ID buffer along the edge trace it was rendered from and keeps
    maximal runs of steps the edge owns, so the drawn lines inherit the
    rasterizer's hidden-line decisions.
    """
    id_buf = render_id_buffer(model, pose, K)
    tr = id_buf.trace
    inside = (tr.x >= 0) & (tr.x < K.width) & (tr.y >= 0) & (tr.y < K.height)
    flat = np.where(inside, tr.y * K.width + tr.x, 0)  # off-image steps read pixel 0
    owned = inside & (np.take(id_buf.ids.reshape(-1), flat) == tr.edge)
    # A run starts at an owned step whose predecessor in the same edge is
    # not owned, and ends at one whose successor is not.
    chained = owned[1:] & owned[:-1] & (tr.edge[1:] == tr.edge[:-1])
    first = np.flatnonzero(owned & ~np.append(False, chained))
    last = np.flatnonzero(owned & ~np.append(chained, False))
    e = tr.edge[first]
    pad = 0.5 / tr.steps[e]  # half a step
    t0 = np.maximum(0.0, tr.s[first] - pad)
    t1 = np.minimum(1.0, tr.s[last] + pad)
    pa, pb = np.take(tr.pa, e, axis=1), np.take(tr.pb, e, axis=1)
    return pa + t0 * (pb - pa), pa + t1 * (pb - pa)


# Candidate pixels on each side of a run, across its major axis.
_BAND = 2


def _draw_runs(img: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Darken the anti-aliased band of every segment a[:, i]-b[:, i] at once.

    Intensity ramps 0..255 over point-to-segment distance 0.5..1.5 px,
    giving a dark line an effective width of 2 px; overlapping segments
    keep the darkest shade.  img is a C-contiguous uint8 image, changed in
    place; a and b are (2, N) arrays of end points, (x, y) per column.

    Only pixels closer than 1.5 px to a segment change, so any candidate
    set that holds those gives the same image.  Along its major axis a
    segment takes every pixel of its bounding box grown by 2 px and
    clipped to the image; across, the pixels within _BAND of c(m), the
    segment's coordinate at the major position m clamped to the segment.
    That covers the 1.5 px band: a pixel (m, n) closer than 1.5 px to the
    segment point (p, c(p)) has |m - p| + |n - c(p)| < 1.5 * sqrt(2), and
    the segment's slope across is at most 1, so |n - c(m)| < 2.13 and n
    lies within _BAND = 2 of c(m) rounded.  Candidates past the image edge are
    clamped onto it; they are image pixels, so their own shade is exact.
    """
    h, w = img.shape
    flat = img.reshape(-1)
    size = np.array([[w], [h]])
    d = b - a
    lo = np.clip(np.floor(np.minimum(a, b) - 2), 0, size).astype(np.int64)
    hi = np.clip(np.ceil(np.maximum(a, b) + 2), -1, size - 1).astype(np.int64)
    steep = np.abs(d[1]) > np.abs(d[0])
    for major, sel in ((0, ~steep), (1, steep)):
        minor = 1 - major
        count = np.maximum(0, hi[major, sel] - lo[major, sel] + 1)
        seg = np.flatnonzero(sel).repeat(count)
        if not len(seg):
            continue
        m = np.arange(len(seg)) + np.repeat(lo[major, sel] - (np.cumsum(count) - count), count)
        sa, sd = np.take(a, seg, axis=1), np.take(d, seg, axis=1)
        t = (m - sa[major]) / np.where(sd[major] == 0.0, np.inf, sd[major])
        c = sa[minor] + np.clip(t, 0.0, 1.0) * sd[minor]
        n = np.rint(c).astype(np.int64)[:, None] + np.arange(-_BAND, _BAND + 1)
        np.clip(n, 0, (w, h)[minor] - 1, out=n)
        m = m[:, None]
        x, y = (m, n) if major == 0 else (n, m)
        # One segment's per-pixel arithmetic, operation for operation, with
        # its end points broadcast along the band.  A zero-length segment
        # divides by inf instead: tau = +-0 leaves the distance to its point.
        xs, ys = x.astype(float), y.astype(float)
        ax, ay, dx, dy = (v[:, None] for v in (*sa, *sd))
        dd = dx * dx + dy * dy
        dd[dd == 0.0] = np.inf
        tau = ((xs - ax) * dx + (ys - ay) * dy) / dd
        tau = np.clip(tau, 0.0, 1.0)
        dist = np.hypot(xs - (ax + tau * dx), ys - (ay + tau * dy))
        shade = np.clip((dist - 0.5) * 255.0, 0.0, 255.0).astype(np.uint8)
        np.minimum.at(flat, (y * w + x).ravel(), shade.ravel())


def occlude_strip(img: np.ndarray, fraction: float):
    """White out a vertical strip holding the middle `fraction` of the
    drawn edge pixels, by column-count quantiles; mutates img."""
    ys, xs = np.nonzero(img < 255)
    if xs.size == 0:
        return
    lo = float(np.quantile(xs, 0.5 - fraction / 2.0))
    hi = float(np.quantile(xs, 0.5 + fraction / 2.0))
    img[:, int(math.floor(lo)) : int(math.ceil(hi)) + 1] = 255


def _check_synthesis(sigma: float, occlusion_fraction: float):
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"noise sigma must be finite and >= 0, got {sigma}")
    if not 0.0 <= occlusion_fraction <= 1.0:
        raise ValueError(f"occlusion fraction must be in [0, 1], got {occlusion_fraction}")


def render_frame_gray(model: WireframeModel, pose: PoseSE3, K: CameraIntrinsics,
                      sigma: float = 0.0, rng=None,
                      occlusion_fraction: float = 0.0) -> GrayImage:
    """One synthetic frame: visible edges as dark AA lines plus noise.

    All visible runs are drawn in one array pass (_draw_runs); Gaussian
    noise of standard deviation sigma is added, rounded and clipped to
    8 bits.  Raises ValueError unless sigma is finite and >= 0 and the
    occlusion fraction is in [0, 1].
    """
    _check_synthesis(sigma, occlusion_fraction)
    img = np.full((K.height, K.width), 255, dtype=np.uint8)
    _draw_runs(img, *_visible_runs(model, pose, K))
    if occlusion_fraction > 0.0:
        occlude_strip(img, occlusion_fraction)
    if sigma > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        noisy = rng.normal(0.0, sigma, img.shape)
        noisy += img
        np.rint(noisy, out=noisy)
        np.clip(noisy, 0, 255, out=noisy)
        img = noisy.astype(np.uint8)
    return GrayImage(pixels=img)


def save_pose_csv(path, rows, header_lines=()):
    """Rows of (frame, PoseSE3) to CSV; repr-precision floats."""
    lines = [f"# {h}" for h in header_lines]
    lines.append(POSE_COLUMNS)
    for idx, pose in rows:
        vals = [repr(float(v)) for v in (*pose.omega, *pose.t)]
        lines.append(f"{idx}," + ",".join(vals))
    Path(path).write_text("\n".join(lines) + "\n")


def load_pose_csv(path):
    """List of (frame, PoseSE3) from a pose CSV, `#` comments skipped."""
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("frame"):
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ValueError(f"pose CSV row needs 7 columns: {line!r}")
        idx = int(parts[0])
        vals = [float(v) for v in parts[1:]]
        rows.append((idx, PoseSE3(np.array(vals[0:3]), np.array(vals[3:6]))))
    return rows


def generate_sequence(model: WireframeModel, K: CameraIntrinsics, traj,
                      sigma: float, out_dir, seed: int = 0,
                      occlusion_fraction: float = 0.0) -> int:
    """Write PGM frames plus the ground-truth pose CSV; returns frame count.

    Deterministic for a given seed; each frame's noise derives from
    (seed, frame index) so frames are independent of generation order.
    A nonzero occlusion_fraction hides that share of the drawn edge pixels
    behind a background-colored strip in every frame.
    """
    _check_synthesis(sigma, occlusion_fraction)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for k in range(traj.frames):
        pose = traj.pose(k)
        rng = np.random.default_rng([seed, k]) if sigma > 0.0 else None
        frame = render_frame_gray(model, pose, K, sigma=sigma, rng=rng,
                                  occlusion_fraction=occlusion_fraction)
        save_image(frame, out / frame_filename(k))
        rows.append((k, pose))
    save_pose_csv(out / GROUND_TRUTH_NAME, rows,
                  header_lines=[f"seed = {seed}", f"sigma = {sigma}"])
    return traj.frames


# ---------------------------------------------------------------------------
# Tracking runs.

# A failed frame's stats: no counts, no residual, no LM stop, no stage time.
_NO_STATS = FrameStats(projected=0, sampled=0, matched=0, err=math.nan, iterations=0,
                       attempts=0, lm_stop="", t_visible=0.0, t_me=0.0, t_pose=0.0)


@dataclass
class FrameRecord(FrameStats):
    """One frame of a run: track_frame's FrameStats, ``_NO_STATS`` on a
    failed frame, plus the runner's fields."""

    frame: int
    pose: PoseSE3
    status: str  # ok, coast or lost
    t_total: float  # from the start of the image load to the end of the frame, seconds
    t_gray: float  # colour-to-gray conversion, seconds


def _sequence_frames(sequence_dir) -> list:
    """The frame_*.pgm and frame_*.ppm files of a sequence, in name order.

    ValueError when a frame number has both files: the records would no
    longer line up with the ground-truth rows.
    """
    frames = sorted(Path(sequence_dir).glob("frame_*.p[gp]m"))
    if not frames:
        raise FileNotFoundError(f"no frame_*.pgm or frame_*.ppm files under {sequence_dir}")
    twice = [a.stem[len("frame_"):] for a, b in zip(frames, frames[1:]) if a.stem == b.stem]
    if twice:
        raise ValueError(f"frame numbers {', '.join(twice)} under {sequence_dir} "
                         "have both a .pgm and a .ppm file")
    return frames


def run_tracking(sequence_dir, model: WireframeModel, K: CameraIntrinsics,
                 cfg: TrackerConfig, init_pose: PoseSE3, coast_frames: int = 3,
                 out_dir=None, dump_buffers: bool = False) -> list:
    """Track every frame of a sequence; returns the per-frame records.

    Failed frames coast on the previous pose for up to coast_frames in a
    row, then report status "lost"; the run always covers every file.  A
    frame fails on an image file that cannot be opened (OSError) or read, a
    frame of the wrong size, too few matches, degenerate geometry, a
    fixed-point overflow or domain error, or a point projected behind the
    camera.
    When out_dir is set, writes the pose and stats CSVs (and optionally the
    ID/depth buffers per frame).
    """
    records = []
    pose = init_pose.copy()
    coasted = 0
    for idx, path in enumerate(_sequence_frames(sequence_dir)):
        t_start = time.perf_counter()
        t_gray = 0.0
        try:
            image = load_image(path)
            t_loaded = time.perf_counter()
            gray = to_gray(image) if isinstance(image, ColorImage) else image
            t_gray = time.perf_counter() - t_loaded
            pose, stats = track_frame(pose, gray, model, K, cfg)
            coasted = 0
            status = "ok"
        except (OSError, ImageFormatError, FrameSizeError, InsufficientMeasurementsError,
                DegenerateGeometryError, MathOverflowError, MathDomainError, BehindCameraError):
            coasted += 1
            status = "coast" if coasted <= coast_frames else "lost"
            stats = _NO_STATS
        t_total = time.perf_counter() - t_start
        records.append(FrameRecord(**vars(stats), frame=idx, pose=pose.copy(), status=status,
                                   t_total=t_total, t_gray=t_gray))
        if dump_buffers and out_dir is not None:
            bdir = Path(out_dir) / "buffers"
            bdir.mkdir(parents=True, exist_ok=True)
            id_buf = render_id_buffer(model, pose, K)
            depth_buf = render_depth_buffer(model, pose, K)
            save_image(id_buffer_to_image(id_buf), bdir / f"frame_{idx:06d}_id.ppm")
            save_image(depth_buffer_to_image(depth_buf), bdir / f"frame_{idx:06d}_depth.pgm")
    if out_dir is not None:
        write_run_outputs(out_dir, records)
    return records


def write_run_outputs(out_dir, records):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_pose_csv(out / POSES_NAME, [(r.frame, r.pose) for r in records])
    lines = [STATS_COLUMNS]
    for r in records:
        lines.append(
            f"{r.frame},{r.sampled},{r.matched},{r.err:.6f},{r.iterations},"
            f"{r.t_total * 1e3:.3f},{r.t_visible * 1e3:.3f},{r.t_gray * 1e3:.3f},"
            f"{r.t_me * 1e3:.3f},{r.t_pose * 1e3:.3f},{r.status},{r.projected},{r.attempts},{r.lm_stop}"
        )
    (out / STATS_NAME).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Evaluation and profiling.

@dataclass
class EvaluationReport:
    frames: int
    per_frame: np.ndarray  # (N, 3) camera-center deltas, mm
    per_axis_mae: tuple
    mean_distance: float
    max_distance: float

    def summary(self) -> str:
        x, y, z = self.per_axis_mae
        return (
            f"{self.frames} frames; mean camera-center distance "
            f"{self.mean_distance:.3f} mm (max {self.max_distance:.3f}); "
            f"per-axis mean absolute error x={x:.3f} y={y:.3f} z={z:.3f} mm"
        )


def evaluate(pose_csv, truth_csv) -> EvaluationReport:
    """Camera-center accuracy of a tracked run against ground truth."""
    poses = load_pose_csv(pose_csv)
    truth = load_pose_csv(truth_csv)
    if len(poses) != len(truth):
        raise ValueError(
            f"frame-count mismatch: {len(poses)} poses vs {len(truth)} truth rows"
        )
    deltas = []
    for (_, a), (_, b) in zip(poses, truth):
        deltas.append(a.camera_center() - b.camera_center())
    deltas = np.asarray(deltas, dtype=float).reshape(len(poses), 3)
    dists = np.linalg.norm(deltas, axis=1) if len(deltas) else np.zeros(0)
    mae = tuple(float(v) for v in np.mean(np.abs(deltas), axis=0)) if len(deltas) else (0.0, 0.0, 0.0)
    return EvaluationReport(
        frames=len(poses),
        per_frame=deltas,
        per_axis_mae=mae,
        mean_distance=float(np.mean(dists)) if len(dists) else 0.0,
        max_distance=float(np.max(dists)) if len(dists) else 0.0,
    )


@dataclass
class ProfileReport:
    frames: int
    mean_total_ms: float
    shares: dict  # stage -> percentage of mean total


def profile(records) -> ProfileReport:
    """Mean frame time and per-stage shares of the four pipeline stages."""
    if not records:
        raise ValueError("profile needs at least one tracked frame")
    total = float(np.mean([r.t_total for r in records]))
    stages = {
        "visible_edges": float(np.mean([r.t_visible for r in records])),
        "gray_scaling": float(np.mean([r.t_gray for r in records])),
        "moving_edges": float(np.mean([r.t_me for r in records])),
        "pose_calculation": float(np.mean([r.t_pose for r in records])),
    }
    shares = {k: (100.0 * v / total if total > 0 else 0.0) for k, v in stages.items()}
    used = sum(shares.values())
    shares["overhead"] = max(0.0, 100.0 - used)
    return ProfileReport(frames=len(records), mean_total_ms=total * 1e3, shares=shares)


# ---------------------------------------------------------------------------
# Config files.

@dataclass
class RunConfig:
    """A run's settings; the config keys are the fields of its settings
    dataclasses and its own (CONFIG_KEYS)."""

    camera: CameraIntrinsics
    tracker: TrackerConfig
    coast_frames: int = 3

    def __post_init__(self):
        if self.coast_frames < 0:
            raise ValueError("coast_frames must be >= 0")


def _field_types(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# The settings dataclasses a RunConfig holds, by field, each as {field: type}.
_SECTIONS = {name: _field_types(kind) for name, kind in _field_types(RunConfig).items()
             if is_dataclass(kind)}
# The config keys: their fields, bar the backend, which the CLI's --backend
# sets, and RunConfig's own.
CONFIG_KEYS = {key: kind for keys in (*_SECTIONS.values(), _field_types(RunConfig))
               for key, kind in keys.items() if key not in {"backend", *_SECTIONS}}


def _configured(run: RunConfig, values: dict) -> RunConfig:
    """run with the config values set, each in the dataclass that owns it;
    ValueError when a dataclass rejects them, or lm_max_iter < 1."""
    if values.get("lm_max_iter", 1) < 1:
        # with no LM step every frame would report ok at the predicted pose
        raise ValueError("lm_max_iter must be >= 1")
    parts = {name: replace(getattr(run, name), **{k: values[k] for k in keys if k in values})
             for name, keys in _SECTIONS.items()}
    own = {f.name: values[f.name] for f in fields(run) if f.name in values}
    return replace(run, **parts, **own)


def parse_config(path=None, backend: str = "float") -> RunConfig:
    """Key = value config file over the standard defaults; unknown keys fail.

    A repeated key takes its last line.  A rejected file names the line
    after its longest prefix that is accepted, with that line's error; a
    search_range above the configured width + height names its own line.
    """
    values, lines = {}, {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"line {lineno}: expected `key = value`, got {line!r}")
            key, _, raw = body.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"line {lineno}: unknown config key {key!r}")
            values.pop(key, None)  # a repeated key moves to its last line
            try:
                values[key] = CONFIG_KEYS[key](raw.strip())
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad value for {key}: {raw.strip()!r}") from exc
            lines[key] = lineno
    base = RunConfig(standard_camera(), TrackerConfig(backend=backend))
    items = list(values.items())  # in the order of their lines
    error = None
    for n in range(len(items), -1, -1):  # the whole file first; no values always pass
        try:
            run = _configured(base, dict(items[:n]))
            break
        except ValueError as exc:
            error = exc
    if error is not None:
        raise ValueError(f"line {lines[items[n][0]]}: {error}") from error
    # Every offset past width + height lies off the image, yet the search would allocate it.
    limit = run.camera.width + run.camera.height
    if values.get("search_range", 0) > limit:
        raise ValueError(f"line {lines['search_range']}: search_range must be <= {limit} px")
    return run
