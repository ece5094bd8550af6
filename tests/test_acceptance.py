"""The ten release checks, one test per criterion, shared heavy fixtures.

Every numeric bound here is part of the library's contract on the standard
desk-scale scene: a 60 mm cube orbited at 150 mm, QVGA at fx=fy=500,
60 frames at 0.5 deg/frame, sensor noise sigma=2.  Each test prints one
PASS line with the measured numbers (visible under ``pytest -s``); the
test outcome itself is the pass/fail signal.
"""

import time

import numpy as np
import pytest

from edgetrack.geometry import exp_map_np, load_model, pose_words
from edgetrack.harness import (
    GROUND_TRUTH_NAME,
    POSES_NAME,
    STATS_NAME,
    evaluate,
    generate_sequence,
    load_pose_csv,
    profile,
    run_tracking,
    standard_camera,
    standard_trajectory,
)
from edgetrack.pose_estimation import TrackerConfig, solve_lm
from edgetrack.rasterizer import (
    MAX_EDGE_ID,
    CapacityError,
    encode_id_array,
    is_point_visible,
    render_id_buffer,
)
from edgetrack.realmath import get_backend

from conftest import (
    columns,
    cube_model_text,
    decode_ids,
    perturbed_pose,
    pose_errors,
    project_np,
    random_convex_model,
    random_orbit_pose,
    residual_jacobian,
    synthetic_measurements,
    visibility_oracle,
)
from test_pose_estimation import numeric_row, random_configs

SEQUENCE_SEED = 5
FLOAT = get_backend("float")


# ---------------------------------------------------------------------------
# Shared artifacts: one sequence, one tracked run per backend.

@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def cube60(work_dir):
    path = work_dir / "cube.model"
    path.write_text(cube_model_text(60.0))
    return load_model(path)


@pytest.fixture(scope="module")
def camera():
    return standard_camera()


@pytest.fixture(scope="module")
def standard_seq(work_dir, cube60, camera):
    traj = standard_trajectory()
    out = work_dir / "seq"
    generate_sequence(cube60, camera, traj, sigma=2.0, out_dir=out, seed=SEQUENCE_SEED)
    return {"dir": out, "traj": traj}


def tracked_run(standard_seq, cube60, camera, backend, out_dir):
    cfg = TrackerConfig(backend=backend)
    t0 = time.perf_counter()
    records = run_tracking(
        standard_seq["dir"], cube60, camera, cfg,
        standard_seq["traj"].pose(0), out_dir=out_dir,
    )
    elapsed = time.perf_counter() - t0
    report = evaluate(out_dir / POSES_NAME, standard_seq["dir"] / GROUND_TRUTH_NAME)
    return {"records": records, "elapsed": elapsed, "out": out_dir, "report": report}


@pytest.fixture(scope="module")
def float_run(standard_seq, cube60, camera, work_dir):
    return tracked_run(standard_seq, cube60, camera, "float", work_dir / "run_float")


@pytest.fixture(scope="module")
def q40_run(standard_seq, cube60, camera, work_dir):
    return tracked_run(standard_seq, cube60, camera, "q40_23", work_dir / "run_q40")


@pytest.fixture(scope="module")
def q47_run(standard_seq, cube60, camera, work_dir):
    return tracked_run(standard_seq, cube60, camera, "q47_16", work_dir / "run_q47")


# ---------------------------------------------------------------------------
# 1. Edge-ID codec, exhaustive.

def test_criterion_01_codec_exhaustive():
    t0 = time.perf_counter()
    ids = np.arange(MAX_EDGE_ID + 1)
    colors = encode_id_array(ids)
    assert not (colors % 8).any()
    assert np.array_equal(decode_ids(colors), ids)
    for bad in (MAX_EDGE_ID + 1, -1):
        with pytest.raises(CapacityError):
            encode_id_array(bad)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 1: {MAX_EDGE_ID + 1} ids round-trip, "
          f"channels multiples of 8, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. Visibility vs. ray-casting oracle.

def test_criterion_02_visibility_oracle_agreement(camera):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    agree = total = 0
    for _ in range(10):
        model = random_convex_model(rng)
        for _ in range(20):
            pose = random_orbit_pose(rng)
            id_buf = render_id_buffer(model, pose, camera)
            R, t = pose.rotation(), pose.t
            for i, e in enumerate(model.edges):
                a, b = model.vertices[e[0]], model.vertices[e[1]]
                uv_ab, z_ab = project_np(np.stack([a, b]), R, t, camera)
                if not (z_ab > 1.0).all():
                    continue
                length = float(np.hypot(*(uv_ab[1] - uv_ab[0])))
                count = int(length // 10.0)
                for k in range(count):
                    s = (k + 0.5) / count
                    p3d = a + s * (b - a)
                    uv, z = project_np(p3d[None, :], R, t, camera)
                    u, v = uv[0]
                    if not (z[0] > 1.0 and 3 <= u < camera.width - 3
                            and 3 <= v < camera.height - 3):
                        continue
                    total += 1
                    agree += is_point_visible(uv[0], i, id_buf) == visibility_oracle(model, pose, p3d)
    elapsed = time.perf_counter() - t0
    rate = agree / total
    assert total > 2000
    assert rate >= 0.99
    assert elapsed < 30.0
    print(f"PASS criterion 2: {agree}/{total} sampled control points agree "
          f"({100 * rate:.2f}%), {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. Analytic Jacobian vs. finite differences.

def test_criterion_03_jacobian_finite_differences():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    for K, R, t, X, n, q in random_configs(rng, 1000):
        Rb = tuple(tuple(float(v) for v in row) for row in R)
        row = np.array(residual_jacobian(tuple(X), Rb, tuple(t), K, n, FLOAT))
        fd = numeric_row(X, R, t, K, n, q)
        rel = np.max(np.abs(row - fd)) / max(1.0, np.max(np.abs(fd)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 5.0
    print(f"PASS criterion 3: 1000 configurations, max relative error "
          f"{worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 4. Exact recovery from a perturbed start.

def test_criterion_04_exact_recovery(cube60, camera):
    from edgetrack.geometry import look_at_pose

    pose = look_at_pose(
        np.array([60.0, -45.0, -120.0]), np.zeros(3), np.array([0.0, 1.0, 0.0])
    )
    ms = synthetic_measurements(cube60, pose, camera)
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    ok = 0
    for _ in range(100):
        start = perturbed_pose(pose, np.radians(2.0), 3.0, rng)
        out, _, _, _, _ = solve_lm(columns(ms, FLOAT), *pose_words(start, FLOAT),
                                   camera, TrackerConfig(), FLOAT)
        ang, dist = pose_errors(out, pose)
        ok += ang < 1e-3 and dist < 1e-2
    elapsed = time.perf_counter() - t0
    assert ok >= 99
    assert elapsed < 10.0
    print(f"PASS criterion 4: {ok}/100 trials recovered within "
          f"1e-3 rad / 1e-2 mm, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5. End-to-end accuracy on the standard sequence.

def test_criterion_05_end_to_end_accuracy(float_run):
    rep = float_run["report"]
    assert all(r.status == "ok" for r in float_run["records"])
    assert rep.mean_distance <= 6.12
    assert all(v <= 5.0 for v in rep.per_axis_mae)
    assert float_run["elapsed"] < 60.0
    x, y, z = rep.per_axis_mae
    print(f"PASS criterion 5: mean camera-center distance {rep.mean_distance:.2f} mm "
          f"(max {rep.max_distance:.2f}); per-axis MAE x={x:.2f} y={y:.2f} z={z:.2f} mm; "
          f"{float_run['elapsed']:.1f} s")


# ---------------------------------------------------------------------------
# 6. Control-point count sanity.

def test_criterion_06_point_count_band(float_run):
    counts = [r.sampled for r in float_run["records"]]
    mean = float(np.mean(counts))
    assert 30.0 <= mean <= 90.0
    print(f"PASS criterion 6: mean sampled control points {mean:.1f}/frame "
          f"(range {min(counts)}-{max(counts)})")


# ---------------------------------------------------------------------------
# 7. Fixed-point fidelity.

def test_criterion_07_fixed_point_fidelity(float_run, q40_run, q47_run):
    assert all(r.status == "ok" for r in q40_run["records"])
    assert all(r.status == "ok" for r in q47_run["records"])
    f_err = float_run["report"].mean_distance
    q40_err = q40_run["report"].mean_distance
    q47_err = q47_run["report"].mean_distance
    assert q40_err <= 2.0 * f_err

    # The coarser format works harder: trial-step totals (accepted plus
    # rejected solves) order robustly. The final-error ratio hovers near 1
    # and flips with the noise seed, so it is reported, not asserted.
    q40_work = sum(r.attempts for r in q40_run["records"])
    q47_work = sum(r.attempts for r in q47_run["records"])
    assert q47_work >= q40_work
    assert q40_run["elapsed"] + q47_run["elapsed"] < 300.0
    print(f"PASS criterion 7: Q40.23 mean error {q40_err:.2f} mm <= 2x float "
          f"{f_err:.2f} mm; Q47.16 recorded: {q47_err:.2f} mm, "
          f"{q47_work} LM trial steps vs Q40.23's {q40_work} "
          f"({q47_work / 60:.2f} vs {q40_work / 60:.2f} per frame); "
          f"error ratio Q47/Q40 {q47_err / q40_err:.4f}")


def test_lm_damping_never_reaches_zero(standard_seq, cube60, camera, monkeypatch):
    # On Q47.16 lambda0 = 1e-3 is the word 66, which two accepted steps
    # divide to 6 and a third division would take to 0, a damping that no
    # rejection could raise (0 x 10 = 0).  Frames 6 to 8 of the sequence
    # solve a third time after two accepted steps: lambda stays at 6.
    from edgetrack import pose_estimation
    from edgetrack.imaging import load_image
    from edgetrack.pose_estimation import track_frame

    be = get_backend("q47_16")
    lams = []
    solve_linear6 = pose_estimation._solve_linear6

    def record_lambda(A, g, lam, backend):
        lams.append(lam)
        return solve_linear6(A, g, lam, backend)

    monkeypatch.setattr(pose_estimation, "_solve_linear6", record_lambda)
    cfg = TrackerConfig(backend="q47_16")
    pose = standard_seq["traj"].pose(0)
    per_frame = []
    for path in sorted(standard_seq["dir"].glob("*.pgm"))[:9]:
        start = len(lams)
        pose, _ = track_frame(pose, load_image(path), cube60, camera, cfg)
        per_frame.append(lams[start:])
    w = be.words
    assert w.from_float(1e-3) == 66 and w.div(6, w.from_float(10.0)) == 0
    assert all(run[:2] == [66, 6] for run in per_frame)
    assert per_frame[6:] == [[66, 6, 6]] * 3
    assert 0 not in lams


# ---------------------------------------------------------------------------
# 8. Performance envelope.

def test_criterion_08_performance_envelope(float_run):
    rep = profile(float_run["records"])
    assert rep.mean_total_ms <= 64.0
    records = float_run["records"]
    stage_ms = {
        "visible edges": np.mean([r.t_visible for r in records]) * 1e3,
        "gray scaling": np.mean([r.t_gray for r in records]) * 1e3,
        "moving edges": np.mean([r.t_me for r in records]) * 1e3,
        "pose calculation": np.mean([r.t_pose for r in records]) * 1e3,
    }
    lines = [f"    {name:<18} {ms:6.2f} ms  {rep.shares[name.replace(' ', '_')]:5.1f}%"
             for name, ms in stage_ms.items()]
    lines.append(f"    {'overhead':<18} {'':>9}  {rep.shares['overhead']:5.1f}%")
    print(f"PASS criterion 8: mean {rep.mean_total_ms:.2f} ms/frame <= 64 ms; "
          "per-stage breakdown (shares reported, not asserted):\n" + "\n".join(lines))


# ---------------------------------------------------------------------------
# 9. Occlusion robustness.

def test_criterion_09_occlusion_robustness(work_dir, cube60, camera):
    traj = standard_trajectory()
    seq = work_dir / "seq_occluded"
    generate_sequence(cube60, camera, traj, sigma=2.0, out_dir=seq,
                      seed=SEQUENCE_SEED, occlusion_fraction=0.2)
    out = work_dir / "run_occluded"
    records = run_tracking(seq, cube60, camera, TrackerConfig(), traj.pose(0),
                           out_dir=out)
    assert all(r.status == "ok" for r in records)
    rep = evaluate(out / POSES_NAME, seq / GROUND_TRUTH_NAME)
    assert rep.mean_distance <= 2.0 * 6.12
    print(f"PASS criterion 9: 20% of edge pixels occluded every frame; "
          f"60/60 frames ok, mean error {rep.mean_distance:.2f} mm <= 12.24 mm")


# ---------------------------------------------------------------------------
# 10. Determinism.

def test_criterion_10_determinism(standard_seq, cube60, camera, work_dir,
                                  float_run, q40_run):
    rerun_q40 = tracked_run(standard_seq, cube60, camera, "q40_23",
                            work_dir / "run_q40_again")
    a = (q40_run["out"] / POSES_NAME).read_bytes()
    b = (rerun_q40["out"] / POSES_NAME).read_bytes()
    assert a == b

    rerun_f = tracked_run(standard_seq, cube60, camera, "float",
                          work_dir / "run_float_again")
    first = load_pose_csv(float_run["out"] / POSES_NAME)
    second = load_pose_csv(rerun_f["out"] / POSES_NAME)
    worst = 0.0
    for (ka, pa), (kb, pb) in zip(first, second):
        assert ka == kb
        diff = max(
            float(np.max(np.abs(pa.omega - pb.omega))),
            float(np.max(np.abs(pa.t - pb.t))),
        )
        worst = max(worst, diff)
    assert worst <= 1e-12
    print(f"PASS criterion 10: Q40.23 pose CSV bit-identical across runs; "
          f"float runs agree within {worst:.1e} (<= 1e-12)")


# ---------------------------------------------------------------------------
# Golden pose digests.

# sha256 of poses.csv of the fixed-point runs above.  Fixed-point arithmetic
# is exact, so any change to these bytes is a change of behaviour.  Each
# frame's pose still passes through float code (the exp-map vector via
# log_rotation_np); the digests were recorded on x86-64 Linux.  Float runs
# depend on the platform's libm throughout and have no digest.
GOLDEN_POSE_SHA256 = {
    "q40_23": "84a4161803f14277c9331de27d093507be028149442cdbdfd6f7713f52b6c6d8",
    "q47_16": "d85e50da7fc614a4b1155a35acee00cdf62e7d6c48e73b71a532809100131006",
}


def test_fixed_point_poses_match_golden_digests(q40_run, q47_run):
    import hashlib

    for name, run in (("q40_23", q40_run), ("q47_16", q47_run)):
        digest = hashlib.sha256((run["out"] / POSES_NAME).read_bytes()).hexdigest()
        assert digest == GOLDEN_POSE_SHA256[name], name


# sha256 of the non-timing columns of stats.csv of the same runs: the
# measurement and LM counters, the residual sum and the status of every
# frame.  The selected columns of each row are joined by commas, the rows
# (header first) by newlines.
STATS_DIGEST_COLUMNS = ("frame", "sampled", "matched", "err", "iters", "status", "projected",
                        "attempts", "lm_stop")
GOLDEN_STATS_SHA256 = {
    "q40_23": "37f57b80fb86e3d48b5d51b75f92d1b7004994474e21a549eac7f9bf4736d9d5",
    "q47_16": "ac19addc751ee3e6c1553da8a7227e692662ecfe0ec80b2448ab70471415c91b",
}


def stats_digest(path) -> str:
    import hashlib

    rows = [line.split(",") for line in path.read_text().splitlines()]
    at = [rows[0].index(name) for name in STATS_DIGEST_COLUMNS]
    text = "\n".join(",".join(row[i] for i in at) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_fixed_point_stats_match_golden_digests(q40_run, q47_run):
    for name, run in (("q40_23", q40_run), ("q47_16", q47_run)):
        assert stats_digest(run["out"] / STATS_NAME) == GOLDEN_STATS_SHA256[name], name
