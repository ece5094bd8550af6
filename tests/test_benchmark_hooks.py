"""The traced benchmark run wraps program functions by module attribute
name; renaming or deleting one of those names, or calling one other than
through that attribute, must fail here, not only in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("workload", ["cube_float", "synth_ico"])
def test_benchmark_trace_patches_find_their_names(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCH_DIR / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    from spans import Patches, Tracer

    bench = run.Bench(workload, 5, tmp_path)
    tracer = Tracer()
    with Patches() as patches:
        bench.trace_patches(patches, tracer)
        if bench.workload.kind == "track":
            bench.count_patches(patches, tracer)
        assert patches._saved


def test_track_frame_measures_through_the_wrapped_module_attribute(cube_model, qvga_camera,
                                                                   monkeypatch):
    # The traced run times measurement by replacing tracking.collect_measurements,
    # so track_frame has to look the name up on the tracking module at each call.
    from edgetrack import tracking
    from edgetrack.geometry import look_at_pose
    from edgetrack.harness import render_frame_gray
    from edgetrack.pose_estimation import TrackerConfig, track_frame

    calls, collect = [], tracking.collect_measurements
    monkeypatch.setattr(tracking, "collect_measurements",
                        lambda *args: calls.append(1) or collect(*args))
    pose = look_at_pose(np.array([60.0, -45.0, -120.0]), np.zeros(3), np.array([0.0, 1.0, 0.0]))
    gray = render_frame_gray(cube_model, pose, qvga_camera, sigma=0.0)
    track_frame(pose, gray, cube_model, qvga_camera, TrackerConfig())
    assert calls == [1]
