#!/usr/bin/env python3
"""Paired stage timing of a parent commit and the working tree, in one process.

Usage, from the repository root:

    python3 tools/stage_ab.py --parent HEAD --frames 60 --passes 12

Both trees' ``src/edgetrack`` are loaded into this one process under two
package names (the parent's from ``git archive``, or from ``--parent-src``),
so both sides share one interpreter, one heap and one CPU state: runs in
separate processes on a shared host can disagree by more than the change
being measured.

On the standard cube sequence (``benchmarks/models.cube_text``, sigma 2,
``--seed``, default 5) each backend's ``run_tracking`` passes alternate
between the sides, and so does the side that goes first.  The synth stage
does the same for ``render_frame_gray`` + ``save_image`` of every frame, on
the cube and on the icosphere of the synth_ico workload.  The tool exits 1
unless both sides give byte-identical poses and per-frame counters, and
byte-identical frame files.  It prints, per backend, the medians over frames
of each frame's fastest pass for t_total, t_visible, t_me and t_pose, and
per synth model the median of each frame's fastest render-and-save time, in
ms, parent then change.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
STAGES = ("t_total", "t_visible", "t_me", "t_pose")
# The per-frame record fields that both sides must reproduce exactly.
COUNTERS = ("frame", "status", "projected", "sampled", "matched", "iterations", "attempts",
            "lm_stop", "err")


def load_package(alias: str, pkg_dir: Path):
    """The package in pkg_dir imported as ``alias``, with its harness and
    geometry modules."""
    spec = importlib.util.spec_from_file_location(
        alias, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    for name in ("harness", "geometry"):
        importlib.import_module(f"{alias}.{name}")
    return package


def parent_package_dir(rev: str, dest: Path) -> Path:
    """src/edgetrack of rev, extracted under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/edgetrack"],
                             capture_output=True, check=True, timeout=120).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True, timeout=120)
    return dest / "src" / "edgetrack"


def load_models():
    spec = importlib.util.spec_from_file_location("bench_models", ROOT / "benchmarks" / "models.py")
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    return {"cube": models.cube_text(), "icosphere": models.icosphere_text()}


class Side:
    """One tree's package, with the models and camera built by it."""

    def __init__(self, package, model_files: dict):
        self.h = package.harness
        self.geometry = package.geometry
        self.config = package.TrackerConfig  # the top-level name, wherever the class lives
        self.models = {name: self.geometry.load_model(path) for name, path in model_files.items()}
        self.camera = self.h.standard_camera()

    def track(self, seq: Path, backend: str, init):
        cfg = self.config(backend=backend)
        pose = self.geometry.PoseSE3(np.array(init.omega), np.array(init.t))
        return self.h.run_tracking(seq, self.models["cube"], self.camera, cfg, pose)

    def synth(self, model: str, traj, seed: int, out: Path) -> list:
        """Render and save every frame of traj as generate_sequence does;
        per-frame seconds."""
        h, times = self.h, []
        out.mkdir(parents=True, exist_ok=True)
        for k in range(traj.frames):
            t0 = time.perf_counter()
            frame = h.render_frame_gray(self.models[model], traj.pose(k), self.camera,
                                        sigma=h.STANDARD_SIGMA,
                                        rng=np.random.default_rng([seed, k]))
            h.save_image(frame, out / h.frame_filename(k))
            times.append(time.perf_counter() - t0)
        return times


def record_key(r) -> tuple:
    """A record's pose bytes and counters, which both sides must share."""
    pose = np.concatenate([np.asarray(r.pose.omega, np.float64), np.asarray(r.pose.t, np.float64)])
    return (pose.tobytes(), *(repr(getattr(r, c)) for c in COUNTERS))


def ms_median(per_pass: list) -> float:
    """Median over frames of each frame's fastest pass, in ms."""
    return 1e3 * statistics.median(min(frame) for frame in zip(*per_pass))


def orders(passes: int):
    """The side order of each pass: alternating which side goes first."""
    return [SIDES if k % 2 == 0 else SIDES[::-1] for k in range(passes)]


def row(label: str, parent: float, change: float) -> str:
    return f"{label:<22}{parent:9.3f}{change:9.3f}{100.0 * (change / parent - 1.0):+8.1f}%"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--parent-src", type=Path,
                    help="an edgetrack package directory to load as the parent instead")
    ap.add_argument("--frames", type=int, default=60)
    ap.add_argument("--passes", type=int, default=12)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--backends", nargs="+", default=["float", "q40_23", "q47_16"])
    ap.add_argument("--synth", nargs="*", default=["cube", "icosphere"],
                    help="models to time render_frame_gray + save_image on")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="stage_ab_") as tmp:
        work = Path(tmp)
        parent_dir = args.parent_src or parent_package_dir(args.parent, work / "parent")
        model_files = {}
        for name, text in load_models().items():
            model_files[name] = work / f"{name}.model"
            model_files[name].write_text(text)
        sides = {"parent": Side(load_package("edgetrack_parent", Path(parent_dir).resolve()),
                                model_files),
                 "change": Side(load_package("edgetrack_change", ROOT / "src" / "edgetrack"),
                                model_files)}
        change = sides["change"]
        traj = change.h.standard_trajectory(args.frames)
        seq = work / "seq"
        change.h.generate_sequence(change.models["cube"], change.camera, traj,
                                   change.h.STANDARD_SIGMA, seq, seed=args.seed)
        init = change.h.load_pose_csv(seq / change.h.GROUND_TRUTH_NAME)[0][1]
        identical = True
        print(f"{'ms, median of fastest':<22}{'parent':>9}{'change':>9}{'delta':>9}")

        for backend in args.backends:
            times = {s: {stage: [] for stage in STAGES} for s in SIDES}
            first = None  # the first pass's records, which every pass must repeat
            for order in orders(args.passes):
                for s in order:
                    records = sides[s].track(seq, backend, init)
                    for stage in STAGES:
                        times[s][stage].append([getattr(r, stage) for r in records])
                    keys = [record_key(r) for r in records]
                    first = first or keys
                    if keys != first:
                        identical = False
                        print(f"{backend}: the {s} side's poses or counters differ")
            for stage in STAGES:
                print(row(f"{backend} {stage}", *(ms_median(times[s][stage]) for s in SIDES)))

        for model in args.synth:
            times = {s: [] for s in SIDES}
            for order in orders(args.passes):
                for s in order:
                    times[s].append(sides[s].synth(model, traj, args.seed, work / f"{model}_{s}"))
            for k in range(traj.frames):
                name = change.h.frame_filename(k)
                if ((work / f"{model}_parent" / name).read_bytes()
                        != (work / f"{model}_change" / name).read_bytes()):
                    identical = False
                    print(f"synth {model}: frame {k} differs between the sides")
                    break
            print(row(f"synth {model} frame", *(ms_median(times[s]) for s in SIDES)))

    print("identical outputs" if identical else "OUTPUTS DIFFER")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
