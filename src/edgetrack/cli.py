"""Command-line entry points: synthesize, track, evaluate, bench."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .geometry import PoseSE3, load_model
from .harness import (
    GROUND_TRUTH_NAME,
    POSES_NAME,
    STANDARD_SIGMA,
    evaluate,
    generate_sequence,
    load_pose_csv,
    parse_config,
    profile,
    run_tracking,
    standard_trajectory,
)
from .realmath import BACKEND_NAMES


def _init_pose_from(value: str) -> PoseSE3:
    """Pose from `wx,wy,wz,tx,ty,tz` or from the first row of a pose CSV."""
    path = Path(value)
    if path.exists():
        rows = load_pose_csv(path)
        if not rows:
            raise ValueError(f"pose file {value} has no rows")
        return rows[0][1]
    parts = value.split(",")
    if len(parts) != 6:
        raise ValueError("--init needs 6 comma-separated values or a pose CSV path")
    vals = [float(v) for v in parts]
    return PoseSE3(np.array(vals[0:3]), np.array(vals[3:6]))


def _triple(value: str) -> tuple:
    parts = [float(v) for v in value.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return tuple(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgetrack",
        description="Markerless model-based 3D tracking over synthetic sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic sequence with ground truth")
    p.add_argument("--model", required=True)
    p.add_argument("--config")
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=STANDARD_SIGMA)
    p.add_argument("--radius", type=float, default=None, help="orbit radius, mm")
    p.add_argument("--rate-deg", type=float, default=None, help="degrees per frame")
    p.add_argument("--elevation", type=float, default=None, help="radians")
    p.add_argument("--phase", type=float, default=None, help="radians")
    p.add_argument("--aim", type=_triple, default=None, help="look-at offset, mm triple")
    p.add_argument("--occlusion", type=float, default=0.0,
                   help="fraction of edge pixels hidden by a strip")

    p = sub.add_parser("track", help="track a sequence and write pose/stats CSVs")
    p.add_argument("--model", required=True)
    p.add_argument("--config")
    p.add_argument("--sequence", required=True)
    p.add_argument("--init", required=True,
                   help="`wx,wy,wz,tx,ty,tz` or a pose CSV (first row)")
    p.add_argument("--backend", choices=BACKEND_NAMES, default="float")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-buffers", action="store_true")

    p = sub.add_parser("eval", help="compare a pose CSV against ground truth")
    p.add_argument("--poses", required=True)
    p.add_argument("--truth", required=True)

    p = sub.add_parser("bench", help="track and report per-stage timing shares")
    p.add_argument("--model", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--backend", choices=BACKEND_NAMES, default="float")
    p.add_argument("--config")
    p.add_argument("--init", default=None,
                   help="defaults to the sequence's ground-truth first row")
    return parser


def _cmd_synth(args) -> int:
    run = parse_config(args.config)
    model = load_model(args.model)
    traj = standard_trajectory(args.frames)
    overrides = {
        "radius_mm": args.radius,
        "rate_rad": np.deg2rad(args.rate_deg) if args.rate_deg is not None else None,
        "elevation_rad": args.elevation,
        "phase_rad": args.phase,
        "aim_offset": args.aim,
    }
    traj = replace(traj, **{k: v for k, v in overrides.items() if v is not None})
    count = generate_sequence(model, run.camera, traj, sigma=args.noise,
                              out_dir=args.out, seed=args.seed,
                              occlusion_fraction=args.occlusion)
    print(f"wrote {count} frames and {GROUND_TRUTH_NAME} to {args.out}")
    return 0


def _tracking_inputs(args, default_init=None):
    """The config, model and initial pose of a track or bench command, read
    in that order, so that a bad one exits before anything is written."""
    run = parse_config(args.config, backend=args.backend)
    model = load_model(args.model)
    return run, model, _init_pose_from(args.init if args.init is not None else default_init)


def _cmd_track(args) -> int:
    run, model, init = _tracking_inputs(args)
    records = run_tracking(args.sequence, model, run.camera, run.tracker, init,
                           coast_frames=run.coast_frames, out_dir=args.out,
                           dump_buffers=args.dump_buffers)
    ok = sum(1 for r in records if r.status == "ok")
    lost = sum(1 for r in records if r.status == "lost")
    print(f"tracked {len(records)} frames: {ok} ok, "
          f"{len(records) - ok - lost} coasted, {lost} lost; outputs in {args.out}")
    return 0


def _cmd_eval(args) -> int:
    report = evaluate(args.poses, args.truth)
    print(report.summary())
    return 0


def _cmd_bench(args) -> int:
    run, model, init = _tracking_inputs(args, str(Path(args.sequence) / GROUND_TRUTH_NAME))
    records = run_tracking(args.sequence, model, run.camera, run.tracker, init,
                           coast_frames=run.coast_frames)
    report = profile(records)
    print(f"backend {args.backend}: mean {report.mean_total_ms:.2f} ms/frame "
          f"over {report.frames} frames")
    width = max(len(k) for k in report.shares)
    for stage, share in report.shares.items():
        print(f"  {stage:<{width}}  {share:5.1f} %")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "track": _cmd_track,
        "eval": _cmd_eval,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
