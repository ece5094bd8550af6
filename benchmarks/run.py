#!/usr/bin/env python3
"""edgetrack benchmark: frame latency, accuracy and failures per workload.

Usage, from the repository root:

    python3 benchmarks/run.py --workload cube_float --seed 5 --seconds 30 --trace 0

Workloads are named in WORKLOADS and explained in benchmarks/NOTES.md.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Either way the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics, and any failed output
check makes the exit code 1. Each run also writes its result and host facts
to .bench_results/, and a traced run its spans. ``--record-digests`` stores
the synth_ico frame digests for the seed's sequences instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

perf_counter = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
DIGESTS_PATH = BENCH_DIR / "synth_digests.json"

# One process, one thread: native thread pools are pinned before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Criterion 5 bounds the mean camera-center error of a run; a single frame
# counts as failed beyond twice that bound, whatever status it reports.
MEAN_ERROR_LIMIT_MM = 6.12
FRAME_ERROR_LIMIT_MM = 2.0 * MEAN_ERROR_LIMIT_MM
# p90 needs at least ten samples beyond it.
MIN_FRAMES = 100
# Each frame's latency is the fastest of its repeats: bursts of load from
# other processes on the host slow single passes, and the fastest drops them.
MIN_REPEATS = 2
SETUP_PROBES = 9
SEED_STRIDE = 1000  # sequence k of workload seed s uses seed s + k * SEED_STRIDE
HARD_STOP_S = 120.0  # stop measuring even if the run is not yet complete


@dataclass(frozen=True)
class Workload:
    kind: str  # "track": time run_tracking; "synth": time generate_sequence
    model: str  # "cube" or "icosphere"
    backend: str
    pool: int  # distinct 60-frame sequences per untraced run


WORKLOADS = {
    "cube_float": Workload("track", "cube", "float", 2),
    "cube_q40_23": Workload("track", "cube", "q40_23", 4),
    "synth_ico": Workload("synth", "icosphere", "float", 2),
}

END_TO_END_UNITS = {
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "frames_per_s": "1/s",
    "mean_error_mm": "mm",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_FRAME = "count/frame"
# realmath.fixed_ops sums the arithmetic and comparison groups; constructions
# (realmath.new) are reported on their own.
FIXED_OPS = ("mul", "div", "add_sub", "cmp")


@dataclass
class Sequence:
    seed: int
    path: Path
    init: object = None  # PoseSE3 from the first ground-truth row


class Bench:
    """One benchmark run: inputs, measurement loops, checks and tallies."""

    def __init__(self, name: str, seed: int, work: Path):
        from edgetrack import harness, pose_estimation, realmath, tracking
        from edgetrack.geometry import load_model

        import models

        self.workload, self.seed, self.work = WORKLOADS[name], seed, work
        self.harness, self.pose_estimation = harness, pose_estimation
        self.realmath, self.tracking = realmath, tracking
        text = models.cube_text() if self.workload.model == "cube" else models.icosphere_text()
        self.model_path = work / f"{self.workload.model}.model"
        self.model_path.write_text(text)
        self.model = load_model(self.model_path)
        self.config = harness.parse_config(None, backend=self.workload.backend)
        self.camera = self.config.camera
        self.trajectory = harness.standard_trajectory()
        self.frames = self.trajectory.frames
        self.attempted = 0
        self.failed = 0
        self.checks: dict = {}  # name -> None when passed, else first failure
        self.seq_errors: dict = {}  # sequence seed -> mean camera-center error, mm
        self._first_poses: dict = {}  # sequence seed -> poses of its first run
        self._first_digests: dict = {}  # sequence seed -> digests of its first run
        self._recorded = json.loads(DIGESTS_PATH.read_text())["digests"] if DIGESTS_PATH.exists() else {}

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.setdefault(name, None)
        if not ok and self.checks[name] is None:
            self.checks[name] = detail or "failed"

    def sequence_seeds(self, count: int) -> list:
        return [self.seed + k * SEED_STRIDE for k in range(count)]

    # -- inputs -------------------------------------------------------------

    def generate(self, seq_seed: int) -> Sequence:
        self.harness.generate_sequence(self.model, self.camera, self.trajectory,
                                       self.harness.STANDARD_SIGMA, self.work / f"seq_{seq_seed}",
                                       seed=seq_seed)
        return self.load_sequence(seq_seed)

    def load_sequence(self, seq_seed: int) -> Sequence:
        """A generated sequence, to be tracked from its first ground-truth pose."""
        path = self.work / f"seq_{seq_seed}"
        truth = self.harness.load_pose_csv(path / self.harness.GROUND_TRUTH_NAME)
        return Sequence(seq_seed, path, truth[0][1])

    # -- one pass over a sequence ------------------------------------------

    def track_once(self, seq: Sequence, tally: bool = True) -> float:
        """Track one sequence with its CSV outputs; returns wall seconds.

        ``tally`` counts its frames as attempted and failed.
        """
        h = self.harness
        out = self.work / f"run_{seq.seed}"
        t0 = perf_counter()
        records = h.run_tracking(seq.path, self.model, self.camera, self.config.tracker,
                                 seq.init, coast_frames=self.config.coast_frames, out_dir=out)
        wall = perf_counter() - t0
        self.check("every frame yields a record", len(records) == self.frames,
                   f"sequence {seq.seed}: {len(records)} records for {self.frames} frames")
        report = h.evaluate(out / h.POSES_NAME, seq.path / h.GROUND_TRUTH_NAME)
        errors = [float(sum(d * d for d in row) ** 0.5) for row in report.per_frame]
        if tally:
            self.attempted += self.frames
            self.failed += self.frames - len(records) + sum(
                1 for r, e in zip(records, errors) if r.status != "ok" or e > FRAME_ERROR_LIMIT_MM)
        self.check(f"mean_error_mm <= {MEAN_ERROR_LIMIT_MM}",
                   report.mean_distance <= MEAN_ERROR_LIMIT_MM,
                   f"sequence {seq.seed}: {report.mean_distance:.3f} mm")
        self.seq_errors.setdefault(seq.seed, report.mean_distance)
        self._check_repeat(seq.seed, out / h.POSES_NAME)
        return wall

    def _check_repeat(self, seq_seed: int, poses_csv: Path):
        """Criterion 10: fixed point repeats byte for byte, float within 1e-12."""
        if self.workload.backend != "float":
            current = poses_csv.read_bytes()
            first = self._first_poses.setdefault(seq_seed, current)
            self.check("pose CSV identical across repeats", current == first,
                       f"sequence {seq_seed} differs from its first run")
            return
        current = [(*p.omega, *p.t) for _, p in self.harness.load_pose_csv(poses_csv)]
        first = self._first_poses.setdefault(seq_seed, current)
        worst = max(abs(a - b) for ra, rb in zip(current, first) for a, b in zip(ra, rb))
        self.check("float poses repeat within 1e-12", worst <= 1e-12,
                   f"sequence {seq_seed} moved by {worst:.3g}")

    def synth_once(self, seq_seed: int) -> float:
        """Generate one sequence and check its frame digests; returns wall seconds."""
        path = self.work / f"seq_{seq_seed}"
        t0 = perf_counter()
        self.harness.generate_sequence(self.model, self.camera, self.trajectory,
                                       self.harness.STANDARD_SIGMA, path, seed=seq_seed)
        wall = perf_counter() - t0
        digests = frame_digests(path)
        reference = self._recorded.get(str(seq_seed))
        if reference is None:
            reference = self._first_digests.setdefault(seq_seed, digests)
        bad = sum(1 for a, b in zip(digests, reference) if a != b) + abs(len(digests) - len(reference))
        self.attempted += self.frames
        self.failed += min(bad, self.frames)
        self.check("synth frames match their digests", bad == 0,
                   f"sequence {seq_seed}: {bad} of {self.frames} frames differ")
        return wall

    # -- patches ------------------------------------------------------------

    def clock_patches(self, patches, clock):
        h = self.harness
        if self.workload.kind == "track":
            patches.set(h, "load_image", clock.first(h.load_image))
            patches.set(h, "track_frame", clock.last(h.track_frame))
        else:
            patches.set(h, "render_frame_gray", clock.first(h.render_frame_gray))
            patches.set(h, "save_image", clock.last(h.save_image))

    def trace_patches(self, patches, tracer):
        h, pe, tr = self.harness, self.pose_estimation, self.tracking
        counts = tracer.counts

        def visible(result):
            counts["visible"] += bool(result)

        def matched(cp):
            counts["matched"] += cp.match is not None

        if self.workload.kind == "track":
            patches.set(h, "load_image", tracer.span("imaging.load", h.load_image, first=True))
            patches.set(h, "track_frame", tracer.span(
                "pose_estimation.track", h.track_frame, last=True,
                on_result=lambda result: tracer.frame_stats.append(result[1])))
            patches.set(pe, "render_id_buffer", tracer.span("rasterizer.render", pe.render_id_buffer))
            patches.set(tr, "collect_measurements",
                        tracer.span("tracking.measure", tr.collect_measurements))
            patches.set(tr, "is_point_visible", tracer.span(
                "rasterizer.visibility", tr.is_point_visible, on_result=visible))
            patches.set(tr, "search_correspondence", tracer.span(
                "tracking.search", tr.search_correspondence, on_result=matched))
        else:
            patches.set(h, "render_frame_gray",
                        tracer.span("harness.synth", h.render_frame_gray, first=True))
            patches.set(h, "render_id_buffer", tracer.span("rasterizer.render", h.render_id_buffer))
            patches.set(h, "save_image", tracer.span("imaging.save", h.save_image, last=True))

    def count_patches(self, patches, tracer):
        """Counters on the hottest calls, kept out of the timed span passes."""
        tr = self.tracking
        patches.set(tr, "bilinear_sample", tracer.counter("tracking.bilinear_samples",
                                                          tr.bilinear_sample))
        tracer.count_fixed_point(patches, self.realmath.FixedPoint)

    # -- runs ---------------------------------------------------------------

    def pass_once(self, seq: Sequence) -> float:
        return self.track_once(seq) if self.workload.kind == "track" else self.synth_once(seq.seed)

    def inputs(self, count: int) -> list:
        """Track workloads get their sequences generated up front, untimed."""
        seeds = self.sequence_seeds(count)
        if self.workload.kind == "track":
            return [self.generate(s) for s in seeds]
        return [Sequence(s, self.work / f"seq_{s}") for s in seeds]

    def measure(self, seconds: float, setup_s: float) -> dict:
        """Untraced run: cycle the sequence pool until the time is spent.

        Every sequence runs at least MIN_REPEATS times, so each frame's
        latency can be taken as the fastest of its repeats.
        """
        from spans import FrameClock, Patches

        seqs = self.inputs(self.workload.pool)
        clock = FrameClock()
        passes = {s.seed: [] for s in seqs}  # sequence seed -> [(wall s, frame times s)]
        start = perf_counter()
        with Patches() as patches:
            self.clock_patches(patches, clock)
            for k in itertools.count():
                seq = seqs[k % len(seqs)]
                first = len(clock.times)
                wall = self.pass_once(seq)
                passes[seq.seed].append((wall, clock.times[first:]))
                elapsed = perf_counter() - start
                done = min(len(p) for p in passes.values()) >= MIN_REPEATS
                if (done and elapsed >= seconds) or elapsed >= HARD_STOP_S:
                    break
        frame_ms = fastest_ms([[times for _, times in p] for p in passes.values()])
        self.check(f"at least {MIN_FRAMES} distinct timed frames", len(frame_ms) >= MIN_FRAMES,
                   f"{len(frame_ms)} frames")
        self.check(f"every sequence repeated {MIN_REPEATS} times",
                   min(len(p) for p in passes.values()) >= MIN_REPEATS, "ran out of time")
        if self.workload.kind == "synth":
            # Synthesis tracked back on the float backend: frames that drew
            # the edges away from the ground truth show as pose error.
            for seq in seqs:
                self.track_once(self.load_sequence(seq.seed), tally=False)
        fastest_wall = sum(min(wall for wall, _ in p) for p in passes.values())
        q = quantiles(frame_ms)
        raw = quantiles([t * 1e3 for t in clock.times])
        values = {
            "frame_ms_p50": q[50],
            "frame_ms_p90": q[90],
            "frames_per_s": len(frame_ms) / fastest_wall,
            "mean_error_mm": statistics.fmean(self.seq_errors.values()),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        self.notes = {
            "distinct frames": len(frame_ms),
            "timed frames": len(clock.times),
            "passes": sum(len(p) for p in passes.values()),
            "frame_ms_p50 of all passes": raw[50],
            "frame_ms_p90 of all passes": raw[90],
            "frames_per_s of all passes": len(clock.times) / sum(w for p in passes.values() for w, _ in p),
            "fail_frac": self.failed / self.attempted,
        }
        return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    def measure_traced(self, seconds: float, spans_path: Path) -> dict:
        """Traced run over one sequence.

        One counting pass first; then untraced and span-traced passes
        alternate until the time is spent, so drift hits both alike.
        """
        from spans import FIXED_POINT_GROUPS, FrameClock, Patches, Tracer

        seq = self.inputs(1)[0]
        counter, count_clock = Tracer(), FrameClock()
        with Patches() as patches:
            self.clock_patches(patches, count_clock)
            self.count_patches(patches, counter)
            self.pass_once(seq)
        clock, tracer = FrameClock(), Tracer()
        untraced, traced = [], []  # frame times of each pass
        start = perf_counter()
        while True:
            with Patches() as patches:
                self.clock_patches(patches, clock)
                self.pass_once(seq)
            untraced.append(clock.times[-self.frames:])
            with Patches() as patches:
                self.trace_patches(patches, tracer)
                self.pass_once(seq)
            traced.append(tracer.frame_times()[-self.frames:])
            elapsed = perf_counter() - start
            if elapsed >= seconds or elapsed >= HARD_STOP_S:
                break
        tracer.write_spans(spans_path)
        try:
            values = layer_metrics(tracer)
        except ValueError as exc:
            self.check("spans nest inside their frame", False, str(exc))
            values = {}
        overhead = (statistics.median(fastest_ms([traced]))
                    - statistics.median(fastest_ms([untraced])))
        values["trace.overhead_ms"] = (overhead, "ms")
        counted = len(count_clock.times)
        for key in ("tracking.bilinear_samples", *(f"realmath.{g}" for g in FIXED_POINT_GROUPS)):
            values[key] = (counter.counts[key] / counted, PER_FRAME)
        values["realmath.fixed_ops"] = (sum(counter.counts[f"realmath.{g}"] for g in FIXED_OPS) / counted,
                                        PER_FRAME)
        ms_sum = sum(v for k, (v, unit) in values.items() if unit == "ms" and not k.startswith("trace."))
        frame_ms = values.get("trace.frame_ms", (0.0,))[0]
        self.check("self times add up to the traced frame time",
                   abs(ms_sum - frame_ms) <= 1e-6 * frame_ms,
                   f"{ms_sum:.6f} ms of self time for {frame_ms:.6f} ms frames")
        self.notes = {"traced frames": len(tracer.frame_times()), "untraced frames": len(clock.times),
                      "counted frames": counted, "spans": len(tracer.spans),
                      "fail_frac": self.failed / self.attempted}
        return values


def layer_metrics(tracer) -> dict:
    """Per-layer metrics per traced frame, from spans, their counts and FrameStats."""
    totals = tracer.self_times()
    frames = tracer.frame_times()
    n = len(frames)
    counts = tracer.counts
    stats = tracer.frame_stats

    def ms(name):
        return totals[name][0] * 1e3 / n if name in totals else 0.0

    def calls(name):
        return totals[name][1] if name in totals else 0

    def ratio(a, b):
        return a / b if b else 0.0

    attempts = sum(s.attempts for s in stats)
    iterations = sum(s.iterations for s in stats)
    return {
        "imaging.load_ms": (ms("imaging.load"), "ms"),
        "imaging.save_ms": (ms("imaging.save"), "ms"),
        "rasterizer.render_ms": (ms("rasterizer.render"), "ms"),
        "rasterizer.visibility_ms": (ms("rasterizer.visibility"), "ms"),
        "rasterizer.visibility_calls": (calls("rasterizer.visibility") / n, PER_FRAME),
        "rasterizer.visible_ratio": (ratio(counts["visible"], calls("rasterizer.visibility")), "ratio"),
        "tracking.search_ms": (ms("tracking.search"), "ms"),
        "tracking.searches": (calls("tracking.search") / n, PER_FRAME),
        "tracking.match_ratio": (ratio(counts["matched"], calls("tracking.search")), "ratio"),
        "tracking.measure_self_ms": (ms("tracking.measure"), "ms"),
        "pose_estimation.lm_ms": (ms("pose_estimation.track"), "ms"),
        "pose_estimation.lm_trials": (attempts / n, PER_FRAME),
        "pose_estimation.lm_iters": (iterations / n, PER_FRAME),
        "pose_estimation.lm_accept_ratio": (ratio(iterations, attempts), "ratio"),
        "harness.synth_self_ms": (ms("harness.synth"), "ms"),
        "unattributed_ms": (ms("frame"), "ms"),
        "trace.frame_ms": (sum(frames) * 1e3 / n, "ms"),
    }


# ---------------------------------------------------------------------------
# Helpers.

def fastest_ms(repeats) -> list:
    """Each frame's fastest latency, ms; ``repeats`` holds, per sequence,
    the frame times of each of its passes."""
    return [min(frame) * 1e3 for passes in repeats for frame in zip(*passes)]


def quantiles(values) -> dict:
    """Percentiles 1..99 by statistics.quantiles, keyed by percent."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {p: cuts[p - 1] for p in range(1, 100)}


def frame_digests(seq_dir: Path) -> list:
    return [hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(seq_dir.glob("frame_*.pgm"))]


def measure_setup(model_path: Path, backend: str) -> float:
    """Median spawn-to-ready time of fresh set-up processes, after one warm-up."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), str(model_path), backend]
    times = []
    for k in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise SystemExit(f"error: set-up probe failed: {line!r}")
        if k > 0:
            times.append(elapsed)
    return statistics.median(times)


def host_facts(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "edgetrack").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": commit, "src_sha256": src.hexdigest(),
        "threads": {**{v: os.environ.get(v) for v in THREAD_VARS},
                    "python_threads": threading.active_count()},
    }


def record_digests(bench: Bench):
    data = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {"digests": {}}
    for s in bench.sequence_seeds(bench.workload.pool):
        bench.generate(s)
        data["digests"][str(s)] = frame_digests(bench.work / f"seq_{s}")
    data["digests"] = dict(sorted(data["digests"].items(), key=lambda kv: int(kv[0])))
    DIGESTS_PATH.write_text(json.dumps(data, indent=0) + "\n")
    print(f"recorded digests for sequence seeds {bench.sequence_seeds(bench.workload.pool)}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgetrack" / "__init__.py").is_file():
        print(f"error: no edgetrack sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.record_digests:
            record_digests(bench)
            return 0
        RESULTS_DIR.mkdir(exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics = bench.measure_traced(args.seconds, RESULTS_DIR / f"{tag}-spans.csv")
        else:
            setup_s = measure_setup(bench.model_path, bench.workload.backend)
            metrics = bench.measure(args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host = host_facts(args)
    failed_checks = {k: v for k, v in bench.checks.items() if v is not None}
    print(f"edgetrack benchmark {tag}")
    print("host: " + json.dumps(host))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:14.6f} {unit}")
    for name, value in bench.notes.items():
        print(f"  {name:<32} {value:14.6g}")
    for name, failure in bench.checks.items():
        print(f"  check {name}: {'FAILED: ' + failure if failure else 'ok'}")
    result = {
        "correct": not failed_checks,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps(
        {**result, "host": host, "notes": bench.notes, "checks": bench.checks}, indent=1) + "\n")
    print(json.dumps(result))
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
