"""The traced benchmark run wraps program functions by module attribute
name; renaming or deleting one of those names must fail here, not only in
the benchmark."""

import importlib.util
import sys
from pathlib import Path

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
