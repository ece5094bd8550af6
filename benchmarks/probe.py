"""Set-up probe: one fresh process that gets edgetrack ready for a first frame.

Usage: python3 benchmarks/probe.py MODEL_FILE BACKEND

Imports edgetrack, loads the model, parses the default config and builds
the arithmetic backend, then prints ``ready``. run.py times it from spawn
to that line, so interpreter start and imports are part of set-up time.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgetrack.geometry import load_model  # noqa: E402
from edgetrack.harness import parse_config  # noqa: E402
from edgetrack.realmath import get_backend  # noqa: E402

load_model(sys.argv[1])
parse_config(None, backend=sys.argv[2])
get_backend(sys.argv[2])
print("ready", flush=True)
