"""Pin the environment the way a benchmark run does, before ``repro`` loads."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import env  # noqa: E402

env.bootstrap()
env.require_kernels()
