"""Time one fresh process's set-up for a workload; prints ``{"setup_s": ...}``.

Set-up is everything before the first record: ``import repro``, loading
the compiled kernels, and building the schema, forecaster, session and
archive.  The clock starts before ``repro`` (and NumPy) are imported.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import json
import sys
import time
from pathlib import Path


def main(name: str) -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import env

    env.bootstrap()
    env.require_kernels()
    from perfbench.workloads import get_workload

    workload = get_workload(name)
    schema = workload.schema()
    archive = workload.archive(schema)
    workload.session(schema, sink=archive.ingest)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(sys.argv[1])}))
