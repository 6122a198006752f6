"""One cold set-up of a benchmark workload, in its own process.

Usage: ``python3 perfbench/cold.py WORKLOAD_JSON SEED ARTIFACT_DIR``

Times importing the simulator, building the image, running the native
oracle and the first run of the workload, with the JIT artifact store
pointed at ARTIFACT_DIR (which the caller empties first), and prints
one JSON line: ``setup_s``, ``problems`` and ``jit_artifacts``.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    spec, seed, artifacts = argv[0], int(argv[1]), Path(argv[2])
    os.environ["REPRO_TRACE_CACHE"] = str(artifacts)
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parent / "src")]
    import bench
    w = bench.workload_from_json(spec)
    image = bench.build_image(w, seed)
    oracle = bench.native_oracle(image)
    config = bench.make_config(w, seed)
    try:
        _, out = bench.run_workload(w, image, config)
    except Exception:  # a crashing run is a failed run
        out = None
        problems = [traceback.format_exc(limit=3).strip()]
    setup_s = perf_counter() - T0
    if out is not None:
        oracle.chunks_built = bench.fleet_reference(w, image, config)
        problems = bench.check(w, out, oracle, None)
    print(json.dumps({
        "setup_s": setup_s,
        "problems": problems,
        "jit_artifacts": len(list(artifacts.glob("jit-*"))),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
