"""One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N --mode MODE

Imports graphcorr from ``src/`` of this checkout, makes the workload's
inputs and, unless MODE is ``setup``, runs and checks the batch once.
MODE ``plain`` times the batch, ``trace`` runs it under the layer wrappers
of ``tracer`` and writes the spans to ``.perfbench_runs/``, and ``profile``
runs it under cProfile to count calls of the wrapped functions.  The last
line of standard output is the sample as JSON; ``ready`` is the
``time.monotonic()`` reading when the inputs were ready, from which the
parent computes the set-up time.
"""
from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"


def versions() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def profile_counts(prof: cProfile.Profile, functions: dict) -> dict:
    """Calls cProfile saw, per span name, matched by code object."""
    by_code = {fn.__code__: name for name, fn in functions.items()}
    counts = dict.fromkeys(functions, 0)
    for entry in prof.getstats():
        name = by_code.get(entry.code)
        if name is not None:
            counts[name] += entry.callcount
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "plain", "trace", "profile"))
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import graphcorr
    if not Path(graphcorr.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"graphcorr imported from {graphcorr.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2
    import tracer
    import workloads

    work = workloads.WORKLOADS[args.workload]
    inputs = work.make_inputs(args.seed)
    result = {"ready": time.monotonic()}
    if args.mode != "setup":
        trace = tracer.Tracer() if args.mode == "trace" else None
        prof = cProfile.Profile() if args.mode == "profile" else None
        if trace:
            trace.install()
        if prof:
            prof.enable()
        t0 = time.perf_counter()
        outputs = work.run(inputs)
        wall = time.perf_counter() - t0
        if prof:
            prof.disable()
        if trace:
            trace.uninstall()
        attempted, failures = work.check(inputs, outputs)
        result.update(wall_s=wall, attempted=attempted,
                      failed=min(len(failures), attempted),
                      failures=failures[:10])
        if trace:
            result["spans"] = tracer.span_totals(
                trace.names, trace.parents, trace.starts, trace.ends)
            result["counters"] = trace.counters
            result["top_level_s"] = tracer.top_level_time(
                trace.parents, trace.starts, trace.ends)
            RUNS.mkdir(exist_ok=True)
            trace.save(RUNS / f"spans-{args.workload}-seed{args.seed}.npz")
        if prof:
            result["calls"] = profile_counts(prof, tracer.layer_functions())
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
