"""graphcorr benchmark.

    python3 perfbench/run.py --workload suite|kms-sweep|circle|all \\
        --seed N --seconds S --trace 0|1

Every sample runs in a fresh interpreter (``sample.py``), one at a time,
with the BLAS thread pools pinned to one thread, so no module-level memo
carries over from one sample to the next.

With ``--trace 0`` the run takes timed samples for ``--seconds`` (at
least ``MIN_SAMPLES``; a sample that would end past ``--seconds`` is not
started), the first few each followed by a sample that only sets up, and
reports the medians of the end-to-end metrics listed in
``BENCHMARK.json``; ``setup_s`` is the median over all samples.  With
``--trace 1`` it alternates untraced and traced samples for ``--seconds``,
then counts the wrapped calls once under cProfile.  It reports the
per-layer metrics and fails the run when a wrapped function's traced call
count differs from the count cProfile saw.

Human-readable lines come first; the last line of standard output is the
result as JSON.  Raw samples and the environment go to
``.perfbench_runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("suite", "kms-sweep", "circle")
MIN_SAMPLES = 3
SETUP_PROBES = 3            # set-up-only samples, one after each early sample
RUN_LIMIT_S = 170.0         # every run must end within 180 s
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


#: layer shares printed by a traced run; the workload notes in README.md
#: give the share each workload is built to show
SHARES = {
    "word_matrix + fock_matrix, self": ("toeplitz.word_matrix.self_s",
                                        "toeplitz.fock_matrix.self_s"),
    "spectral_radius, self": ("graphs.spectral_radius.self_s",),
    "kms_eval with its children": ("kms.kms_eval.s",),
    "random_trig_poly, self": ("double_cover.random_trig_poly.self_s",),
}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One sample in a fresh interpreter; ``setup_s`` runs from the spawn
    to the moment the inputs were ready."""
    env = dict(os.environ, **ENV)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), "--workload", workload,
             "--seed", str(seed), "--mode", mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} sample of {workload} ran past the "
                         f"{RUN_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} sample of {workload} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["setup_s"] = sample.pop("ready") - t0
    return sample


def repeat(step, seconds: float, least: int) -> None:
    """Call ``step()`` at least ``least`` times, then while the next call,
    judged by the last one, still ends within ``seconds`` of the start."""
    start = last = time.monotonic()
    calls = 0
    while True:
        step()
        calls += 1
        now = time.monotonic()
        if calls >= least and now + (now - last) - start > seconds:
            return
        last = now


def end_to_end(workload, seed, seconds, deadline) -> tuple[dict, list]:
    samples, probes = [], []

    def step():
        samples.append(spawn(workload, seed, "plain", deadline))
        if len(probes) < SETUP_PROBES:
            probes.append(spawn(workload, seed, "setup", deadline))
    repeat(step, seconds, MIN_SAMPLES)
    setups = samples + probes
    metrics = {
        "wall_s": median(s["wall_s"] for s in samples),
        "setup_s": median(s["setup_s"] for s in setups),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in samples),
    }
    print(f"  samples: {len(samples)} timed, {len(setups)} set-ups")
    print("  wall_s per sample: "
          + " ".join(f"{s['wall_s']:.4f}" for s in samples))
    return metrics, setups


def per_layer(workload, seed, seconds, deadline, names) -> tuple:
    import tracer
    plain, traced = [], []

    def step():
        plain.append(spawn(workload, seed, "plain", deadline))
        traced.append(spawn(workload, seed, "trace", deadline))
    repeat(step, seconds, 1)
    profiled = spawn(workload, seed, "profile", deadline)

    problems = []
    calls = {name: row[0] for name, row in traced[0]["spans"].items()}
    for t in traced[1:]:
        if {n: row[0] for n, row in t["spans"].items()} != calls:
            problems.append("traced call counts differ between samples")
    for name, seen in sorted(profiled["calls"].items()):
        if calls.get(name, 0) != seen:
            problems.append(f"{name}: {calls.get(name, 0)} traced calls, "
                            f"cProfile saw {seen}")

    wall = median(t["wall_s"] for t in traced)
    metrics = {}
    for metric in names:
        if metric == "trace.overhead_s":
            value = wall - median(p["wall_s"] for p in plain)
        elif metric == "trace.coverage":
            value = median(t["top_level_s"] / t["wall_s"] for t in traced)
        else:
            values = [tracer.layer_metric(metric, t["spans"], t["counters"])
                      for t in traced]
            # counts repeat exactly; keep them whole numbers
            value = values[0] if len(set(values)) == 1 else median(values)
        metrics[metric] = value

    print(f"  samples: {len(traced)} traced, {len(plain)} untraced, "
          f"1 under cProfile; traced wall_s {wall:.4f}")
    print("  shares of traced wall_s:")
    for label, parts in SHARES.items():
        value = median(sum(tracer.layer_metric(m, t["spans"], t["counters"])
                           for m in parts) / t["wall_s"] for t in traced)
        print(f"    {label:<40} {value:6.1%}")
    if problems:
        print("  TRACE INCOMPLETE: wrapped call counts disagree with "
              "cProfile:")
        for p in problems:
            print(f"    {p}")
    else:
        print(f"  trace complete: {len(profiled['calls'])} wrapped "
              f"functions match cProfile call counts")
    return metrics, plain + traced + [profiled], problems


def run_one(workload, seed, seconds, trace, spec) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    print(f"workload {workload}, seed {seed}, "
          f"{'traced' if trace else 'untraced'}, {seconds} s")
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, samples, problems = per_layer(workload, seed, seconds,
                                               deadline, names)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics, samples = end_to_end(workload, seed, seconds, deadline)
        problems = []
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    attempted = sum(s.get("attempted", 0) for s in samples)
    failed = sum(s.get("failed", 0) for s in samples)
    env = samples[0]["versions"]
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, "
          f"BLAS {env['blas']} ({env['blas_threads']} thread), "
          f"nproc {env['nproc']}")
    for name in names:
        print(f"  {name:<48} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':<48} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} tasks failed)")
    for s in samples:
        for f in s.get("failures", []):
            print(f"  FAILED: {f}")
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"environment": env, "metrics": metrics,
                    "problems": problems, "samples": samples}, indent=1))
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]}
                        for n in names}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace, spec)
                   for w in chosen}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all"
                     else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
