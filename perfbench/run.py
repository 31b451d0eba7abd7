"""Benchmark of the rule-based fault-tolerant router reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload rules_mesh --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out results/a.jsonl
    python3 perfbench/run.py --compare results/a.jsonl results/b.jsonl

One run measures one workload (see BENCHMARK.json and README.md beside
this file): it repeats the workload's fixed batch of work for
``--seconds`` host seconds, checks the program's outputs and prints a
report followed, on the last line, by one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of untraced batches; ``--trace 1`` alternates
untraced and traced batches and reports the per-layer metrics of the
traced ones, plus the tracing overhead.

Exit codes: 0 with a result, 2 when the program's sources are missing,
3 when a workload ran on another engine than it asked for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: private kernel and table cache, filled by an untimed pass in each run
CACHE_DIR = ROOT / ".bench_build" / "repro-batched"

END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}
#: what ``work_per_s`` counts on each workload
WORK_UNITS = {"rules_mesh": "sim_cycles_per_s",
              "native_mesh": "sim_cycles_per_s",
              "fault_campaign": "sim_cycles_per_s",
              "rule_compile": "compile_entries_per_s"}


def _prepare() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources ({ROOT / 'src' / 'repro'}) "
              f"are missing; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    os.environ["REPRO_BATCHED_CACHE"] = str(CACHE_DIR)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", inject: str | None = None) -> dict:
    """One benchmark run; returns the full record (result + report)."""
    import layers
    import workloads
    from timing import fastest, host_scale, time_reference
    from tracing import SpanRecorder

    wl = workloads.make_workload(workload, seed, size)
    wl.warm()
    untraced, traced = [], []
    peak_rss_mb = None
    start = time.perf_counter()
    reference_times = time_reference()
    while True:
        t0 = time.perf_counter()
        # every batch starts from a collected heap, so garbage left by
        # earlier batches neither pauses it nor grows the peak
        gc.collect()
        untraced.append(wl.run_batch(inject))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            rec = SpanRecorder()
            rec.run_id = len(traced)
            gc.collect()
            layers.install(rec)
            t1 = time.perf_counter()
            try:
                batch = wl.run_batch(inject)
            finally:
                rec.uninstall()
            traced.append((batch, rec, time.perf_counter() - t1))
        reference_times += time_reference()
        # stop before a further round would overrun the measuring time
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    first = untraced[0]
    problems = list(first.problems)
    for b in untraced[1:] + [b for b, _, _ in traced]:
        if (b.sim, b.attempted, b.failed) != (first.sim, first.attempted,
                                              first.failed):
            problems.append("repeated batches of one seed disagree: "
                            f"{b.sim} != {first.sim}")
            break
    problems += wl.check(first, inject)

    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "batches": len(untraced), "traced_batches": len(traced),
        "correct": not problems, "problems": problems,
        "attempted": first.attempted, "failed": first.failed,
        "sim": first.sim,
    }
    best = fastest([b.watch for b in untraced])
    scale = host_scale(reference_times)
    record["pieces"] = len(first.watch.kind)
    record["host_scale"] = scale
    record["unscaled"] = {
        "setup_s": best["setup"], "wall_s": best["all"],
        "work_per_s": first.work / best["work"],
        "median_batch_wall_s": statistics.median(
            b.watch.total() for b in untraced)}
    if not trace:
        record["metrics"] = {
            "setup_s": best["setup"] * scale,
            "wall_s": best["all"] * scale,
            "work_per_s": first.work / (best["work"] * scale),
            "peak_rss_mb": peak_rss_mb,
        }
        return record
    per_batch = [layers.derive(rec, b.facts) for b, rec, _ in traced]
    metrics = {name: statistics.median([m[name] for m in per_batch])
               for name in per_batch[0]}
    for name in workloads.SIM_METRICS:
        metrics["sim.model." + name] = first.sim.get(name, 0)
    metrics["trace.overhead_frac"] = (
        fastest([b.watch for b, _, _ in traced])["all"] / best["all"] - 1)
    for _, rec, wall_s in traced:
        problems += layers.self_time_violations(rec, wall_s)
    record["correct"] = not problems
    record["metrics"] = metrics
    return record


def result_line(record: dict) -> dict:
    """The contract's last-line object: end-to-end metrics untraced,
    per-layer metrics traced, each with its unit."""
    import layers
    units = layers.UNITS if record["trace"] else END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name],
                           "unit": units[name]} for name in units},
    }


def report(record: dict) -> str:
    lines = [f"{record['workload']} seed {record['seed']} "
             f"trace {record['trace']}: {record['batches']} untraced and "
             f"{record['traced_batches']} traced batches of "
             f"{record['pieces']} timed pieces (host times: fastest of the "
             f"batches piece by piece, times host scale "
             f"{record['host_scale']:.4g}), "
             f"{record['attempted']} operations, {record['failed']} failed, "
             f"{'correct' if record['correct'] else 'NOT correct'}"]
    lines += [f"  check failed: {p}" for p in record["problems"]]
    m = record["metrics"]
    if not record["trace"]:
        lines.append(f"  {WORK_UNITS[record['workload']]:<34} "
                     f"{m['work_per_s']:.6g}  (work_per_s)")
    for name, value in m.items():
        lines.append(f"  {name:<34} {value:.6g}")
    for name, value in record["unscaled"].items():
        lines.append(f"  {name:<34} {value:.6g}  (unscaled)")
    for name, value in record["sim"].items():
        lines.append(f"  {name:<34} {value:.6g}  (simulated)")
    if record["sim"]:
        lines.append(f"  latency percentiles over "
                     f"{record['sim']['latency_samples']} messages created "
                     f"after warm-up")
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload, each in its own process so that one workload's
    peak memory cannot leak into another's."""
    import workloads
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(out[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSONL "
                                  "file (input of --compare)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two JSONL result sets and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    _prepare()
    if args.compare:
        import compare
        return compare.main(*args.compare)
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except workloads.EngineFallback as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(report(record))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
