"""Comparison of two result sets written by ``run.py --out``.

For each workload and end-to-end metric it prints both medians, both
spreads (interquartile range over the median, across the runs of a set)
and a verdict against the metric's bound in BENCHMARK.json:

* ``agree``      the medians differ by no more than the bound;
* ``worse`` / ``better``  they differ by more, in that direction;
* ``unresolved`` a set's spread exceeds the bound, so a difference of the
  bound's size cannot be told from noise; unless every new run is better
  than every base run, which reads ``better``.

Simulated results are exact for a fixed seed, so on the seeds both sets
ran they must be ``identical``.  Per-layer metrics have no bound and are
printed for information.  Exit status 1 when anything is worse, changed,
or a run failed its checks.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(path) -> dict:
    """(workload, trace) -> list of records."""
    sets: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                sets.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return sets


def spread(values: list) -> float:
    """Interquartile range over the median (inf with fewer than two
    values, where no spread can be measured)."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(base: list, new: list, bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    worse_by = sign * (mn - mb) / abs(mb)
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "agree"


def main(base_path, new_path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = _load(base_path), _load(new_path)
    bad = False
    print(f"{'workload':<15} {'metric':<40} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread':>15} {'bound':>6}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b_recs, n_recs = base[key], new[key]
        for rec in b_recs + n_recs:
            if not rec["correct"]:
                bad = True
                print(f"{workload:<15} run seed {rec['seed']} failed its "
                      f"checks: {rec['problems']}")
        rows = [("failed", [r["failed"] for r in b_recs],
                 [r["failed"] for r in n_recs])]
        rows += [(name, [r["metrics"][name] for r in b_recs],
                  [r["metrics"][name] for r in n_recs])
                 for name in b_recs[0]["metrics"]]
        for name, bv, nv in rows:
            mb, mn = statistics.median(bv), statistics.median(nv)
            change = (mn - mb) / abs(mb) if mb else 0.0
            sp = f"{spread(bv):.3f}/{spread(nv):.3f}"
            if name == "failed":
                word = "worse" if sum(nv) > sum(bv) else "agree"
                bound = "-"
            elif not trace and name in bounds:
                m = bounds[name]
                word = verdict(bv, nv, m["bound"], m["better"])
                bound = f"{m['bound']:.2f}"
            else:
                word, bound = "info", "-"
            bad |= word == "worse"
            print(f"{workload:<15} {name:<40} {mb:>12.6g} {mn:>12.6g} "
                  f"{change:>+8.2%} {sp:>15} {bound:>6}  {word}")
        # simulated results: exact per seed
        b_sim = {r["seed"]: r["sim"] for r in b_recs}
        n_sim = {r["seed"]: r["sim"] for r in n_recs}
        shared = sorted(set(b_sim) & set(n_sim))
        changed = [s for s in shared
                   if json.dumps(b_sim[s], sort_keys=True)
                   != json.dumps(n_sim[s], sort_keys=True)]
        if shared and b_sim[shared[0]]:
            word = f"changed on seeds {changed}" if changed else "identical"
            bad |= bool(changed)
            print(f"{workload:<15} {'simulated results':<40} "
                  f"{len(shared):>12} seeds in both sets:  {word}")
    return 1 if bad else 0
