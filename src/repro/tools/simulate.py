"""simulate — run the wormhole-network simulator from the command line.

One simulation point, with random static faults drawn from ``--seed``::

    python -m repro.tools.simulate run --topology mesh8x8 \
        --algorithm nafta --load 0.15 --cycles 3000 --link-faults 4
    python -m repro.tools.simulate run --topology cube4 \
        --algorithm route_c --node-faults 2

``run --sweep-seeds N`` replays the point under N consecutive traffic
seeds through the parallel sweep engine (honouring ``--workers`` /
``--no-cache``) and reports per-seed rows plus the aggregate.

Traced run (docs/OBSERVABILITY.md): ``--fault`` adds mid-flight faults,
``--trace PATH`` writes a Chrome trace_event JSON (load it in
https://ui.perfetto.dev), ``--metrics-out PATH`` a per-cycle metrics
timeseries, and ``--ascii`` prints a timeline of its gauges::

    python -m repro.tools.simulate run --load 0.15 --fault-mode harsh \
        --detection-delay 40 --retry-limit 6 --fault 600:link:27,28 \
        --trace trace.json --ascii

Chaos campaign on a mesh (randomized mid-flight faults, harsh mode,
source retransmission; see docs/ROBUSTNESS.md)::

    python -m repro.tools.simulate campaign --topology mesh8x8 \
        --scenarios 20 --link-faults 2 --workers 4 --json campaign.json

The campaign fans scenarios out through the sweep engine, so
``--workers N`` parallelizes and repeated invocations replay from the
content-addressed result cache (disable with ``--no-cache``).  Its
``--trace``/``--metrics-out`` capture scenario 0's trace and every
scenario's metrics.  ``tools/simulate.py`` runs this CLI from a
checkout without installing the package.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..experiments import (WorkloadSpec, add_sweep_args, campaign_table,
                           fmt, run_campaign, run_sweep, run_workload,
                           table)
from ..obs import ascii_timeline, chrome_trace
from ..routing.registry import ALGORITHMS
from ..routing.select import POLICIES
from ..sim import (Hypercube, Mesh2D, Torus2D, random_link_faults,
                   random_node_faults)
from ..sim.traffic import PATTERNS

#: summary keys a single run prints
RUN_KEYS = ("messages_delivered", "messages_measured", "mean_latency",
            "p99_latency", "mean_hops", "throughput_flits_node_cycle",
            "misrouted_fraction", "mean_decision_steps",
            "max_decision_steps", "messages_dropped", "messages_retried",
            "messages_stuck", "messages_unroutable", "deadlocked")


def parse_topology(spec: str):
    m = re.fullmatch(r"mesh(\d+)x(\d+)", spec)
    if m:
        return Mesh2D(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"torus(\d+)x(\d+)", spec)
    if m:
        return Torus2D(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"cube(\d+)", spec)
    if m:
        return Hypercube(int(m.group(1)))
    raise SystemExit(f"unknown topology {spec!r}; use meshWxH, torusWxH "
                     f"or cubeD")


def _parse_fault(text: str):
    """``cycle:link:a,b`` or ``cycle:node:n`` -> a timed-fault tuple."""
    try:
        cycle, kind, target = text.split(":")
        if kind == "link":
            a, b = target.split(",")
            return (int(cycle), "link", (int(a), int(b)))
        if kind == "node":
            return (int(cycle), "node", int(target))
    except ValueError:
        pass
    raise SystemExit(f"bad --fault {text!r}; use CYCLE:link:A,B "
                     f"or CYCLE:node:N")


def _obs_fields(args) -> dict:
    """WorkloadSpec observability fields implied by the CLI flags."""
    out = {}
    if args.trace:
        out["trace"] = True
        out["trace_capacity"] = args.trace_capacity
    if args.metrics_out or getattr(args, "ascii", False):
        out["metrics_stride"] = args.metrics_stride
    return out


def _write_json(path: str, doc: dict, what: str) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True))
    print(f"[{what} -> {path}]")


def _run_spec(args) -> WorkloadSpec:
    """The WorkloadSpec of ``run``: static faults drawn from ``--seed``
    (connectivity-preserving), mid-flight faults from ``--fault``."""
    topo = parse_topology(args.topology)
    rng = np.random.default_rng(args.seed + 1000)
    try:
        links = (random_link_faults(topo, args.link_faults, rng)
                 if args.link_faults else [])
        nodes = (random_node_faults(topo, args.node_faults, rng)
                 if args.node_faults else [])
    except RuntimeError as exc:
        raise SystemExit(f"simulate: {exc} on {args.topology}")
    return WorkloadSpec(
        topology=topo, algorithm=args.algorithm, pattern=args.pattern,
        load=args.load, message_length=args.message_length,
        cycles=args.cycles, warmup=args.warmup, seed=args.seed,
        cycles_per_step=args.cycles_per_step, fault_links=links,
        fault_nodes=nodes, arbiter=args.arbiter,
        timed_faults=[_parse_fault(f) for f in args.fault],
        fault_mode=args.fault_mode, detection_delay=args.detection_delay,
        diagnosis_hop_delay=args.diagnosis_hop_delay,
        retry_limit=args.retry_limit, retry_backoff=args.retry_backoff,
        hop_budget=args.hop_budget, engine=args.engine,
        policy=args.policy, policy_seed=args.policy_seed,
        **_obs_fields(args))


def _sweep_seeds(args, spec: WorkloadSpec, banner: str) -> int:
    specs = [replace(spec, seed=args.seed + i)
             for i in range(args.sweep_seeds)]
    results = run_sweep(specs, workers=args.workers, cache=args.cache,
                        progress=True, label="simulate")
    print(banner + f", {args.sweep_seeds} seeds")
    rows = [{"seed": s.seed, "latency": r["mean_latency"],
             "p99": r["p99_latency"],
             "throughput": r["throughput_flits_node_cycle"],
             "delivered": r["messages_delivered"]}
            for s, r in zip(specs, results)]
    print(table(rows, [("seed", "seed"), ("latency", "mean latency"),
                       ("p99", "p99"), ("throughput", "throughput"),
                       ("delivered", "delivered")]))
    lats = [r["latency"] for r in rows if not math.isnan(r["latency"])]
    if lats:
        mean = sum(lats) / len(lats)
        var = sum((x - mean) ** 2 for x in lats) / len(lats)
        print(f"  mean latency over seeds: {fmt(mean)} "
              f"+/- {fmt(math.sqrt(var))}")
    return 0


def cmd_run(args) -> int:
    spec = _run_spec(args)
    banner = (f"{args.topology} / {args.algorithm} / {args.pattern} "
              f"@ {args.load} flits/node/cycle, {spec.cycles} cycles"
              + (f", {len(spec.fault_links)} link faults"
                 if spec.fault_links else "")
              + (f", {len(spec.fault_nodes)} node faults"
                 if spec.fault_nodes else "")
              + (f", {len(spec.timed_faults)} mid-flight faults"
                 if spec.timed_faults else "")
              + (f", policy {args.policy}"
                 if args.policy != "deterministic" else ""))
    try:
        if args.sweep_seeds > 1:
            return _sweep_seeds(args, spec, banner)
        res = run_workload(spec)
    except Exception as exc:  # pragma: no cover - CLI surface
        print(f"simulate: {exc}", file=sys.stderr)
        return 1
    trace = res.pop("trace", None)
    metrics = res.pop("metrics", None)
    print(banner + (f" [engine: {res['engine']}]"
                    if args.engine != "object" else ""))
    for key in RUN_KEYS:
        print(f"  {key:<30} {fmt(res[key])}")
    if args.trace and trace is not None:
        doc = chrome_trace(trace, metrics)
        _write_json(args.trace, doc,
                    f"chrome trace: {len(doc['traceEvents'])} events "
                    f"({trace.get('dropped', 0)} dropped)")
    if args.metrics_out and metrics is not None:
        _write_json(args.metrics_out, metrics,
                    f"metrics: {metrics.get('samples', 0)} samples")
    if args.ascii and metrics is not None:
        print(ascii_timeline(metrics))
    return 0


def cmd_campaign(args) -> int:
    topo = parse_topology(args.topology)
    if type(topo) is not Mesh2D:
        raise SystemExit(f"simulate: campaign scenarios run on a mesh "
                         f"(meshWxH), not {args.topology!r}")
    stats: dict = {}
    report = run_campaign(
        args.scenarios, workers=args.workers, cache=args.cache,
        progress=args.progress, stats=stats,
        width=topo.width, height=topo.height,
        n_link_faults=args.link_faults, n_node_faults=args.node_faults,
        algorithm=args.algorithm, load=args.load,
        message_length=args.message_length, cycles=args.cycles,
        warmup=args.warmup, seed=args.seed,
        detection_delay=args.detection_delay,
        diagnosis_hop_delay=args.diagnosis_hop_delay,
        retry_limit=0 if args.no_retry else args.retry_limit,
        retry_backoff=args.retry_backoff,
        hop_budget=args.hop_budget, backup_routes=args.backups == "on",
        engine=args.engine, pattern=args.pattern,
        policy=args.policy, policy_seed=args.policy_seed,
        **_obs_fields(args))
    # traces/metrics are pulled out of the report (they would dwarf the
    # reliability numbers in --json); the Chrome export is scenario 0 —
    # one run per trace document, as the trace_event format expects
    traces = [s.pop("trace", None) for s in report["scenarios"]]
    metrics = [s.pop("metrics", None) for s in report["scenarios"]]
    print(campaign_table(report))
    if args.trace and traces and traces[0] is not None:
        doc = chrome_trace(traces[0], metrics[0])
        _write_json(args.trace, doc, f"chrome trace of scenario 0: "
                    f"{len(doc['traceEvents'])} events")
    if args.metrics_out and any(m is not None for m in metrics):
        _write_json(args.metrics_out,
                    {f"scenario_{i}": m for i, m in enumerate(metrics)
                     if m is not None}, "per-scenario metrics")
    if stats:
        print(f"[{stats.get('simulated', '?')} simulated, "
              f"{stats.get('cache_hits', '?')} cache hits, "
              f"{stats.get('wall_s', 0):.1f}s]")
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True))
        print(f"[report saved to {args.json}]")
    if args.strict and (report["silent_loss"] or report["dead_lettered"]
                        or report["deadlocked_scenarios"]):
        print("STRICT: reliability violations present", file=sys.stderr)
        return 1
    return 0


def _common(p: argparse.ArgumentParser) -> None:
    """Flags of both subcommands; defaults follow
    :func:`repro.experiments.campaign.make_scenario`."""
    p.add_argument("--topology", default="mesh8x8",
                   help="meshWxH | torusWxH | cubeD (default mesh8x8; "
                        "campaign: meshWxH only)")
    p.add_argument("--algorithm", default="nafta",
                   choices=sorted(ALGORITHMS))
    p.add_argument("--pattern", default="uniform", choices=sorted(PATTERNS))
    p.add_argument("--load", type=float, default=0.12,
                   help="offered load in flits/node/cycle")
    p.add_argument("--message-length", type=int, default=6)
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--warmup", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--link-faults", type=int, default=0,
                   help="random connectivity-preserving link faults "
                        "(run: static; campaign: mid-flight)")
    p.add_argument("--node-faults", type=int, default=0,
                   help="random connectivity-preserving node faults "
                        "(run: static; campaign: mid-flight)")
    p.add_argument("--fault-mode", choices=["quiesce", "harsh"],
                   default="harsh")
    p.add_argument("--detection-delay", type=int, default=40)
    p.add_argument("--diagnosis-hop-delay", type=int, default=2)
    p.add_argument("--retry-limit", type=int, default=6)
    p.add_argument("--retry-backoff", type=int, default=16)
    p.add_argument("--hop-budget", type=int, default=0)
    p.add_argument("--engine", choices=["object", "batched"],
                   default="object",
                   help="simulation engine: the per-flit object oracle "
                        "or the batched struct-of-arrays engine "
                        "(bit-identical results, metrics included; "
                        "falls back to object only when tracing is "
                        "attached)")
    p.add_argument("--policy", default="deterministic",
                   choices=sorted(POLICIES),
                   help="output-selection policy over legal route "
                        "candidates (docs/PERFORMANCE.md; non-default "
                        "policies run on the object engine)")
    p.add_argument("--policy-seed", type=int, default=0,
                   help="hash seed for the ecmp/flowlet policies")
    add_sweep_args(p)
    p.add_argument("--trace", metavar="PATH",
                   help="record a trace and write Chrome trace_event "
                        "JSON (ui.perfetto.dev) to PATH")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="sample a per-cycle metrics timeseries and "
                        "write it as JSON to PATH")
    p.add_argument("--trace-capacity", type=int, default=65536,
                   help="trace ring-buffer capacity in events")
    p.add_argument("--metrics-stride", type=int, default=1,
                   help="cycles between metrics samples")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="simulate",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one simulation point")
    _common(run_p)
    # a single point models the paper's instantaneous diagnosis unless
    # asked otherwise
    run_p.set_defaults(fault_mode="quiesce", detection_delay=0,
                       diagnosis_hop_delay=0, retry_limit=0)
    run_p.add_argument("--arbiter", default="round_robin",
                       choices=["round_robin", "misrouted_first",
                                "oldest_first"])
    run_p.add_argument("--cycles-per-step", type=int, default=1,
                       help="router cycles per rule-interpretation step")
    run_p.add_argument("--fault", action="append", default=[],
                       metavar="CYCLE:link:A,B | CYCLE:node:N",
                       help="mid-flight fault (repeatable)")
    run_p.add_argument("--ascii", action="store_true",
                       help="print an ASCII timeline of the metrics "
                            "gauges")
    run_p.add_argument("--sweep-seeds", type=int, default=1, metavar="N",
                       help="replay the point under N consecutive "
                            "traffic seeds via the sweep engine")

    camp_p = sub.add_parser("campaign", help="randomized chaos campaign")
    _common(camp_p)
    camp_p.set_defaults(link_faults=2)
    camp_p.add_argument("--scenarios", type=int, default=20)
    camp_p.add_argument("--progress", action="store_true")
    camp_p.add_argument("--json", metavar="PATH",
                        help="also write the full report as JSON")
    camp_p.add_argument("--strict", action="store_true",
                        help="exit 1 on any silent loss, dead letter "
                             "or deadlock")
    camp_p.add_argument("--no-retry", action="store_true",
                        help="disable source retransmission "
                             "(retry_limit=0): isolates what fast "
                             "reroute alone recovers")
    camp_p.add_argument("--backups", choices=["on", "off"], default="off",
                        help="precompiled backup next-hop tables: "
                             "activate LFA-style fast reroute on local "
                             "link-fault confirmation "
                             "(docs/ROBUSTNESS.md)")

    args = ap.parse_args(argv)
    if args.command == "run":
        if args.sweep_seeds > 1 and (args.trace or args.metrics_out
                                     or args.ascii):
            run_p.error("--trace, --metrics-out and --ascii record a "
                        "single run; drop --sweep-seeds")
        return cmd_run(args)
    return cmd_campaign(args)


if __name__ == "__main__":
    raise SystemExit(main())
