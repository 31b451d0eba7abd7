"""Per-layer metrics of a traced batch.

``install`` wraps the public entry points of each layer of the program
(the modules named in each metric) with span recorders; ``derive`` turns
one traced batch's spans and counters into the per-layer metrics.  Which
end-to-end metric each layer metric should move, on which workload, is
written down in README.md beside this file.
"""

from __future__ import annotations

import statistics

from tracing import SpanRecorder, SpanTable

COMPILE = "repro.core.compiler.compile"

#: per-layer metric -> unit; every traced run reports all of them, with 0
#: where the layer does not run on the workload
UNITS = {
    "core.dsl.parse_s": "s",
    "core.dsl.analyze_s": "s",
    "core.compiler.expand_s": "s",
    "core.compiler.atoms_s": "s",
    "core.compiler.tablegen_s": "s",
    "core.compiler.entries": "count",
    "core.compiler.tablegen_us_per_entry": "us",
    "core.engine.build_s": "s",
    "core.engine.calls": "count",
    "core.engine.call_self_us": "us",
    "core.engine.set_inputs_us": "us",
    "core.engine.steps_per_decision": "steps",
    "core.engine.events_posted": "count",
    "routing.rule_driven.route_calls": "count",
    "routing.rule_driven.route_self_us": "us",
    "routing.rule_driven.fault_update_s": "s",
    "sim.batched.python_reentries": "count",
    "sim.batched.native_decision_ratio": "ratio",
    "sim.batched.run_self_us_per_cycle": "us",
    "sim.network.offer_calls": "count",
    "sim.network.offer_us": "us",
    "sim.network.eject_calls": "count",
    "sim.network.eject_us": "us",
    "sim.traffic.tick_us_per_cycle": "us",
    "sim.network.run_self_us_per_cycle": "us",
    "sim.network.retry_ratio": "ratio",
    "sim.network.dead_letters": "count",
    "routing.route_calls": "count",
    "routing.route_self_us": "us",
    "routing.fault_update_s": "s",
    "routing.backup.route_calls": "count",
    "routing.backup.substitution_ratio": "ratio",
    "routing.clean_table.load_s": "s",
    "core.compiler.backup.load_s": "s",
    "experiments.runners.scenario_s_p50": "s",
    "experiments.runners.scenario_s_max": "s",
    "experiments.pool.overhead_s": "s",
    # the modelled router's simulated results (exact for a fixed seed)
    "sim.model.latency_p50_cycles": "cycles",
    "sim.model.latency_p99_cycles": "cycles",
    "sim.model.latency_samples": "count",
    "sim.model.accepted_flits_per_node_cycle": "flits/node/cycle",
    "sim.model.decision_steps_mean": "steps",
    "sim.model.decision_steps_max": "steps",
    "sim.model.delivery_ratio": "ratio",
    "sim.model.cycles_of_loss": "cycles",
    "trace.overhead_frac": "ratio",
}


def install(rec: SpanRecorder) -> None:
    from repro.core.engine import RuleEngine
    from repro.routing.backup import FastReroute
    from repro.routing.nafta import NaftaRouting
    from repro.routing.rule_driven import RuleDrivenNafta
    from repro.sim.batched import BatchedNetwork
    from repro.sim.network import Network
    from repro.sim.stats import StatsCollector
    from repro.sim.traffic import TrafficGenerator

    def count_entries(table) -> None:
        rec.counters["core.compiler.entries"] += len(table)

    rec.counters["core.compiler.entries"] = 0
    span = rec.span
    span(COMPILE, "parse", "core.dsl.parse")
    span(COMPILE, "analyze", "core.dsl.analyze")
    span(COMPILE, "expand_base", "core.compiler.expand")
    span(COMPILE, "AtomAnalysis", "core.compiler.atoms")
    span(COMPILE, "generate_table", "core.compiler.tablegen",
         on_return=count_entries)
    span(RuleEngine, "__init__", "core.engine.build")
    span(RuleEngine, "call", "core.engine.call")
    span(RuleEngine, "set_inputs", "core.engine.set_inputs")
    rec.count(RuleEngine, "post", "core.engine.post")
    span(RuleDrivenNafta, "route", "routing.rule_driven.route")
    span(RuleDrivenNafta, "on_fault_update",
         "routing.rule_driven.fault_update")
    span(NaftaRouting, "route", "routing.route")
    span(NaftaRouting, "on_fault_update", "routing.fault_update")
    span(FastReroute, "route", "routing.backup.route")
    span("repro.routing.backup", "build_backup_table_for",
         "core.compiler.backup.load")
    span("repro.routing.clean_table", "load_or_build",
         "routing.clean_table.load")
    span(BatchedNetwork, "_route_cached", "sim.batched.python_route")
    rec.count(StatsCollector, "count_decision", "sim.python_decisions")
    span(Network, "run", "sim.run")
    span(Network, "run_until_drained", "sim.run")
    span(Network, "offer", "sim.network.offer")
    span(Network, "eject", "sim.network.eject")
    span(TrafficGenerator, "tick", "sim.traffic.tick")
    span("repro.experiments.pool", "run_sweep", "experiments.pool.run_sweep")
    span("repro.experiments.pool", "run_workload",
         "experiments.runners.run_workload")


def _per_call_us(t: SpanTable, name: str, field: str = "dur",
                 only=None) -> float:
    n = t.calls(name, only)
    return t.total(name, field, only) / n * 1e6 if n else 0.0


def derive(rec: SpanRecorder, facts: dict) -> dict:
    """Per-layer metrics of one traced batch.  ``facts`` carries the
    batch's own bases: simulated cycles, decisions, messages."""
    t = SpanTable(rec)
    ctr = rec.counters
    # decision-time layers count only inside the simulation loop, not the
    # probe passes that build the clean or backup tables
    in_run = t.under("sim.run")
    m = {
        "core.dsl.parse_s": t.total("core.dsl.parse"),
        "core.dsl.analyze_s": t.total("core.dsl.analyze"),
        "core.compiler.expand_s": t.total("core.compiler.expand"),
        "core.compiler.atoms_s": t.total("core.compiler.atoms"),
        "core.compiler.tablegen_s": t.total("core.compiler.tablegen"),
        "core.compiler.entries": ctr["core.compiler.entries"],
        "core.engine.build_s": t.total("core.engine.build"),
        "core.engine.calls": t.calls("core.engine.call", in_run),
        "core.engine.call_self_us": _per_call_us(
            t, "core.engine.call", "self_time", in_run),
        "core.engine.set_inputs_us": _per_call_us(
            t, "core.engine.set_inputs", "dur", in_run),
        "core.engine.events_posted": ctr["core.engine.post"],
        "routing.rule_driven.route_calls": t.calls(
            "routing.rule_driven.route", in_run),
        "routing.rule_driven.route_self_us": _per_call_us(
            t, "routing.rule_driven.route", "self_time", in_run),
        "routing.rule_driven.fault_update_s": t.total(
            "routing.rule_driven.fault_update"),
        "sim.network.offer_calls": t.calls("sim.network.offer"),
        "sim.network.offer_us": _per_call_us(t, "sim.network.offer"),
        "sim.network.eject_calls": t.calls("sim.network.eject"),
        "sim.network.eject_us": _per_call_us(t, "sim.network.eject"),
        "sim.traffic.tick_us_per_cycle": _per_call_us(t, "sim.traffic.tick"),
        "sim.network.retry_ratio": (facts["retried"] / facts["created"]
                                    if facts.get("created") else 0.0),
        "sim.network.dead_letters": facts.get("dead_letters", 0),
        "routing.route_calls": t.calls("routing.route", in_run),
        "routing.route_self_us": _per_call_us(
            t, "routing.route", "self_time", in_run),
        "routing.fault_update_s": t.total("routing.fault_update"),
        "routing.backup.route_calls": t.calls("routing.backup.route",
                                              in_run),
        "routing.clean_table.load_s": t.total("routing.clean_table.load"),
        "core.compiler.backup.load_s": t.total("core.compiler.backup.load"),
    }
    entries = m["core.compiler.entries"]
    m["core.compiler.tablegen_us_per_entry"] = (
        m["core.compiler.tablegen_s"] / entries * 1e6 if entries else 0.0)

    routes = m["routing.rule_driven.route_calls"]
    engine_calls = sum(
        1 for i in t.ids("core.engine.call")
        if t.parent_name(i) == "routing.rule_driven.route")
    m["core.engine.steps_per_decision"] = (engine_calls / routes
                                           if routes else 0.0)

    frr = m["routing.backup.route_calls"]
    inner = sum(1 for i in t.ids("routing.route")
                if t.parent_name(i) == "routing.backup.route")
    m["routing.backup.substitution_ratio"] = (1 - inner / frr
                                              if frr else 0.0)

    cycles = facts.get("cycles", 0)
    run_self_us = (t.total("sim.run", "self_time") / cycles * 1e6
                   if cycles else 0.0)
    batched = facts.get("engine") == "batched"
    decisions = facts.get("decisions", 0)
    m["sim.batched.python_reentries"] = (
        t.calls("sim.batched.python_route") if batched else 0)
    m["sim.batched.native_decision_ratio"] = (
        1 - ctr["sim.python_decisions"] / decisions
        if batched and decisions else 0.0)
    m["sim.batched.run_self_us_per_cycle"] = run_self_us if batched else 0.0
    m["sim.network.run_self_us_per_cycle"] = (
        run_self_us if facts.get("engine") == "object" else 0.0)

    scen = [t.dur[i] for i in t.ids("experiments.runners.run_workload")]
    m["experiments.runners.scenario_s_p50"] = (
        statistics.median(scen) if scen else 0.0)
    m["experiments.runners.scenario_s_max"] = max(scen, default=0.0)
    in_sweep = sum(t.dur[i] for i in t.ids("experiments.runners.run_workload")
                   if t.parent_name(i) == "experiments.pool.run_sweep")
    m["experiments.pool.overhead_s"] = (
        t.total("experiments.pool.run_sweep") - in_sweep)
    return m


def self_time_violations(rec: SpanRecorder, wall_s: float,
                         tolerance: float = 1e-6) -> list[str]:
    """Every span's self time is >= 0 and the self times sum to no more
    than the traced wall time."""
    t = SpanTable(rec)
    bad = [f"span {t.names[t.name[i]]} has self time {s}"
           for i, s in enumerate(t.self_time) if s < -tolerance]
    total = sum(t.self_time)
    if total > wall_s + tolerance:
        bad.append(f"self times sum to {total} s > traced wall {wall_s} s")
    return bad
