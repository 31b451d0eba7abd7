"""The benchmark's workloads: inputs from a seed, one fixed batch of work,
and the output checks.

Each workload is a fixed batch of work whose inputs derive only from
the seed, so every repetition of a batch inside one run simulates (or
compiles) exactly the same thing and produces identical simulated
results; only host time varies.  Traffic is open loop in simulated
time: ``TrafficGenerator`` injects on its own Bernoulli schedule and
source queues absorb any backlog.  Everything runs in one process, with
no worker pool and the sweep result cache off.

Simulated time (cycles) and host time (seconds) are kept apart in every
name.  Simulated latency and throughput are not validated against the
paper, which reports hardware cost and interpretation steps rather than
latency; the decision-step count is the one figure checked against it
(paper Section 5: one to three steps per NAFTA decision).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.compiler import (AtomAnalysis, compile_program,
                                 verify_equivalence)
from repro.core.engine import RuleEngine
from repro.experiments import pool as sweep_pool
from repro.experiments.campaign import run_campaign
from repro.experiments.runners import _logical_accounting
from repro.routing import backup as fast_reroute
from repro.routing.registry import make_algorithm
from repro.routing.rulesets.loader import RULESETS, compile_ruleset
from repro.sim import (FaultSchedule, Mesh2D, SimConfig, TrafficGenerator,
                       random_link_faults)
from repro.sim import _batched_kernel
from repro.sim.batched import batched_fallback_reason, build_network
from repro.sim.network import DeadlockError, Network
from repro.sim.stats import DecisionDigest

from timing import Stopwatch
from tracing import SpanRecorder

SIM_METRICS = ("latency_p50_cycles", "latency_p99_cycles",
               "latency_samples", "accepted_flits_per_node_cycle",
               "decision_steps_mean", "decision_steps_max",
               "delivery_ratio", "cycles_of_loss")


class EngineFallback(RuntimeError):
    """A workload that asked for the batched engine did not get it.
    Reporting its figures would look like a tenfold regression, so the
    run stops instead."""


@dataclass
class Batch:
    """One fixed batch of work, as measured."""

    watch: Stopwatch       # host time, piece by piece
    work: int              # simulated cycles timed, or table entries
    attempted: int
    failed: int
    sim: dict              # simulated results, exact for a fixed seed
    facts: dict = field(default_factory=dict)   # bases for layer ratios
    problems: list = field(default_factory=list)


def forget_process_memos() -> None:
    """A returning user starts a fresh process with warm on-disk caches.
    Drop the in-process memos before each batch, so that set-up pays
    the kernel load, the code-version hash and the backup-table build a
    new process pays, not a dictionary hit."""
    _batched_kernel._CACHED = False
    fast_reroute._TABLE_MEMO.clear()
    sweep_pool._code_token = None


def guard_batched(net) -> None:
    if os.environ.get("REPRO_BATCHED_NO_TABLE"):
        raise EngineFallback(
            "REPRO_BATCHED_NO_TABLE is set: the clean decision tables are "
            "off, so the batched figures would not be comparable")
    if net.engine_name != "batched":
        raise EngineFallback(
            f"asked for the batched engine but ran on {net.engine_name!r}: "
            f"{net.stats.engine_fallback or batched_fallback_reason()}")


def _percentiles(latencies: list) -> tuple[float, float]:
    if not latencies:
        return float("nan"), float("nan")
    p50, p99 = np.percentile(latencies, [50, 99])
    return float(p50), float(p99)


# -- mesh simulation workloads -------------------------------------------


@dataclass(frozen=True)
class MeshSize:
    width: int
    load: float
    n_faults: int
    draws: int             # fault/traffic draws per batch
    warmup: int            # simulated cycles, excluded from the window
    window: int            # timed simulated cycles per draw
    segment: int           # cycles per timed piece
    parity_cycles: int     # prefix checked against the object engine


class MeshWorkload:
    """``algorithm`` on a ``width`` x ``width`` mesh with the batched
    engine, uniform traffic, and ``n_faults`` connectivity-preserving
    static link faults per draw."""

    message_length = 6

    def __init__(self, name: str, algorithm: str, seed: int,
                 size: MeshSize):
        self.name = name
        self.algorithm = algorithm
        self.size = size
        topo = Mesh2D(size.width, size.width)
        self.draws = []
        for d in range(size.draws):
            rng = np.random.default_rng([seed, 0xFA17, d])
            links = (random_link_faults(topo, size.n_faults, rng)
                     if size.n_faults else [])
            self.draws.append((links, seed * 1000 + d))

    def _network(self, links, engine: str):
        topo = Mesh2D(self.size.width, self.size.width)
        net = build_network(topo, make_algorithm(self.algorithm),
                            SimConfig(engine=engine))
        if links:
            net.schedule_faults(FaultSchedule.static(links=links))
        return net

    def _traffic(self, net, traffic_seed: int) -> None:
        net.attach_traffic(TrafficGenerator(
            net.topology, "uniform", load=self.size.load,
            message_length=self.message_length, seed=traffic_seed))

    def warm(self) -> None:
        """Untimed: build the kernel and the clean tables into the
        private cache directory."""
        guard_batched(self._network(self.draws[0][0], "batched"))

    def run_batch(self, inject: str | None = None) -> Batch:
        forget_process_memos()
        watch = Stopwatch()
        hooks = SpanRecorder()
        # network set-up compiles the ruleset and runs the rule engines'
        # fault fixpoint; cut both into small pieces
        watch.split_every(hooks, AtomAnalysis, "enumerate_assignments", 256)
        watch.split_every(hooks, RuleEngine, "run", 16)
        try:
            return self._batch(watch, inject)
        finally:
            hooks.uninstall()

    def _batch(self, watch: Stopwatch, inject: str | None) -> Batch:
        size = self.size
        cycles = decisions = steps = max_steps = 0
        created = delivered = 0
        latencies: list = []
        accepted: list = []
        problems: list = []
        deadlocked = False
        for d, (links, traffic_seed) in enumerate(self.draws):
            watch.phase(f"setup{d}", "setup")
            net = self._network(links, "batched")
            watch.lap(f"setup{d}", "setup")
            watch.phase(f"run{d}", "other")
            guard_batched(net)
            self._traffic(net, traffic_seed)
            net.set_warmup(size.warmup)
            try:
                for k in range(size.warmup // size.segment):
                    net.run(size.segment)
                    watch.lap(f"warmup{d}.{k}", "other")
                for k in range(size.window // size.segment):
                    net.run(size.segment)
                    watch.lap(f"window{d}.{k}", "work")
                net.traffic = None
                net.run_until_drained()
            except DeadlockError as exc:
                deadlocked = True
                problems.append(f"deadlock: {exc}".splitlines()[0])
            stats = net.stats
            cycles += net.cycle
            decisions += stats.decisions
            steps += stats.decision_steps
            max_steps = max(max_steps, stats.max_decision_steps)
            # the per-message latencies behind SimStats' percentiles
            latencies.extend(stats._latencies)
            accepted.append(stats.throughput(net.topology.n_nodes))
            if inject == "undelivered":
                victim = next(m for m in net.messages.values()
                              if m.delivered is not None)
                victim.delivered = None
                inject = None
            logical = _logical_accounting(net)
            created += logical["messages_created_logical"]
            delivered += logical["messages_delivered_logical"]
            watch.lap(f"drain{d}", "other")
        p50, p99 = _percentiles(latencies)
        sim = {
            "latency_p50_cycles": p50,
            "latency_p99_cycles": p99,
            "latency_samples": len(latencies),
            "accepted_flits_per_node_cycle": float(np.mean(accepted)),
            "decision_steps_mean": steps / decisions if decisions else 0.0,
            "decision_steps_max": max_steps,
            "delivery_ratio": delivered / created if created else 0.0,
            "cycles_of_loss": 0,
        }
        failed = created if deadlocked else created - delivered
        return Batch(watch=watch, work=size.window * len(self.draws),
                     attempted=created, failed=failed, sim=sim,
                     facts={"engine": "batched", "cycles": cycles,
                            "decisions": decisions, "retried": 0,
                            "created": created, "dead_letters": 0},
                     problems=problems)

    def check(self, batch: Batch, inject: str | None = None) -> list[str]:
        """The batched engine must match the object engine (summary and
        per-decision digest) on the first draw's inputs, over a prefix
        of the run plus its drain; if not, every operation failed."""
        links, traffic_seed = self.draws[0]
        summaries = {}
        for engine in ("batched", "object"):
            net = self._network(links, engine)
            if engine == "batched":
                guard_batched(net)
            net.stats.digest = DecisionDigest()
            self._traffic(net, traffic_seed)
            net.set_warmup(self.size.warmup)
            try:
                net.run(self.size.parity_cycles)
                net.traffic = None
                net.run_until_drained()
            except DeadlockError:
                batch.failed = batch.attempted
                return [f"{engine} engine deadlocked in the parity prefix"]
            summaries[engine] = net.stats.summary(net.topology.n_nodes)
        if inject == "digest":
            summaries["object"]["decision_digest"] = "0" * 64
        a, b = (json.dumps(summaries[e], sort_keys=True)
                for e in ("batched", "object"))
        if a == b:
            return []
        batch.failed = batch.attempted
        return [f"batched summary/digest differ from the object engine "
                f"over {self.size.parity_cycles} cycles: {a} != {b}"]


class RulesMesh(MeshWorkload):
    def check(self, batch: Batch, inject: str | None = None) -> list[str]:
        problems = super().check(batch, inject)
        mean = batch.sim["decision_steps_mean"]
        top = batch.sim["decision_steps_max"]
        if not (1.0 <= mean <= 3.0 and 1 <= top <= 3):
            problems.append(
                f"decision steps outside the paper's 1-3: mean {mean}, "
                f"max {top}")
        return problems


# -- fault campaign -------------------------------------------------------


@dataclass(frozen=True)
class CampaignSize:
    scenarios: int
    scenario_kw: dict
    piece_cycles: int      # simulated cycles per timed piece


class FaultCampaign:
    """``run_campaign`` chaos scenarios of native NAFTA with fast
    reroute (object engine); see BENCHMARK.json."""

    name = "fault_campaign"

    def __init__(self, seed: int, size: CampaignSize):
        self.seed = seed
        self.size = size

    def warm(self) -> None:
        """Nothing on disk to fill: the backup table of this path lives
        in an in-process memo, rebuilt by every new process."""

    def run_batch(self, inject: str | None = None) -> Batch:
        forget_process_memos()
        scenarios: list = []
        nets: list = []
        latencies: list = []

        def setup_done(net):
            k = len(nets)
            watch.lap(f"setup{k}", "setup")
            watch.phase(f"scenario{k}", "work")
            nets.append(net)

        def scenario_done(result):
            k = len(scenarios)
            watch.lap(f"scenario{k}", "work")
            watch.phase(f"setup{k + 1}", "setup")
            latencies.extend(nets[-1].stats._latencies)
            nets[-1] = None
            scenarios.append(result)

        # the campaign builds and runs its networks inside the
        # experiments layer, so its pieces end at calls into that layer
        watch = Stopwatch()
        watch.phase("setup0", "setup")
        hooks = SpanRecorder()
        hooks.span("repro.experiments.runners", "build_network", "setup",
                   on_return=setup_done)
        hooks.span("repro.experiments.pool", "run_workload", "scenario",
                   on_return=scenario_done)
        watch.split_every(hooks, Network, "step", self.size.piece_cycles)
        watch.split_every(hooks, "repro.core.compiler.backup", "_probe_link",
                          1)
        try:
            report = run_campaign(self.size.scenarios, seed=self.seed,
                                  backup_routes=True,
                                  **self.size.scenario_kw)
        finally:
            hooks.uninstall()
        watch.lap("campaign", "other")
        problems = []
        if report["silent_loss"]:
            problems.append(f"{report['silent_loss']} messages silently lost")
        if report["deadlocked_scenarios"]:
            problems.append(
                f"deadlocked scenarios {report['deadlocked_scenarios']}")
        for res in scenarios:
            if res["engine"] != "object" or "engine_fallback" in res:
                problems.append(f"scenario ran on {res['engine']}")
        created = report["created_logical"]
        delivered = report["delivered_logical"]
        if inject == "undelivered":
            delivered -= 1
        failed = (created if report["deadlocked_scenarios"]
                  else created - delivered)
        decisions = sum(r["decisions"] for r in scenarios)
        p50, p99 = _percentiles(latencies)
        sim = {
            "latency_p50_cycles": p50,
            "latency_p99_cycles": p99,
            "latency_samples": len(latencies),
            "accepted_flits_per_node_cycle": float(np.mean(
                [r["throughput_flits_node_cycle"] for r in scenarios])),
            "decision_steps_mean": sum(
                r["mean_decision_steps"] * r["decisions"]
                for r in scenarios) / decisions,
            "decision_steps_max": max(r["max_decision_steps"]
                                      for r in scenarios),
            "delivery_ratio": delivered / created,
            "cycles_of_loss": report["cycles_of_loss"],
        }
        cycles = sum(r["cycles"] for r in scenarios)
        return Batch(watch=watch, work=cycles, attempted=created,
                     failed=failed, sim=sim,
                     facts={"engine": "object", "cycles": cycles,
                            "decisions": decisions,
                            "retried": report["retried"],
                            "created": created,
                            "dead_letters": report["dead_lettered"]},
                     problems=problems)

    def check(self, batch: Batch, inject: str | None = None) -> list[str]:
        # zero silent loss and no deadlock are read off every batch
        return []


# -- rule compilation -------------------------------------------------------


def west_first_source() -> str:
    """The west-first program of ``examples/custom_rule_algorithm.py``
    (read as text: the example runs nothing at import, but it is not a
    package module)."""
    import importlib.util
    path = os.path.join(os.getcwd(), "examples", "custom_rule_algorithm.py")
    spec = importlib.util.spec_from_file_location("custom_rule_algorithm",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WEST_FIRST


@dataclass(frozen=True)
class CompileSize:
    #: (label, shipped ruleset name or None for west-first, parameters)
    programs: tuple
    samples: int           # verification samples per rule base
    constructions: int     # timed RuleEngine set-ups per program
    piece_entries: int     # table entries per timed piece


class RuleCompile:
    """``compile_program`` on shipped rulesets and the west-first
    example; see BENCHMARK.json."""

    name = "rule_compile"

    def __init__(self, seed: int, size: CompileSize):
        self.seed = seed
        self.size = size
        self.sources = {label: west_first_source()
                        for label, ruleset, _ in size.programs
                        if ruleset is None}
        self._compiled: list = []

    def warm(self) -> None:
        pass

    def _compile(self, label, ruleset, params):
        if ruleset is None:
            return compile_program(self.sources[label], params=params)
        return compile_ruleset(ruleset, params)

    def run_batch(self, inject: str | None = None) -> Batch:
        watch = Stopwatch()
        entries = 0
        compiled = []
        hooks = SpanRecorder()
        # a rule base's table fills entry by entry; cut the fill into
        # small pieces (see timing.py)
        watch.split_every(hooks, AtomAnalysis, "enumerate_assignments",
                          self.size.piece_entries)
        try:
            for label, ruleset, params in self.size.programs:
                watch.phase(f"compile.{label}", "work")
                prog = self._compile(label, ruleset, dict(params))
                watch.lap(f"compile.{label}", "work")
                entries += sum(b.n_entries for b in prog.all_bases.values())
                compiled.append((label, ruleset, prog))
        finally:
            hooks.uninstall()
        for label, ruleset, prog in compiled:
            functions = RULESETS[ruleset].functions if ruleset else None
            times = []
            for _ in range(self.size.constructions):
                t0 = time.perf_counter()
                RuleEngine(prog, functions=functions)
                times.append(time.perf_counter() - t0)
            # one set-up per program is the batch's work; the repeats
            # only make its sub-millisecond time measurable
            watch.lap(f"setup.{label}", "setup", seconds=min(times))
        self._compiled = compiled
        n_bases = sum(len(p.all_bases) for _, _, p in compiled)
        return Batch(watch=watch, work=entries, attempted=n_bases,
                     failed=0,
                     sim={}, facts={"entries": entries})

    def check(self, batch: Batch, inject: str | None = None) -> list[str]:
        """Table execution must match the AST interpreter on a seeded
        sample of every rule base.  Each sample is one operation; a
        disagreeing sample is a failed one."""
        problems = []
        for k, (label, ruleset, prog) in enumerate(self._compiled):
            functions = RULESETS[ruleset].functions if ruleset else None
            for j, base in enumerate(sorted(prog.all_bases)):
                rep = verify_equivalence(
                    prog, base, functions=functions, max_exhaustive=0,
                    samples=self.size.samples,
                    seed=int(np.random.default_rng(
                        [self.seed, k, j]).integers(1 << 31)))
                bad = len(rep.mismatches) + len(rep.errors)
                if inject == "digest" and k == 0 and j == 0:
                    bad += 1
                batch.attempted += rep.checked
                batch.failed += bad
                if bad:
                    problems.append(f"{label}.{base}: {rep.summary()}")
        return problems


# -- registry ----------------------------------------------------------------

SIZES = {
    "full": {
        "rules_mesh": MeshSize(width=8, load=0.15, n_faults=3, draws=3,
                               warmup=150, window=400, segment=10,
                               parity_cycles=150),
        "native_mesh": MeshSize(width=32, load=0.06, n_faults=0, draws=1,
                                warmup=300, window=2000, segment=20,
                                parity_cycles=120),
        "fault_campaign": CampaignSize(
            scenarios=4, scenario_kw={"cycles": 1200, "warmup": 200},
            piece_cycles=20),
        "rule_compile": CompileSize(
            programs=(("nafta", "nafta", ()),
                      ("route_c", "route_c", (("d", 6),)),
                      ("route_c_merged", "route_c_merged", (("d", 6),)),
                      ("west_first", None, (("xsize", 4), ("ysize", 4)))),
            samples=60, constructions=15, piece_entries=256),
    },
    "tiny": {
        "rules_mesh": MeshSize(width=4, load=0.15, n_faults=1, draws=1,
                               warmup=20, window=40, segment=10,
                               parity_cycles=40),
        "native_mesh": MeshSize(width=6, load=0.06, n_faults=0, draws=1,
                                warmup=20, window=40, segment=20,
                                parity_cycles=40),
        "fault_campaign": CampaignSize(
            scenarios=1, scenario_kw={"width": 4, "height": 4,
                                      "cycles": 300, "warmup": 50},
            piece_cycles=50),
        "rule_compile": CompileSize(
            programs=(("route_c", "route_c", (("d", 3),)),
                      ("west_first", None, (("xsize", 2), ("ysize", 2)))),
            samples=5, constructions=3, piece_entries=64),
    },
}

WORKLOADS = ("rules_mesh", "native_mesh", "fault_campaign", "rule_compile")


def make_workload(name: str, seed: int, size: str = "full"):
    cfg = SIZES[size][name]
    if name == "rules_mesh":
        return RulesMesh(name, "nafta_rules", seed, cfg)
    if name == "native_mesh":
        return MeshWorkload(name, "nafta", seed, cfg)
    if name == "fault_campaign":
        return FaultCampaign(seed, cfg)
    return RuleCompile(seed, cfg)
