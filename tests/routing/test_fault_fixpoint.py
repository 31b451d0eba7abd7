"""The rule-driven algorithms settle their distributed fault state with
a worklist (``rule_driven._settle``): within each neighbour-exchange
wave only nodes whose registers, or a neighbour's, changed since their
last evaluation are run again.  These tests hold it to the full sweep
that runs every live node on every wave: after each
``on_fault_update`` every engine's registers (and, for NAFTA, the
per-(node, dst) premise classes) must be identical, on meshes and
hypercubes, with link faults, node faults and a fault arriving
mid-run.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.engine import RuleEngine
from repro.routing import rule_driven
from repro.routing.rule_driven import RuleDrivenNafta, RuleDrivenRouteC
from repro.sim import (FaultSchedule, Hypercube, Mesh2D, Network, SimConfig,
                       TrafficGenerator)
from repro.sim.faults import random_link_faults, random_node_faults


def _full_sweep(network, engines, evaluate) -> None:
    """Reference fixpoint: every live node, in index order, on every
    wave, until a wave changes nothing (at most ``n_nodes + 2``)."""
    topo = network.topology
    for _ in range(topo.n_nodes + 2):
        changed = False
        for node in topo.nodes():
            if not network.known_faults.node_ok(node):
                continue
            before = engines[node].registers.snapshot()
            evaluate(node)
            if engines[node].registers.snapshot() != before:
                changed = True
        if not changed:
            break


def _run(algo, topo, schedule, reference: bool, traffic_cycles: int = 0):
    """Build (and optionally run) one network; returns the state after
    every ``on_fault_update`` and the number of rule-machine runs."""
    states = []
    update = algo.on_fault_update

    def recorded(network, nodes=None):
        if reference:
            with mock.patch.object(rule_driven, "_settle", _full_sweep):
                update(network, nodes)
        else:
            update(network, nodes)
        dst_cls = getattr(algo, "_dst_cls", None)
        states.append(([eng.registers.snapshot() for eng in algo.engines],
                       None if dst_cls is None else dst_cls.copy()))

    algo.on_fault_update = recorded
    runs = [0]
    engine_run = RuleEngine.run

    def counted(self):
        runs[0] += 1
        return engine_run(self)

    with mock.patch.object(RuleEngine, "run", counted):
        net = Network(topo, algo, config=SimConfig())
        net.schedule_faults(schedule)
        if traffic_cycles:
            net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.05,
                                                message_length=4, seed=3))
            net.run(traffic_cycles)
    return states, runs[0]


def _assert_same(make_algo, topo, schedule, traffic_cycles=0):
    ref, ref_runs = _run(make_algo(), topo, schedule, True, traffic_cycles)
    got, got_runs = _run(make_algo(), topo, schedule, False, traffic_cycles)
    assert len(got) == len(ref)
    for k, ((regs, cls), (ref_regs, ref_cls)) in enumerate(zip(got, ref)):
        assert regs == ref_regs, f"registers differ after update {k}"
        if ref_cls is not None:
            assert np.array_equal(cls, ref_cls), \
                f"premise classes differ after update {k}"
    assert got_runs <= ref_runs
    return len(got), got_runs, ref_runs


def _draw(topo, n_links, n_nodes, seed):
    rng = np.random.default_rng(seed)
    nodes = random_node_faults(topo, n_nodes, rng) if n_nodes else []
    links = [(a, b) for a, b in random_link_faults(topo, n_links, rng)
             if a not in nodes and b not in nodes] if n_links else []
    return links, nodes


@pytest.mark.parametrize("width,height,n_links,n_nodes,seed", [
    (5, 4, 2, 0, 0), (5, 4, 0, 1, 1), (5, 4, 2, 1, 2),
    (6, 6, 3, 0, 3), (6, 6, 0, 2, 4), (6, 6, 2, 2, 5),
    (8, 8, 3, 0, 6), (8, 8, 0, 2, 7), (8, 8, 3, 2, 8),
])
def test_nafta_worklist_equals_full_sweep(width, height, n_links, n_nodes,
                                          seed):
    topo = Mesh2D(width, height)
    links, nodes = _draw(topo, n_links, n_nodes, seed)
    updates, runs, ref_runs = _assert_same(
        RuleDrivenNafta, topo, FaultSchedule.static(links=links, nodes=nodes))
    assert updates == 2          # fault-free boot, then the static faults
    # NAFTA's clear-run counters spread over several waves, and only
    # the nodes near the last wave's changes are run again
    assert runs < ref_runs


@pytest.mark.parametrize("width,height,seed,kind", [
    (6, 6, 9, "node"), (8, 8, 10, "link"),
])
def test_nafta_worklist_equals_full_sweep_mid_run(width, height, seed, kind):
    topo = Mesh2D(width, height)
    links, _ = _draw(topo, 2, 0, seed)
    schedule = FaultSchedule.static(links=links[:1])
    if kind == "link":
        schedule.add_link_fault(40, *links[1])
    else:
        node = next(n for n in topo.nodes()
                    if n not in links[0] and 0 < topo.coords(n)[0]
                    < width - 1 and 0 < topo.coords(n)[1] < height - 1)
        schedule.add_node_fault(40, node)
    updates, _, _ = _assert_same(RuleDrivenNafta, topo, schedule,
                                 traffic_cycles=120)
    assert updates == 3          # boot, static fault, the mid-run fault


@pytest.mark.parametrize("dim,n_links,n_nodes,seed", [
    (4, 2, 0, 11), (4, 0, 2, 12), (6, 3, 0, 13), (6, 2, 3, 14),
])
def test_route_c_worklist_equals_full_sweep(dim, n_links, n_nodes, seed):
    topo = Hypercube(dim)
    links, nodes = _draw(topo, n_links, n_nodes, seed)
    updates, _, _ = _assert_same(
        RuleDrivenRouteC, topo, FaultSchedule.static(links=links,
                                                     nodes=nodes))
    assert updates == 2
