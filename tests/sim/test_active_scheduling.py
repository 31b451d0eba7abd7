"""Active-router scheduling is a pure iteration-order optimization:
the network only visits routers that hold flits (plus sources with
pending worms), in ascending node order.  Skipping a router is
invisible exactly when it has nothing to do, so the active sets must
never miss a router holding flits or a source with a queued or
half-injected worm — checked every cycle, across fault events in both
fault modes.
"""

import pytest

from repro.routing.registry import make_algorithm
from repro.sim.config import SimConfig
from repro.sim.faults import FaultSchedule
from repro.sim.network import Network
from repro.sim.topology import Hypercube, Mesh2D, Torus2D
from repro.sim.traffic import TrafficGenerator


SCENARIOS = [
    ("xy", lambda: Mesh2D(6, 6), False, False),
    ("nara", lambda: Mesh2D(6, 6), False, False),
    ("nafta", lambda: Mesh2D(6, 6), False, False),
    ("torus_xy", lambda: Torus2D(6, 6), False, False),
    ("ecube", lambda: Hypercube(5), False, False),
    ("spanning_tree", lambda: Mesh2D(6, 6), True, False),
    ("nafta", lambda: Mesh2D(6, 6), True, False),
    ("nafta", lambda: Mesh2D(6, 6), True, True),
]


@pytest.mark.parametrize("algo,topo_factory,faulty,harsh", SCENARIOS,
                         ids=[f"{a}{'-faults' if f else ''}"
                              f"{'-harsh' if h else ''}"
                              for a, _, f, h in SCENARIOS])
def test_active_scheduling_is_invisible(algo, topo_factory, faulty, harsh):
    topo = topo_factory()
    kw = dict(fault_mode="harsh", detection_delay=5) if harsh else {}
    net = Network(topo, make_algorithm(algo), config=SimConfig(**kw))
    if faulty:
        fs = FaultSchedule()
        fs.add_link_fault(200, 5, 11)
        fs.add_node_fault(350, 27)
        net.schedule_faults(fs)
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.25,
                                        message_length=6, seed=7))
    busy_cycles = 0
    for _ in range(600):
        net.step()
        holding = {r.node for r in net.routers if r.n_flits}
        pending = {n for n, src in enumerate(net.sources)
                   if src.current or src.queue}
        assert holding <= net._active, net.cycle
        assert pending <= net._active_sources, net.cycle
        busy_cycles += bool(holding)
    assert busy_cycles > 500
    assert net.stats.messages_delivered > 0


def test_active_set_drains_to_empty():
    """After the network drains, lazy pruning must leave no live
    routers in the active scan (stale entries are allowed in the set
    but must be pruned on the next pass)."""
    topo = Mesh2D(4, 4)
    net = Network(topo, make_algorithm("xy"), config=SimConfig())
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.1,
                                        message_length=4, seed=3))
    net.run(100)
    net.traffic = None
    net.run_until_drained()
    assert net._live_routers() == []
    assert all(r.n_flits == 0 for r in net.routers)
