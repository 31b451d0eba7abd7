"""Rule-driven routing: the simulator's routers controlled by actual
compiled rule programs.

This closes the loop on the paper's Figure 3: each router's control
unit is a :class:`~repro.core.engine.RuleEngine` executing the compiled
``nafta.rules`` program.  The routing decision chains the same rule
bases the paper's Table 1 describes —

1. ``incoming_message``  (one interpretation step, fault-free fast path)
2. ``in_message_ft``     (second step: fault-restricted decision)
3. ``test_exception``    (third step: detour handling)

— so the 1..3 interpretation steps per decision arise from real rule
interpretation, not from a hand-written counter.  Distributed fault
state (deactivation, usable sets, clear-run counters) is maintained in
the engines' registers by firing the state rule bases
(``fault_occured``, ``calculate_new_node_state``,
``consider_neighbor_state`` and the internally-emitted
``update_dir_table``) in neighbour-exchange waves until the registers
settle — the paper's wave-like propagation executed by the rule
machine itself.  Each wave re-runs only the nodes next to the previous
changes (``_settle``), and all engines of a network share one compiled
program and its decision kernels.

On the object engine every decision is a rule interpretation in
Python.  The batched engine runs the rule machine once per distinct
premise outcome per route epoch: ``route_cache_key`` is the premise
signature the decision bases provably factor through (its destination
part, a per-epoch class table, also keys the C cache), and a decision
whose conclusion was the ``qbest`` minimum selection carries the
``REFRESH_PICK`` hint, which replays that selection over live loads.
On the benchmark's ``rules_mesh`` workload (8x8 mesh, load 0.15, three
static link faults) that cuts decision rule-machine runs from about
7.5k to 1.4k per draw and makes three quarters of the decisions in C.
With the shared kernels and the worklist fixpoint, a batch of three
draws takes a median 1.09 s of host time (set-up 0.63 s) and simulates
5421 cycles per host second (ten seeds on a 2-CPU x86-64 host), with
identical simulated results.
The path exists for architectural fidelity and is differentially
tested against the native algorithm on small meshes.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import RuleEngine
from ..sim.flit import Header
from ..sim.topology import EAST, WEST, Mesh2D, Torus2D, Topology
from .base import (REFRESH_PICK, REFRESH_REROUTE, REFRESH_STATIC,
                   RouteDecision, RoutingAlgorithm, RoutingError)
from .nara import VN_TERMINAL, assign_virtual_network
from .rulesets.loader import RULESETS, compile_ruleset, qbest

DELIVER = 4


def _settle(network, engines: list[RuleEngine], evaluate) -> None:
    """Neighbour-exchange waves until every live node's registers
    settle.  ``evaluate(node)`` runs one node's state rule bases
    against its neighbours' registers.

    Waves visit the live nodes in index order, at most ``n_nodes + 2``
    of them, and stop after a wave that changed nothing.  Within a wave
    only dirty nodes are evaluated: all are dirty at the start, and a
    node whose registers change marks itself and its topology
    neighbours dirty (a higher-index neighbour is then evaluated later
    in the same wave, a lower-index one in the next).  An evaluation
    depends only on the node's registers, its neighbours' registers and
    ``known_faults``, so skipping a clean node skips a run that would
    change nothing: the registers follow the full sweep's exactly.
    """
    topo = network.topology
    live = [n for n in topo.nodes() if network.known_faults.node_ok(n)]
    dirty = [True] * topo.n_nodes
    for _ in range(topo.n_nodes + 2):
        changed = False
        for node in live:
            if not dirty[node]:
                continue
            dirty[node] = False
            regs = engines[node].registers
            before = regs.snapshot()
            evaluate(node)
            if regs.snapshot() != before:
                changed = True
                dirty[node] = True
                for nb in topo.neighbors(node):
                    dirty[nb] = True
        if not changed:
            return


def _attach_tracers(network, engines: list[RuleEngine]) -> None:
    """Tag each node's rule engine with the network's tracer so
    rule-base invocations show up in the trace (no-op when tracing is
    off — the engines keep the shared null tracer)."""
    tracer = getattr(network, "tracer", None)
    if tracer is not None and tracer.enabled:
        for node, eng in enumerate(engines):
            eng.attach_tracer(tracer, node)


class RuleDrivenNafta(RoutingAlgorithm):
    name = "nafta_rules"
    n_vcs = 2
    fault_tolerant = True
    # route() writes vn, sdir and the misrouted mark; on_depart is
    # exactly the base path-length bump plus the terminal commit, and
    # neither in_vc nor path_len is ever consulted
    cache_mutable_fields = ("vn", "term", "sdir", "misrouted")
    native_fields = ("vn", "term", "sdir", "misrouted")
    native_term_rule = ("term", "vn", VN_TERMINAL)
    native_key_uses_vc = False

    def __init__(self, qmax: int = 63, engine_mode: str = "table",
                 fastpath: bool = True):
        self.qmax = qmax
        self.engine_mode = engine_mode
        self.fastpath = fastpath
        self.engines: list[RuleEngine] = []
        self.compiled = None
        self._rmax = 15
        # the set the deciding qbest ("minimum selection") FCFB call
        # received, or None when no qbest call ran this step
        self._qbest_pool: "frozenset | None" = None
        self._pick_ok = True
        # premise class per (node, dst), refreshed with the fault state
        self._dst_cls: "np.ndarray | None" = None

    # -- lifecycle ------------------------------------------------------

    def check_topology(self, topology: Topology) -> None:
        if not isinstance(topology, Mesh2D) or isinstance(topology, Torus2D):
            raise RoutingError("the NAFTA ruleset runs on 2-D meshes")

    def reset(self, network) -> None:
        topo: Mesh2D = network.topology
        self._rmax = max(topo.width, topo.height) - 1
        params = {"xsize": topo.width, "ysize": topo.height,
                  "qmax": self.qmax, "rmax": self._rmax}
        self.compiled = compile_ruleset("nafta", params)
        functions = dict(RULESETS["nafta"].functions, qbest=self._qbest)
        self.engines = [RuleEngine(self.compiled, functions=functions,
                                   mode=self.engine_mode,
                                   fastpath=self.fastpath)
                        for _ in topo.nodes()]
        self.network = network
        # a PICK refresh orders the pool by raw output loads, qbest by
        # loads clipped at qmax: the two agree while no load can reach
        # the clip (buffer slots + staging slot + owner, per VC)
        self._pick_ok = (self.n_vcs * (network.config.buffer_depth + 2)
                         <= self.qmax)
        _attach_tracers(network, self.engines)
        self.on_fault_update(network)

    def _qbest(self, cands: frozenset, *loads: int) -> int:
        """The "minimum selection" FCFB, recording the set it chose
        from (the pool of a PICK decision)."""
        self._qbest_pool = cands
        return qbest(cands, *loads)

    # -- distributed state via the rule machine ----------------------------

    def _engine_blocked(self, node: int) -> bool:
        return self.engines[node].registers.read("mystate") != "safe"

    def _neighbor_view(self, network, node: int, dir_: int):
        """(state symbol, run counter) the neighbour in ``dir_`` reports,
        as the information channel would deliver it.  A mesh border is
        NOT a blocked neighbour (that would falsely deactivate corners);
        it is a missing link — linkok=false zeroes the run counter."""
        topo = network.topology
        port = topo.port(node, dir_)
        if port is None:
            return "ok", 0        # border: no neighbour, link dead below
        if not network.known_faults.link_ok(node, port.neighbor):
            return "blocked", 0
        if self._engine_blocked(port.neighbor):
            return "blocked", 0
        run = self.engines[port.neighbor].registers.read("runc", (dir_,))
        return "ok", int(run)

    def on_fault_update(self, network, nodes=None) -> None:
        """Diagnosis phase: drive the state rule bases to fixpoint."""
        topo: Mesh2D = network.topology
        # 1. local failures enter through fault_occured
        for node in topo.nodes():
            eng = self.engines[node]
            if not network.known_faults.node_ok(node):
                eng.set_inputs({"fault_kind": 0})
                eng.post("fault_occured", 0)
                eng.run()
                eng.drain_external()
            else:
                for dir_ in range(4):
                    port = topo.port(node, dir_)
                    if port is not None and \
                            not network.known_faults.link_ok(node, port.neighbor):
                        eng.set_inputs({"fault_kind": 1})
                        eng.post("fault_occured", dir_)
                        eng.run()
                        eng.drain_external()
        # 2. neighbour-exchange waves until every register settles
        def exchange(node: int) -> None:
            eng = self.engines[node]
            nnew = {}
            nrun = {}
            linkok = {}
            for dir_ in range(4):
                state, run = self._neighbor_view(network, node, dir_)
                nnew[(dir_,)] = state
                nrun[(dir_,)] = run
                port = topo.port(node, dir_)
                linkok[(dir_,)] = (
                    "true" if port is not None
                    and network.known_faults.link_ok(node, port.neighbor)
                    else "false")
            eng.set_inputs({"nnew": nnew, "nrun": nrun,
                            "linkok": linkok, "fault_kind": 1})
            for dir_ in range(4):
                eng.post("calculate_new_node_state", dir_)
                eng.post("consider_neighbor_state", dir_)
            eng.run()
            eng.drain_external()

        _settle(network, self.engines, exchange)
        self._dst_cls = self._premise_classes(topo)

    def _premise_classes(self, topo: Mesh2D) -> np.ndarray:
        """What the decision bases read of the destination, per (node,
        dst), as one small int: its quadrant (they compare coordinates
        only with comparators and the sign-dependent FCFBs) plus, in the
        destination column, the clear-run bit (``runok``) for both
        virtual networks' terminal directions."""
        xs, ys = np.array([topo.coords(v) for v in topo.nodes()]).T
        sx = np.sign(xs[None, :] - xs[:, None])
        sy = np.sign(ys[None, :] - ys[:, None])
        dist = np.abs(ys[None, :] - ys[:, None])
        runs = np.array([[eng.registers.read("runc", (VN_TERMINAL[vn],))
                          for vn in (0, 1)] for eng in self.engines])
        runok = (runs[:, 0, None] >= dist) + 2 * (runs[:, 1, None] >= dist)
        return (sx + 1) * 3 + sy + 1 + 9 * np.where(sx == 0, runok, 0)

    def accepts(self, src: int, dst: int) -> bool:
        return not (self._engine_blocked(src) or self._engine_blocked(dst))

    # -- the decision -----------------------------------------------------------

    def _decision_inputs(self, router, header: Header, in_port: int,
                         vn: int) -> dict:
        topo: Mesh2D = router.topology
        eng = self.engines[router.node]
        x, y = topo.coords(router.node)
        dx, dy = topo.coords(header.dst)
        term = VN_TERMINAL[vn]
        # The mask carries *fault usability*, not momentary congestion:
        # a busy-but-healthy output makes the worm wait at the router
        # (the decision is re-evaluated each cycle with fresh loads),
        # whereas a fault-unusable output triggers the ft/exception rule
        # bases.  Misrouting on congestion would be wrong.
        mask = set()
        for d in range(4):
            if d == in_port:
                continue  # never u-turn (wired out at the interface)
            port = topo.port(router.node, d)
            if port is None or not router.port_alive(d):
                continue
            if self._engine_blocked(port.neighbor):
                continue
            mask.add(d)
        freemask = {(vc,): frozenset(mask) for vc in range(self.n_vcs)}
        oq = {(d,): min(self.qmax, router.output_load(d) if d in router.ports
                        else self.qmax)
              for d in range(4)}
        hops = abs(dy - y)
        runok = (eng.registers.read("runc", (term,)) >= hops)
        sdir = header.fields.get("sdir")
        return {
            "xpos": x, "ypos": y, "xdes": dx, "ydes": dy, "vnin": vn,
            "termin": "true" if header.fields.get("term") else "false",
            "sdirin": {None: 0, EAST: 1, WEST: 2}.get(sdir, 0),
            "fault_present": ("true" if self.network.known_faults.n_faults()
                              else "false"),
            "freemask": freemask, "oq": oq,
            "samecol": "true" if x == dx else "false",
            "runok": "true" if runok else "false",
            "mlen": min(self.qmax, header.length),
            "info_kind": "load_info", "info_val": 0, "fault_kind": 0,
        }

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        if router.node == header.dst:
            return RouteDecision(deliver=True, refresh_hint=REFRESH_STATIC)
        eng = self.engines[router.node]
        vn = header.fields.get("vn")
        if vn is None:
            vn = assign_virtual_network(router.topology, router.node,
                                        header.dst)
            header.fields["vn"] = vn
        indir = in_port if in_port >= 0 else 4
        # _decision_inputs builds canonical (tuple-keyed) dicts, so the
        # per-decision normalization scan can be skipped
        eng.set_inputs(self._decision_inputs(router, header, in_port, vn),
                       trusted=True)

        # step 1: the NARA fast path
        self._qbest_pool = None
        res = eng.call("incoming_message", indir, vn)
        steps = 1
        if not res.has_return:
            # step 2: fault-tolerant decision
            self._qbest_pool = None
            res = eng.call("in_message_ft", indir)
            steps = 2
        if not res.has_return:
            # step 3: the exception path
            self._qbest_pool = None
            res = eng.call("test_exception", indir)
            steps = 3
            if any(e.event == "declare_stuck" for e in res.emissions):
                eng.drain_external()
                return RouteDecision.unroutable(steps=steps)
            if res.has_return:
                out = int(res.returned)
                if out in (EAST, WEST):
                    header.fields["sdir"] = out
                header.mark_misrouted()
        eng.drain_external()
        if not res.has_return:
            # blocked, not stuck: wait and retry next cycle (the retry
            # repeats this outcome until the fault knowledge changes)
            return RouteDecision(candidates=[], steps=steps,
                                 refresh_hint=REFRESH_STATIC)
        out = res.returned
        if out == DELIVER:
            return RouteDecision(deliver=True, steps=steps,
                                 refresh_hint=REFRESH_STATIC)
        pool = self._qbest_pool
        if pool is None:
            # a fixed conclusion: the table outcome alone decides
            return RouteDecision(candidates=[(int(out), vn)], steps=steps,
                                 refresh_hint=REFRESH_STATIC)
        # the conclusion was qbest over live loads: a PICK over its set
        return RouteDecision(
            candidates=[(int(out), vn)], steps=steps,
            refresh_hint=REFRESH_PICK if self._pick_ok else REFRESH_REROUTE,
            pool=tuple((p, vn) for p in sorted(pool)))

    def route_cache_key(self, node: int, header: Header, in_port: int,
                        in_vc: int) -> tuple:
        """The premise signature of the three decision bases: the
        destination's premise class, the arrival port and the header
        fields.  The output loads enter only as ``qbest`` arguments
        (replayed by the PICK hint); everything else the bases read is
        per-node and epoch-static."""
        f = header.fields
        return (node, int(self._dst_cls[node, header.dst]), in_port,
                f.get("vn"), f.get("term"), f.get("sdir"),
                f.get("misrouted"))

    def native_dst_classes(self, network) -> np.ndarray:
        return self._dst_cls

    def on_depart(self, router, header: Header, out_port: int,
                  out_vc: int) -> None:
        super().on_depart(router, header, out_port, out_vc)
        vn = header.fields.get("vn")
        if vn is not None and out_port == VN_TERMINAL[vn]:
            header.fields["term"] = True

    def decision_steps_range(self) -> tuple[int, int]:
        return (1, 3)


class RuleDrivenRouteC(RoutingAlgorithm):
    """ROUTE_C executed by the rule machine: the two interpretation
    steps per decision are real invocations of the compiled
    ``decide_dir`` and ``decide_vc`` rule bases, and the safety states
    live in each node engine's registers, fed by ``update_state``
    events exchanged between neighbours until the lattice settles.

    The adaptivity rule base runs concurrently with decide_vc in the
    paper's model (its criterion generation "is done separately"), so a
    decision still counts two steps.
    """

    name = "route_c_rules"
    n_vcs = 5
    fault_tolerant = True

    def __init__(self, engine_mode: str = "table", fastpath: bool = True):
        self.engine_mode = engine_mode
        self.fastpath = fastpath
        self.engines: list[RuleEngine] = []
        self.compiled = None
        self._d = 0

    def check_topology(self, topology: Topology) -> None:
        from ..sim.topology import Hypercube
        if not isinstance(topology, Hypercube):
            raise RoutingError("the ROUTE_C ruleset runs on hypercubes")

    def reset(self, network) -> None:
        topo = network.topology
        self._d = topo.dimension
        self.compiled = compile_ruleset("route_c", {"d": self._d, "a": 2})
        spec = RULESETS["route_c"]
        self.engines = [RuleEngine(self.compiled, functions=spec.functions,
                                   mode=self.engine_mode,
                                   fastpath=self.fastpath)
                        for _ in topo.nodes()]
        self.network = network
        _attach_tracers(network, self.engines)
        self.on_fault_update(network)

    # -- distributed safety state through update_state events ---------------

    def _reported_state(self, network, node: int) -> str:
        """The state a node broadcasts to its neighbours."""
        if not network.known_faults.node_ok(node):
            return "faulty"
        topo = network.topology
        if any(not network.known_faults.link_ok(node, p.neighbor)
               for p in topo.ports(node).values()
               if network.known_faults.node_ok(p.neighbor)):
            return "lfault"
        return self.engines[node].registers.read("state")

    def on_fault_update(self, network, nodes=None) -> None:
        topo = network.topology
        for eng in self.engines:
            eng.reset_state()

        def exchange(node: int) -> None:
            eng = self.engines[node]
            new_state = {}
            for dim, port in topo.ports(node).items():
                nb = port.neighbor
                if not network.known_faults.link_ok(node, nb):
                    new_state[(dim,)] = "lfault"
                else:
                    new_state[(dim,)] = self._reported_state(network, nb)
            eng.set_inputs({"new_state": new_state, "qload": {},
                            "up_set": frozenset(),
                            "down_set": frozenset(),
                            "usable": frozenset(),
                            "safe_mask": frozenset(),
                            "at_dest": "false"})
            for dim in range(self._d):
                eng.post("update_state", dim)
            eng.run()
            eng.drain_external()

        _settle(network, self.engines, exchange)

    def node_state(self, node: int) -> str:
        return self._reported_state(self.network, node)

    def accepts(self, src: int, dst: int) -> bool:
        return (self.network.known_faults.node_ok(src)
                and self.network.known_faults.node_ok(dst))

    # -- the decision -----------------------------------------------------------

    def _masks(self, router, header: Header):
        topo = router.topology
        node = router.node
        diff = node ^ header.dst
        up = frozenset(i for i in range(self._d)
                       if diff >> i & 1 and not node >> i & 1)
        down = frozenset(i for i in range(self._d)
                         if diff >> i & 1 and node >> i & 1)
        usable = set()
        safe = set()
        for dim, port in topo.ports(node).items():
            nb = port.neighbor
            if not self.network.known_faults.link_ok(node, nb):
                continue
            st = self.node_state(nb)
            if st == "faulty":
                continue
            if st == "sunsafe" and nb != header.dst:
                continue
            usable.add(dim)
            if st == "safe":
                safe.add(dim)
        return up, down, frozenset(usable), frozenset(safe)

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        if router.node == header.dst:
            return RouteDecision.delivery(steps=2)
        eng = self.engines[router.node]
        up, down, usable, safe = self._masks(router, header)
        # never u-turn: wired out at the interface, like the native
        # algorithm's in_port exclusion
        if in_port >= 0:
            usable = usable - {in_port}
        qload = {(d,): min(2 * self._d - 1, router.output_load(d)
                           if d in router.ports else 2 * self._d - 1)
                 for d in range(self._d)}
        eng.set_inputs({"up_set": up, "down_set": down, "usable": usable,
                        "safe_mask": safe, "at_dest": "false",
                        "qload": qload, "new_state": {}}, trusted=True)

        # step 1: decide_dir — the admissible output set
        res = eng.call("decide_dir")
        eng.drain_external()
        if not res.has_return or not res.returned:
            return RouteDecision.unroutable(steps=2)
        cands = res.returned
        assert isinstance(cands, frozenset)
        minimal = up if up else down
        detour = not (set(cands) & set(minimal))

        # (concurrent) adaptivity: order the admissible set
        best = eng.decide("adaptivity", cands, 0)
        eng.drain_external()
        ordered = sorted(cands, key=lambda d: (d != best, qload[(d,)], d))

        # step 2: decide_vc — channel class for the hops-so-far scheme
        cls = int(header.fields.get("vc_class", 0))
        res_vc = eng.call("decide_vc", cls, "true" if detour else "false", best)
        eng.drain_external()
        if not res_vc.has_return:
            return RouteDecision.unroutable(steps=2)
        out_vc = int(res_vc.returned)
        if detour:
            header.mark_misrouted()
            # the "_" prefix marks this as per-decision scratch: it is
            # recomputed by every route() call and consumed by the same
            # decision's on_depart, so backup-aware dispatch
            # (routing/backup.py) may discard it when substituting a
            # precompiled entry — only ``vc_class`` is committed state
            header.fields["_detour_next"] = True
        return RouteDecision(candidates=[(d, out_vc) for d in ordered],
                             steps=2)

    def on_depart(self, router, header: Header, out_port: int,
                  out_vc: int) -> None:
        super().on_depart(router, header, out_port, out_vc)
        if header.fields.pop("_detour_next", False):
            header.fields["vc_class"] = int(
                header.fields.get("vc_class", 0)) + 1

    def decision_steps_range(self) -> tuple[int, int]:
        return (2, 2)
