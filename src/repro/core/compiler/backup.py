"""Build-time backup rule subbases for LFA-style fast reroute.

The paper's rule-base architecture makes post-fault reconfiguration a
first-class compiler operation — but reconfiguration is the *slow*
path: detection, a notification flood, and a distributed state
recomputation all happen while worms die on the dead link.  This
module emits the *fast* path at network-construction time: for every
link a node could lose, a **backup next-hop subbase** — the candidate
outputs a fresh injection at that node would legally take *if that one
link were already dead* — precomputed before any failure and installed
alongside the primary rules, so a detecting node can reroute locally
the moment its heartbeat confirms the fault, with no flooding
round-trip (the DBR-style split of fast local recovery over slow
global convergence).

The build reuses the probe discipline of
:mod:`repro.routing.clean_table`: entries are obtained by running the
*live* algorithm's ``route()`` against a shadow network with exactly
the protected link failed, and every entry is verified —

* **probe-verified**: each entry is re-probed and must reproduce the
  identical decision — candidates *and* header-field writes (updown
  commits its move map through ``header.fields``); a nondeterministic
  decision is disqualified, never stored;
* **scoped**: an entry is emitted only for destinations whose
  *fault-free* primary decision at that node uses the protected link —
  other destinations never need the backup (classic LFA coverage);
* **deadlock-checked**: for a deterministic sample of protected links
  (all of them in the analysis tests) the shadow network's channel
  dependency graph is extracted via
  :func:`repro.analysis.deadlock.build_cdg` and must be acyclic — the
  backup entries *are* that configuration's routing relation at the
  injection state, so an acyclic CDG certifies them.

Tables live in memory only: :class:`repro.routing.backup.FastReroute`
memoizes them per process, keyed by algorithm and topology.  Entries
must still survive a JSON round-trip (``BackupTable.to_dict`` /
``from_dict``), so a table can be exported and reloaded unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ...sim.topology import link_key

#: pseudo in-port: the probe models a fresh injection at the local port
_LOCAL = -1

#: bump when the to_dict layout changes
_FORMAT = 1


@dataclass
class BackupTable:
    """Per-node backup next-hop entries, keyed by the protected link.

    ``entries[(a, b)][node][dst]`` is ``(candidates, fields)``: the
    ``(port, vc)`` list a fresh injection at ``node`` (one of the
    link's endpoints) may take toward ``dst`` while link ``(a, b)`` is
    down, plus the header-field writes the live algorithm made when it
    produced that decision (replayed verbatim on activation so
    ``on_depart`` bookkeeping — e.g. updown's phase commit — stays
    exactly what the algorithm would have done itself).
    """

    entries: dict = field(default_factory=dict)
    #: protected links whose shadow CDG was extracted and found acyclic
    verified_links: list = field(default_factory=list)

    def lookup(self, node: int, link: tuple[int, int],
               dst: int) -> tuple | None:
        per_link = self.entries.get(link_key(*link))
        if not per_link:
            return None
        per_node = per_link.get(node)
        if not per_node:
            return None
        return per_node.get(dst)

    def n_entries(self) -> int:
        return sum(len(per_node)
                   for per_link in self.entries.values()
                   for per_node in per_link.values())

    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "verified_links": [list(lk) for lk in self.verified_links],
            "entries": {
                f"{a},{b}": {
                    str(node): {
                        str(dst): {"c": [list(c) for c in cands],
                                   "f": _encode_fields(fields)}
                        for dst, (cands, fields) in per_node.items()}
                    for node, per_node in per_link.items()}
                for (a, b), per_link in self.entries.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BackupTable":
        if d.get("format") != _FORMAT:
            raise ValueError("backup-table format mismatch")
        t = cls()
        t.verified_links = [tuple(int(x) for x in lk)
                            for lk in d.get("verified_links", [])]
        for link_s, per_link in d["entries"].items():
            a, b = link_s.split(",")
            t.entries[link_key(int(a), int(b))] = {
                int(node): {
                    int(dst): (tuple((int(p), int(v))
                                     for p, v in e["c"]),
                               _decode_fields(e["f"]))
                    for dst, e in per_node.items()}
                for node, per_node in per_link.items()}
        return t


def _encode_fields(fields: dict):
    """JSON-safe encoding of a header-field delta.  JSON turns dict
    keys into strings, but algorithm fields key sub-maps by *port id*
    (updown's move map), so dicts become tagged pair lists."""
    def enc(v):
        if isinstance(v, dict):
            return {"__d__": [[k, enc(x)] for k, x in v.items()]}
        if isinstance(v, (list, tuple)):
            return [enc(x) for x in v]
        return v
    return {k: enc(v) for k, v in fields.items()}


def _decode_fields(encoded) -> dict:
    def dec(v):
        if isinstance(v, dict):
            return {k: dec(x) for k, x in v["__d__"]}
        if isinstance(v, list):
            return [dec(x) for x in v]
        return v
    return {k: dec(v) for k, v in encoded.items()}


def _shadow_network(topology, algorithm):
    """A quiet shadow network binding ``algorithm``.  ``known_faults``
    aliases ``faults`` here (no detection delay), so failing a link and
    calling ``on_fault_update`` reproduces exactly the converged state
    the live network reaches on the slow path."""
    from ...sim.network import Network
    return Network(topology, algorithm)


def _probe(algorithm, router, dst: int):
    """One injection-state probe: ``(candidates, field_writes)``, or
    None when the algorithm delivers/sticks or its field writes do not
    survive a JSON round-trip (such entries are never stored)."""
    from ...sim.flit import Header
    header = Header(msg_id=-1, src=router.node, dst=dst, length=2,
                    created=0, fields={})
    dec = algorithm.route(router, header, _LOCAL, 0)
    if dec.deliver or dec.stuck or not dec.candidates:
        return None
    fields = dict(header.fields)
    if fields:
        try:
            if _decode_fields(json.loads(json.dumps(
                    _encode_fields(fields)))) != fields:
                return None
        except (TypeError, ValueError):
            return None
    return (tuple((int(p), int(v)) for p, v in dec.candidates), fields)


def build_backup_table_for(topology, algorithm,
                           verify_deadlock: int = 4) -> BackupTable:
    """Probe-build the backup table for ``algorithm`` over
    ``topology``.  ``verify_deadlock`` protected links (deterministic,
    evenly spread; 0 disables, a negative value checks every link)
    additionally get a CDG acyclicity check of their shadow
    configuration.  The instance is temporarily bound to a shadow
    network for the probe pass; the caller must ``reset()`` it onto its
    real network afterwards (``Network.__init__`` already does, since
    it resets the algorithm as its final construction step)."""
    net = _shadow_network(topology, algorithm)
    algo = net.algorithm
    if not getattr(algo, "fault_tolerant", False):
        raise ValueError(
            f"algorithm {algo.name!r} is not fault-tolerant; a backup "
            f"subbase against link faults would route into the fault")
    nodes = list(topology.nodes())
    # fault-free primary decisions: which output ports does a fresh
    # injection at u use toward dst?  Only destinations that lose a
    # primary port to the protected link need a backup entry.
    primary: dict[int, dict[int, frozenset]] = {}
    for u in nodes:
        router = net.routers[u]
        per_dst = {}
        for dst in nodes:
            if dst == u or not algo.accepts(u, dst):
                continue
            got = _probe(algo, router, dst)
            if got is not None:
                per_dst[dst] = frozenset(p for p, _ in got[0])
        primary[u] = per_dst

    table = BackupTable()
    links = sorted(topology.links())
    for link in links:
        per_link = _probe_link(net, algo, link, primary)
        if per_link:
            table.entries[link] = per_link

    if verify_deadlock:
        if verify_deadlock < 0 or verify_deadlock >= len(links):
            sample = links
        else:
            stride = max(1, len(links) // verify_deadlock)
            sample = links[::stride][:verify_deadlock]
        for link in sample:
            _verify_link(net, algo, link)
            table.verified_links.append(link)
    return table


def _probe_link(net, algo, link, primary) -> dict:
    """Entries for one protected link: probe both endpoints with the
    link failed, keep destinations whose primary routing used it, and
    re-probe every kept entry for determinism."""
    a, b = link
    net.faults.fail_link(a, b)
    algo.on_fault_update(net)
    per_link: dict[int, dict] = {}
    try:
        for u, far in ((a, b), (b, a)):
            lost_port = next(
                (pid for pid, p in net.topology.ports(u).items()
                 if p.neighbor == far), None)
            if lost_port is None:  # pragma: no cover - defensive
                continue
            router = net.routers[u]
            per_node: dict[int, tuple] = {}
            for dst, ports in primary[u].items():
                if lost_port not in ports:
                    continue        # primary survives; no backup needed
                if not algo.accepts(u, dst):
                    continue        # faulted config refuses the pair
                got = _probe(algo, router, dst)
                if got is None or _probe(algo, router, dst) != got:
                    continue        # unusable or not reproducible
                if any(p == lost_port for p, _ in got[0]):
                    # the live algorithm routed into the fault it was
                    # told about: an algorithm bug, never a legal entry
                    raise RuntimeError(
                        f"{algo.name}: faulted-config route at node {u} "
                        f"for dst {dst} uses the dead port {lost_port}")
                per_node[dst] = got
            if per_node:
                per_link[u] = per_node
    finally:
        net.faults.repair_link(a, b)
        algo.on_fault_update(net)
    return per_link


def _verify_link(net, algo, link) -> None:
    """Deadlock certification of one protected link's shadow
    configuration: the backup entries are this configuration's routing
    relation at the injection state, so its CDG must be acyclic."""
    from ...analysis.deadlock import build_cdg
    a, b = link
    net.faults.fail_link(a, b)
    algo.on_fault_update(net)
    try:
        result = build_cdg(net)
        if not result.acyclic:
            raise RuntimeError(
                f"{algo.name}: backup configuration for dead link "
                f"{link} has a cyclic channel dependency graph: "
                f"{result.cycle}")
    finally:
        net.faults.repair_link(a, b)
        algo.on_fault_update(net)
