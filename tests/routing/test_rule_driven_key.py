"""Soundness of ``RuleDrivenNafta``'s premise-level cache key.

The batched engine serves a ``nafta_rules`` decision from its caches
whenever the key matches, so a ruleset edit that makes the decision
read something the key does not cover must fail here — not as a digest
mismatch somewhere downstream.  Two checks:

* statically, on the compiled program: the three decision bases read
  the destination only through same-axis comparators or the
  sign-dependent FCFBs, the output loads ``oq`` only as ``qbest``
  arguments, and none of the per-message or state-exchange inputs;
* exhaustively, on a faulted 5x4 mesh: headers with equal keys get
  equal fresh decisions (up to the PICK choice), and the PICK replay
  over the recorded pool equals ``qbest`` on random loads.
"""

import dataclasses
import itertools
import random

import pytest

from repro.core.dsl import nodes as N
from repro.routing.base import REFRESH_PICK
from repro.routing.rule_driven import RuleDrivenNafta
from repro.sim import FaultSchedule, Mesh2D, Network, SimConfig
from repro.sim.flit import Header
from repro.sim.topology import EAST, WEST

DECISION_BASES = ("incoming_message", "in_message_ft", "test_exception")
#: inputs the key covers directly (node-static per epoch, or header
#: fields, or the clear-run bit it carries for the destination column)
KEYED_INPUTS = {"vnin", "termin", "sdirin", "fault_present", "freemask",
                "samecol", "runok"}
COORDS = {"xpos": "xdes", "xdes": "xpos", "ypos": "ydes", "ydes": "ypos"}
#: FCFBs whose coordinate arguments matter only through sign dx/dy
SIGN_FCFBS = {"minimal_cands", "detour_pick"}
NEVER_READ = {"mlen", "info_kind", "info_val", "nnew", "nrun", "linkok"}


def _children(node):
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        for item in (v if isinstance(v, tuple) else (v,)):
            if isinstance(item, (N.Expr, N.Command)):
                yield item


def _input_reads(node, inputs, ctx=None, out=None):
    """(input name, context) for every input read below ``node``; the
    context is the innermost function call or comparison it feeds."""
    out = [] if out is None else out
    if isinstance(node, (N.Name, N.Index)) and node.ident in inputs:
        out.append((node.ident, ctx))
    if isinstance(node, N.Index) and node.ident not in inputs:
        ctx = ("call", node.ident)
    elif isinstance(node, N.Compare):
        sides = tuple(sorted(str(getattr(side, "ident", None))
                             for side in (node.left, node.right)))
        ctx = ("compare", sides)
    for child in _children(node):
        _input_reads(child, inputs, ctx, out)
    return out


@pytest.fixture(scope="module")
def faulted():
    """nafta_rules on a 5x4 mesh with a dead node (so some neighbours
    deactivate) and two link faults, fault knowledge settled."""
    topo = Mesh2D(5, 4)
    algo = RuleDrivenNafta()
    net = Network(topo, algo, config=SimConfig())
    net.schedule_faults(FaultSchedule.static(
        nodes=[topo.node_at(2, 1)],
        links=[(topo.node_at(0, 2), topo.node_at(1, 2)),
               (topo.node_at(3, 3), topo.node_at(4, 3))]))
    return net, algo


def test_decision_bases_read_only_keyed_inputs(faulted):
    _, algo = faulted
    prog = algo.compiled
    inputs = set(prog.analyzed.inputs)
    assert NEVER_READ <= inputs      # the check below is not vacuous
    seen_oq = False
    for name in DECISION_BASES:
        for rule in prog.base(name).ground_rules:
            reads = _input_reads(rule.premise, inputs)
            for cmd in rule.commands:
                _input_reads(cmd, inputs, out=reads)
            for ident, ctx in reads:
                where = f"{name}: {ident} read in {ctx}"
                assert ident not in NEVER_READ, where
                if ident == "oq":
                    seen_oq = True
                    assert ctx == ("call", "qbest"), where
                elif ident in COORDS:
                    same_axis = ("compare",
                                 tuple(sorted((ident, COORDS[ident]))))
                    assert ctx == same_axis or (
                        ctx is not None and ctx[0] == "call"
                        and ctx[1] in SIGN_FCFBS), where
                else:
                    assert ident in KEYED_INPUTS, where
    assert seen_oq


class _Loaded:
    """A router whose output loads are set by the test."""

    def __init__(self, router, loads):
        self._router = router
        self._loads = loads

    def __getattr__(self, name):
        return getattr(self._router, name)

    def output_load(self, pid):
        return self._loads[pid]


def _headers(dst):
    for vn, term, sdir in itertools.product((None, 0, 1), (None, True),
                                            (None, EAST, WEST)):
        fields = {k: v for k, v in (("vn", vn), ("term", term),
                                    ("sdir", sdir)) if v is not None}
        yield Header(0, 0, dst, 4, 0, fields=fields)


def test_equal_keys_give_equal_decisions(faulted):
    net, algo = faulted
    topo = net.topology
    rng = random.Random(7)
    max_load = algo.n_vcs * (net.config.buffer_depth + 2)
    by_key = {}
    decisions = picks = 0
    for node in topo.nodes():
        if not net.known_faults.node_ok(node):
            continue
        router = net.routers[node]
        for dst, in_port in itertools.product(
                topo.nodes(), [-1] + sorted(router.ports)):
            for header in _headers(dst):
                key = algo.route_cache_key(node, header, in_port, 0)
                probe = Header(0, 0, dst, 4, 0, fields=dict(header.fields))
                dec = algo.route(router, header, in_port, 0)
                decisions += 1
                outcome = (dec.deliver, dec.stuck, dec.steps,
                           dec.refresh_hint,
                           dec.pool if dec.refresh_hint == REFRESH_PICK
                           else tuple(dec.candidates),
                           tuple(sorted(header.fields.items())))
                first = by_key.setdefault(key, (outcome, node, dst))
                assert first[0] == outcome, (key, first, (node, dst))
                if dec.refresh_hint != REFRESH_PICK:
                    continue
                # the PICK replay equals qbest on random loads
                picks += 1
                loads = {p: rng.randint(0, max_load) for p in range(4)}
                live = algo.route(_Loaded(router, loads), probe, in_port, 0)
                assert live.pool == dec.pool
                assert live.candidates == [
                    min(dec.pool, key=lambda pv: (loads[pv[0]], pv))]
    # the sweep reaches every decision kind and shares keys widely
    hints = {o[3] for o, _, _ in by_key.values()}
    assert REFRESH_PICK in hints and len(hints) >= 3
    assert picks > 1000 and len(by_key) < decisions / 2
