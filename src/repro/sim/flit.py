"""Messages, flits and headers for wormhole switching.

"Every message in the network is divided into flits (flow control
units) transmitted in a pipelined fashion" (paper Section 2.2).  The
head flit carries the routing header; body and tail flits follow the
path the head reserved; the tail releases the virtual channels.

The header carries algorithm-specific fields in ``fields`` — the paper
discusses exactly this need: marking messages misrouted due to faults
and maintaining a path-length counter "is best done in the header"
(Section 3, Lifelock Avoidance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum


class FlitKind(IntEnum):
    HEAD = 0
    BODY = 1
    TAIL = 2
    HEAD_TAIL = 3   # single-flit message


@dataclass
class Header:
    """Routing header carried by the head flit."""

    msg_id: int
    src: int
    dst: int
    length: int                      # flits including head and tail
    created: int                     # cycle of creation at the source
    fields: dict = field(default_factory=dict)

    # Common optional fields read/written by fault-tolerant algorithms:
    #   "misrouted": bool      — set when a detour was taken due to faults
    #   "path_len": int        — hops so far (livelock guard)
    #   "phase": str/int       — multi-phase schemes (ROUTE_C asc/desc)

    def mark_misrouted(self) -> None:
        self.fields["misrouted"] = True

    @property
    def misrouted(self) -> bool:
        return bool(self.fields.get("misrouted", False))

    @property
    def path_len(self) -> int:
        return int(self.fields.get("path_len", 0))

    def bump_path_len(self) -> None:
        self.fields["path_len"] = self.path_len + 1


@dataclass
class Flit:
    kind: FlitKind
    msg_id: int
    seq: int
    header: Header | None = None     # present on HEAD / HEAD_TAIL
    # precomputed at construction: the router checks these per flit per
    # hop, so a plain attribute beats re-deriving them from ``kind``
    is_head: bool = field(init=False)
    is_tail: bool = field(init=False)

    def __post_init__(self):
        self.is_head = self.kind in (FlitKind.HEAD, FlitKind.HEAD_TAIL)
        self.is_tail = self.kind in (FlitKind.TAIL, FlitKind.HEAD_TAIL)


@dataclass
class Message:
    """A message plus its life-cycle bookkeeping."""

    header: Header
    injected: int | None = None      # cycle the head entered the network
    delivered: int | None = None     # cycle the tail was ejected
    hops: int = 0
    dropped: bool = False

    @classmethod
    def create(cls, src: int, dst: int, length: int, cycle: int,
               msg_id: int, **fields) -> "Message":
        """A fresh message.  Ids come from the caller: every Network
        numbers its own messages from 0, so concurrent networks in one
        process never share an id sequence."""
        if length < 1:
            raise ValueError("message length must be >= 1 flit")
        hdr = Header(msg_id=msg_id, src=src, dst=dst,
                     length=length, created=cycle, fields=dict(fields))
        return cls(header=hdr)

    def flits(self) -> list[Flit]:
        """Materialize the worm."""
        h = self.header
        if h.length == 1:
            return [Flit(FlitKind.HEAD_TAIL, h.msg_id, 0, header=h)]
        out = [Flit(FlitKind.HEAD, h.msg_id, 0, header=h)]
        out.extend(Flit(FlitKind.BODY, h.msg_id, i)
                   for i in range(1, h.length - 1))
        out.append(Flit(FlitKind.TAIL, h.msg_id, h.length - 1))
        return out

    @property
    def latency(self) -> int | None:
        """Creation-to-delivery latency (includes source queueing)."""
        if self.delivered is None:
            return None
        return self.delivered - self.header.created

    @property
    def network_latency(self) -> int | None:
        """Injection-to-delivery latency."""
        if self.delivered is None or self.injected is None:
            return None
        return self.delivered - self.injected
