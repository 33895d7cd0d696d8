"""Packet model: IP header fields plus UDP / TCP / ICMP transport layers.

A :class:`Packet` is a mutable value object (NATs rewrite its endpoints in
place on copies).  TCP segments carry flags/seq/ack so the transport layer in
:mod:`repro.transport.tcp` can implement the RFC 793 subset the paper's §4
depends on, including simultaneous open.  ICMP is modelled only as the error
messages a NAT may emit toward an unsolicited SYN (paper §5.2).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

from repro.netsim.addresses import Endpoint

DEFAULT_TTL = 64

_packet_ids = itertools.count(1)

#: Bound C-level allocator for fresh packet ids — hot constructors (NAT
#: rewrites, UDP sends) call this instead of ``next(_packet_ids)`` to skip
#: one builtin dispatch per packet.
next_packet_id = _packet_ids.__next__


#: Always-zero pool record kept only for perfbench/run.py; the next benchmark update removes it.
PACKET_POOL = SimpleNamespace(released=0, free=0)


class IpProtocol(enum.Enum):
    """Transport protocol carried by a packet.

    Each member additionally carries two plain instance attributes set right
    after the class body (enum members accept them):

    - ``wire_index``: a small dense int (0..2) used to index per-protocol
      lists on hot paths — ``list[proto.wire_index]`` costs one C-level
      attribute read plus a C-level list index, where ``dict[proto]`` pays a
      Python-level ``Enum.__hash__`` call per probe.
    - ``header_bytes``: the on-wire header-size estimate ``Packet.size``
      adds to the payload length.
    """

    UDP = "udp"
    TCP = "tcp"
    ICMP = "icmp"


for _index, _member in enumerate(IpProtocol):
    _member.wire_index = _index
IpProtocol.UDP.header_bytes = 28
IpProtocol.TCP.header_bytes = 40
IpProtocol.ICMP.header_bytes = 36


class TcpFlags(enum.IntFlag):
    """TCP header flags (subset used by the state machine)."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    ACK = 0x10

    def describe(self) -> str:
        names = [flag.name for flag in (TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN, TcpFlags.RST) if self & flag]
        return "+".join(names) if names else "none"


#: Plain-int flag bits for the segment path.  ``int & IntFlag`` dispatches
#: to ``Flag.__rand__`` and builds a fresh enum member per test, so every
#: flag test and combination between a segment's construction and its
#: rendering uses these; :class:`TcpFlags` is kept for ``describe()``.
FIN = 0x01
SYN = 0x02
RST = 0x04
ACK = 0x10
SYN_ACK = SYN | ACK
RST_ACK = RST | ACK


@dataclass(slots=True)
class TcpHeader:
    """TCP segment header: flags and 32-bit sequence/ack numbers.

    ``flags`` is a plain ``int`` of the bits above; :func:`tcp_packet`
    converts a :class:`TcpFlags` argument.  Treated as immutable once
    attached to a packet: :meth:`Packet.copy` shares the header object
    between the original and the copy, so in-place header mutation would
    alias across NAT hops.  Build a fresh header (or ``dataclasses.replace``)
    instead of writing fields.
    """

    flags: int = 0
    seq: int = 0
    ack: int = 0

    def has(self, flag: int) -> bool:
        return bool(self.flags & flag)

    @property
    def is_syn_only(self) -> bool:
        """A "raw" SYN: connection-opening segment with no ACK (paper §4.4)."""
        return self.flags & SYN_ACK == SYN

    @property
    def is_syn_ack(self) -> bool:
        return self.flags & SYN_ACK == SYN_ACK

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST)


class IcmpType(enum.Enum):
    """ICMP message kinds the simulator can emit."""

    DEST_UNREACHABLE = "dest-unreachable"
    PORT_UNREACHABLE = "port-unreachable"
    TIME_EXCEEDED = "time-exceeded"
    ADMIN_PROHIBITED = "admin-prohibited"


@dataclass(slots=True)
class IcmpError:
    """An ICMP error, carrying the offending packet's session identifiers.

    ``original_src``/``original_dst`` identify the transport session of the
    packet that provoked the error (as real ICMP embeds the original header),
    so the TCP stack can route the error to the right socket.  Like
    :class:`TcpHeader`, the body is shared by :meth:`Packet.copy` and must
    not be mutated in place — translators build a fresh body.
    """

    icmp_type: IcmpType
    original_proto: IpProtocol
    original_src: Endpoint
    original_dst: Endpoint


@dataclass(slots=True)
class Packet:
    """One simulated IP packet.

    Attributes:
        proto: transport protocol.
        src / dst: transport-level session endpoints (IP + port).  For ICMP
            the port halves are 0 and :attr:`icmp` carries the session info.
        payload: opaque application bytes (UDP datagram body or TCP segment
            body).  NAT payload-mangling (§5.3) scans these bytes.
        tcp: TCP header, present iff ``proto is IpProtocol.TCP``.
        icmp: ICMP error body, present iff ``proto is IpProtocol.ICMP``.
        ttl: decremented per hop; expiry drops the packet (guards routing
            loops in malformed topologies).
        packet_id: unique per packet object, for tracing.
        flow: attempt-scoped correlation id (see :mod:`repro.obs.flight`),
            or None when no flight recorder is attached.  Stamped lazily at
            the first recorded hop and propagated through :meth:`copy`, so
            every NAT rewrite of the same original packet shares lineage.
    """

    proto: IpProtocol
    src: Endpoint
    dst: Endpoint
    payload: bytes = b""
    tcp: Optional[TcpHeader] = None
    icmp: Optional[IcmpError] = None
    ttl: int = DEFAULT_TTL
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    flow: Optional[int] = None

    def __post_init__(self) -> None:
        if self.proto is IpProtocol.TCP and self.tcp is None:
            raise ValueError("TCP packet requires a TcpHeader")
        if self.proto is not IpProtocol.TCP and self.tcp is not None:
            raise ValueError(f"{self.proto} packet must not carry a TcpHeader")
        if self.proto is IpProtocol.ICMP and self.icmp is None:
            raise ValueError("ICMP packet requires an IcmpError body")

    def copy(self) -> "Packet":
        """Copy-on-write clone for NAT rewriting.

        This is the per-hop hot path (every NAT translation and router
        forward clones the packet), so it bypasses ``__init__`` — the
        original already passed ``__post_init__`` validation and the clone
        carries the same protocol invariants.  Top-level fields (``src``,
        ``dst``, ``ttl``, ``payload``) are per-clone and safe to overwrite;
        the ``tcp``/``icmp`` header objects and the payload bytes are
        *shared* and treated as immutable — a mangling NAT rebinds
        ``payload`` to new bytes, and the ICMP translator attaches a fresh
        :class:`IcmpError` rather than writing through the shared one.
        """
        clone = object.__new__(Packet)
        clone.proto = self.proto
        clone.src = self.src
        clone.dst = self.dst
        clone.payload = self.payload
        clone.tcp = self.tcp
        clone.icmp = self.icmp
        clone.ttl = self.ttl
        clone.packet_id = next(_packet_ids)
        clone.flow = self.flow
        return clone

    @property
    def size(self) -> int:
        """Approximate on-wire size in bytes (header estimate + payload)."""
        return self.proto.header_bytes + len(self.payload)

    def describe(self) -> str:
        """One-line human-readable summary, used by traces and logs."""
        base = f"{self.proto.value} {self.src} -> {self.dst}"
        if self.tcp is not None:
            base += f" [{TcpFlags(self.tcp.flags).describe()} seq={self.tcp.seq} ack={self.tcp.ack}]"
        if self.icmp is not None:
            base += f" [{self.icmp.icmp_type.value}]"
        if self.payload:
            base += f" ({len(self.payload)}B)"
        return base


def udp_packet(src: Endpoint, dst: Endpoint, payload: bytes = b"") -> Packet:
    """Convenience constructor for a UDP datagram.

    Built like :meth:`Packet.copy` — straight into ``__new__`` — because
    the UDP send path creates one packet per datagram and the protocol
    invariants ``__post_init__`` would check (a UDP packet has no TCP/ICMP
    body) hold by construction here.
    """
    packet = object.__new__(Packet)
    packet.proto = IpProtocol.UDP
    packet.src = src
    packet.dst = dst
    packet.payload = payload
    packet.tcp = None
    packet.icmp = None
    packet.ttl = DEFAULT_TTL
    packet.packet_id = next(_packet_ids)
    packet.flow = None
    return packet


def tcp_packet(
    src: Endpoint,
    dst: Endpoint,
    flags: int,
    seq: int = 0,
    ack: int = 0,
    payload: bytes = b"",
) -> Packet:
    """Convenience constructor for a TCP segment.

    *flags* may be plain-int bits or a :class:`TcpFlags`; the header always
    stores a plain ``int``.
    """
    return Packet(
        proto=IpProtocol.TCP,
        src=src,
        dst=dst,
        payload=payload,
        tcp=TcpHeader(int(flags), seq % (1 << 32), ack % (1 << 32)),
    )


def icmp_error_for(offender: Packet, icmp_type: IcmpType, reporter_ip) -> Packet:
    """Build the ICMP error a middlebox sends about *offender*.

    The error travels back toward the offender's source; its ICMP body quotes
    the offending session so the sender's stack can attribute it.
    """
    return Packet(
        proto=IpProtocol.ICMP,
        src=Endpoint(reporter_ip, 0),
        dst=Endpoint(offender.src.ip, 0),
        icmp=IcmpError(
            icmp_type=icmp_type,
            original_proto=offender.proto,
            original_src=offender.src,
            original_dst=offender.dst,
        ),
    )
