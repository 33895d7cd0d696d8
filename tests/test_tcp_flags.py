"""TCP flags ride the segment path as plain ints.

``TcpHeader.flags`` is an ``int``; the ``TcpFlags`` enum is used only to
render a segment in ``Packet.describe()``.  These tests drive a full
connection life cycle through a NAT with no recorder attached and check that
every segment on the wire carries an ``int``, that no ``enum.Flag`` operator
runs, and that the rendered flag strings are what they always were.
"""

import enum

import pytest

from repro.nat.behavior import WELL_BEHAVED
from repro.nat.device import NatDevice
from repro.netsim.addresses import Endpoint
from repro.netsim.link import Link
from repro.netsim.network import Network
from repro.netsim.packet import (
    ACK,
    FIN,
    RST,
    SYN,
    IpProtocol,
    TcpFlags,
    TcpHeader,
    tcp_packet,
)
from repro.transport.stack import attach_stack

from tests.conftest import run_until

S_IP = "18.181.0.31"
A = Endpoint("10.0.0.1", 4000)
B = Endpoint(S_IP, 80)

#: The rendering of each flag combination, written out independently of
#: ``TcpFlags.describe()``, which names set flags in SYN, ACK, FIN, RST order.
LABELS = {
    SYN: "SYN",
    SYN | ACK: "SYN+ACK",
    ACK: "ACK",
    FIN | ACK: "ACK+FIN",
    RST | ACK: "ACK+RST",
    RST: "RST",
    0: "none",
}


def build_nat_pair():
    """One client behind a NAT, one public server, no flight recorder."""
    net = Network(seed=5)
    backbone = net.create_link("backbone")
    server = net.add_host("S", ip=S_IP, network="0.0.0.0/0", link=backbone)
    attach_stack(server, rng=net.rng.child("s"))
    nat = NatDevice("NAT", net.scheduler, WELL_BEHAVED, rng=net.rng.child("nat"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan")
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    client = net.add_host("C", ip="10.0.0.1", network="10.0.0.0/24", link=lan,
                          gateway="10.0.0.254")
    attach_stack(client, rng=net.rng.child("c"))
    return net, client, server


def count_flag_operators(monkeypatch):
    """Count every ``enum.Flag`` ``&``/``|`` call, in either operand order.

    ``IntFlag`` and each ``IntFlag`` subclass hold their own references to
    ``Flag.__and__``/``Flag.__or__``, so each class that defines one is
    patched.
    """
    calls = {"__and__": 0, "__or__": 0}
    for cls in (enum.Flag, enum.IntFlag, TcpFlags):
        for name, counted in (("__and__", "__and__"), ("__rand__", "__and__"),
                              ("__or__", "__or__"), ("__ror__", "__or__")):
            original = vars(cls).get(name)
            if original is None:
                continue

            def wrapper(self, other, _original=original, _counted=counted):
                calls[_counted] += 1
                return _original(self, other)

            monkeypatch.setattr(cls, name, wrapper)
    return calls


def run_life_cycle(monkeypatch):
    """Handshake, data both ways, FIN close, then a refused connect.

    Returns every TCP segment handed to a link, in order.
    """
    segments = []
    transmit = Link.transmit

    def recording_transmit(self, packet, sender, next_hop_ip):
        if packet.proto is IpProtocol.TCP:
            segments.append(packet)
        return transmit(self, packet, sender, next_hop_ip)

    monkeypatch.setattr(Link, "transmit", recording_transmit)
    net, client, server = build_nat_pair()
    accepted, connected, received, closed = [], [], [], []
    server.stack.tcp.listen(80, on_accept=accepted.append)
    conn = client.stack.tcp.connect(B, local_port=4000, on_connected=connected.append)
    assert run_until(net, lambda: connected and accepted)
    peer = accepted[0]
    peer.on_data = lambda data: (received.append(data), peer.send(b"world"))
    conn.on_data = received.append
    conn.send(b"hello")
    assert run_until(net, lambda: received == [b"hello", b"world"])
    peer.on_close = lambda: (closed.append("server"), peer.close())
    conn.on_close = lambda: closed.append("client")
    conn.close()
    assert run_until(net, lambda: len(closed) == 2)
    errors = []
    client.stack.tcp.connect(Endpoint(S_IP, 81), on_error=errors.append)
    assert run_until(net, lambda: errors)
    assert errors[0].reason == "reset"
    return segments


def expected_describe(packet):
    header = packet.tcp
    text = (f"tcp {packet.src} -> {packet.dst} "
            f"[{LABELS[header.flags]} seq={header.seq} ack={header.ack}]")
    if packet.payload:
        text += f" ({len(packet.payload)}B)"
    return text


def test_segments_carry_int_flags_and_use_no_flag_operators(monkeypatch):
    calls = count_flag_operators(monkeypatch)
    segments = run_life_cycle(monkeypatch)
    assert calls == {"__and__": 0, "__or__": 0}
    assert segments
    assert all(type(packet.tcp.flags) is int for packet in segments)
    seen = {LABELS[packet.tcp.flags] for packet in segments}
    assert {"SYN", "SYN+ACK", "ACK", "ACK+FIN", "ACK+RST"} <= seen


def test_counter_sees_flag_operators():
    """The operator counter is live: enum arithmetic is counted."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_flag_operators(monkeypatch)
        flags = TcpFlags.SYN | TcpFlags.ACK
        assert flags & TcpFlags.ACK
        assert 0x10 & TcpFlags.ACK
    assert calls == {"__and__": 2, "__or__": 1}


def test_describe_renders_wire_segments_as_before(monkeypatch):
    for packet in run_life_cycle(monkeypatch):
        assert packet.describe() == expected_describe(packet)


def test_describe_renders_each_flag_combination():
    assert tcp_packet(A, B, SYN, seq=100).describe() == (
        "tcp 10.0.0.1:4000 -> 18.181.0.31:80 [SYN seq=100 ack=0]"
    )
    assert tcp_packet(B, A, SYN | ACK, seq=7, ack=101).describe() == (
        "tcp 18.181.0.31:80 -> 10.0.0.1:4000 [SYN+ACK seq=7 ack=101]"
    )
    assert tcp_packet(A, B, ACK, seq=101, ack=8, payload=b"hi").describe() == (
        "tcp 10.0.0.1:4000 -> 18.181.0.31:80 [ACK seq=101 ack=8] (2B)"
    )
    assert tcp_packet(A, B, FIN | ACK, seq=103, ack=8).describe() == (
        "tcp 10.0.0.1:4000 -> 18.181.0.31:80 [ACK+FIN seq=103 ack=8]"
    )
    assert tcp_packet(B, A, RST | ACK, ack=1).describe() == (
        "tcp 18.181.0.31:80 -> 10.0.0.1:4000 [ACK+RST seq=0 ack=1]"
    )
    assert tcp_packet(A, B, 0, seq=5).describe() == (
        "tcp 10.0.0.1:4000 -> 18.181.0.31:80 [none seq=5 ack=0]"
    )


def test_enum_arguments_are_stored_as_int():
    packet = tcp_packet(A, B, TcpFlags.SYN | TcpFlags.ACK)
    assert type(packet.tcp.flags) is int
    assert packet.tcp.flags == SYN | ACK
    assert packet.tcp.is_syn_ack


def test_header_predicates_match_flag_bits():
    for flags in range(0x20):
        header = TcpHeader(flags=flags)
        assert header.is_syn_only == bool(flags & SYN and not flags & ACK)
        assert header.is_syn_ack == bool(flags & SYN and flags & ACK)
        assert header.is_rst == bool(flags & RST)
        assert header.has(FIN) == bool(flags & FIN)
