"""Determinism guarantees: identical seeds replay identical runs."""

import pytest

from repro.natcheck.fleet import check_device
from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler
from repro.netsim.link import LAN_LINK
from repro.netsim.network import Network
from repro.netsim.packet import IpProtocol
from repro.scenarios import build_two_nats
from repro.transport.stack import attach_stack


def _punch_trace(seed):
    sc = build_two_nats(seed=seed, backbone_profile=None or __import__(
        "repro.netsim.link", fromlist=["LinkProfile"]).LinkProfile(
        latency=0.02, jitter=0.01, loss=0.05))
    sc.net.trace.enable()
    for c in sc.clients.values():
        c.register_udp(max_tries=8)
    sc.wait_for(lambda: all(c.udp_registered for c in sc.clients.values()), 15.0)
    done = {}
    sc.clients["A"].connect_udp(2, on_session=lambda s: done.setdefault("s", s),
                                on_failure=lambda e: done.setdefault("f", e))
    sc.scheduler.run_while(lambda: not done, sc.scheduler.now + 20.0)
    return [
        (round(r.time, 9), r.link, r.sender, r.receiver, r.event,
         r.packet.proto.value, str(r.packet.src), str(r.packet.dst))
        for r in sc.net.trace.records
    ]


def test_identical_seed_identical_wire_trace():
    """Every packet event — including jittered delays and random losses —
    replays identically for the same seed."""
    assert _punch_trace(31415) == _punch_trace(31415)


def test_different_seeds_diverge():
    assert _punch_trace(1) != _punch_trace(2)


def test_natcheck_report_deterministic():
    r1 = check_device(B.RST_SENDER, seed=9)
    r2 = check_device(B.RST_SENDER, seed=9)
    assert r1.summary() == r2.summary()
    assert r1.elapsed == r2.elapsed
    assert (r1.udp_ep1, r1.udp_ep2, r1.tcp_ep1, r1.tcp_ep2) == (
        r2.udp_ep1, r2.udp_ep2, r2.tcp_ep1, r2.tcp_ep2
    )


def test_table1_headline_regression():
    """Pin the Table 1 totals in the unit suite, not only the benches."""
    from repro.natcheck.fleet import run_fleet
    from repro.natcheck.table import table1_rows

    rows = {r.vendor: r for r in table1_rows(run_fleet(seed=42).reports)}
    totals = rows["All Vendors"]
    assert totals.udp == (310, 380)
    assert totals.udp_hairpin == (80, 335)
    assert totals.tcp == (184, 286)


# -- the flight recorder is passive ------------------------------------------


def _wire_counters(net):
    """Per-link and per-NAT counters plus the scheduler's event count."""
    links = {
        name: (
            link.packets_sent,
            link.bytes_sent,
            link.packets_dropped,
            link.sent_by_proto,
        )
        for name, link in net.links.items()
    }
    nats = {
        name: (
            node.translations_out,
            node.translations_in,
            node.packets_received,
            node.packets_dropped,
        )
        for name, node in net.nodes.items()
        if isinstance(node, NatDevice)
    }
    return links, nats, net.scheduler.events_fired


def _echo_run(flight):
    """The NAT echo topology: client behind one NAT, UDP echo server."""
    net = Network(seed=1)
    if flight:
        net.attach_flight()
    backbone = net.create_link("backbone")
    server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
    attach_stack(server)
    nat = NatDevice("NAT", net.scheduler, B.WELL_BEHAVED, rng=net.rng.child("n"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan", LAN_LINK)
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    client = net.add_host(
        "C", ip="10.0.0.1", network="10.0.0.0/24", link=lan, gateway="10.0.0.254"
    )
    attach_stack(client)
    echo = server.stack.udp.socket(1234)
    echo.on_datagram = echo.sendto
    arrivals = []
    sock = client.stack.udp.socket(4321)
    sock.on_datagram = lambda data, src: arrivals.append((net.now, data, str(src)))
    dest = Endpoint("18.181.0.31", 1234)
    for i in range(50):
        sock.sendto(b"%04d" % i, dest)
    for i in range(50, 100):
        net.scheduler.call_at(i * 0.0001, sock.sendto, b"%04d" % i, dest)
    net.run_until(2.0)
    assert len(arrivals) == 100
    return arrivals, _wire_counters(net)


def _punch_run(flight):
    """One UDP punch with a datagram each way, then one TCP punch carrying
    data each way, between clients behind two NATs."""
    sc = build_two_nats(seed=5)
    if flight:
        sc.net.attach_flight()
    scheduler = sc.scheduler
    timeline = []

    def note(*event):
        timeline.append((scheduler.now,) + event)

    def on_peer_session(session):
        note("udp-peer")

        def echo_back(data):
            note("udp-b", data)
            session.send(b"pong")

        session.on_data = echo_back

    def on_session(session):
        note("udp-session")
        session.on_data = lambda data: note("udp-a", data)
        session.send(b"ping")

    sc.register_all_udp()
    sc.clients["B"].on_peer_session = on_peer_session
    sc.clients["A"].connect_udp(
        2, on_session=on_session, on_failure=lambda e: note("udp-fail", str(e))
    )
    sc.run_for(5.0)
    sc.register_all_tcp()
    streams = {}
    sc.clients["B"].on_peer_stream = lambda s: streams.setdefault("b", s)
    sc.clients["A"].connect_tcp(
        2,
        on_stream=lambda s: streams.setdefault("a", s),
        on_failure=lambda e: note("tcp-fail", str(e)),
    )
    scheduler.run_while(lambda: len(streams) < 2, scheduler.now + 30.0)
    note("tcp-streams", streams["a"].origin, streams["b"].origin)
    streams["a"].on_data = lambda data: note("tcp-a", data)
    streams["b"].on_data = lambda data: note("tcp-b", data)
    streams["a"].send(b"x" * 3000)
    streams["b"].send(b"y")
    sc.run_for(3.0)
    assert [e[1] for e in timeline[:4]] == ["udp-session", "udp-peer", "udp-b", "udp-a"]
    return timeline, _wire_counters(sc.net)


@pytest.mark.parametrize("workload", [_echo_run, _punch_run], ids=["echo", "punch"])
def test_flight_recorder_changes_no_observable(workload, monkeypatch):
    """Attaching the flight recorder must not change what the run does or
    which path its packets take: identical arrival timelines, link/NAT
    counters and scheduler events, and the same number of batched delivery
    timers (every packet goes through the one batched wire path)."""
    batched = []
    original = Scheduler.call_later_batched

    def counting(scheduler, *args, **kwargs):
        batched.append(scheduler.now)
        return original(scheduler, *args, **kwargs)

    monkeypatch.setattr(Scheduler, "call_later_batched", counting)
    off = workload(flight=False)
    off_batched = len(batched)
    on = workload(flight=True)
    assert off_batched > 0
    assert len(batched) - off_batched == off_batched
    assert on == off
