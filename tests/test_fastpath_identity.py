"""Trace-identity suite for the statistical link fast path.

The fast path (``Link._fast``, gated by :meth:`Link._refresh_fast_path`) must
be *observably inert*: flipping the class-wide ``Link.fast_path_enabled``
switch off may change only wall-clock time, never a single observable — not
a delivery time, not a counter, not a trace record, not a flight-recorder
event.  This suite pins that property three ways:

* the ``--explain`` post-mortem scenarios, byte-identical flight
  timelines and rendered verdicts either way (their recorder keeps both
  sides on the slow path, so these pin only the gate);
* the NAT echo workload (the ``nat_packets_per_second`` bench topology),
  identical arrival timelines and counters either way;
* a plain-profile network whose ``PacketTrace`` is enabled mid-run, so the
  capture window opens while the fast path is engaged — the trace
  subscription must flip the gate and the captured records must match a
  run that never used the fast path at all.

The echo and mid-run-trace identities carry a witness that their fast side
really took the fast path (batched delivery timers, no ``Link._wire_one``),
so neither can pass by comparing the slow path with itself.
"""

import contextlib

import pytest

from repro.analysis.explain import SCENARIOS, explain_scenario
from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler
from repro.netsim.link import LAN_LINK, Link, LinkProfile
from repro.netsim.network import Network
from repro.obs.attribution import render_verdict
from repro.obs.flight_export import to_jsonl
from repro.transport.stack import attach_stack


@contextlib.contextmanager
def _fast_path(enabled: bool):
    prior = Link.fast_path_enabled
    Link.fast_path_enabled = enabled
    try:
        yield
    finally:
        Link.fast_path_enabled = prior


def _count_path_calls(monkeypatch) -> dict:
    """Record the virtual time of every batched-delivery timer created and
    every slow-path ``Link._wire_one`` call from here on."""
    seen = {"batched": [], "wire_one": []}
    batched = Scheduler.call_later_batched
    wire_one = Link._wire_one

    def counting_batched(scheduler, *args, **kwargs):
        seen["batched"].append(scheduler.now)
        return batched(scheduler, *args, **kwargs)

    def counting_wire_one(link, *args, **kwargs):
        seen["wire_one"].append(link.scheduler.now)
        return wire_one(link, *args, **kwargs)

    monkeypatch.setattr(Scheduler, "call_later_batched", counting_batched)
    monkeypatch.setattr(Link, "_wire_one", counting_wire_one)
    return seen


def _build_echo(seed: int = 1):
    """The bench_packets topology: client behind one NAT, echo server."""
    net = Network(seed=seed)
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
    return net, backbone, lan, nat, client, server


class TestFastPathGate:
    def test_engages_on_plain_profile_only(self):
        net = Network(seed=1)
        plain = net.create_link("plain", LAN_LINK)
        lossy = net.create_link("lossy", LinkProfile(latency=0.01, loss=0.1))
        shaped = net.create_link(
            "shaped", LinkProfile(latency=0.01, bandwidth_bps=1e6)
        )
        assert plain._fast
        assert not lossy._fast
        assert not shaped._fast

    def test_invalidated_by_trace_flap_and_flight(self):
        net = Network(seed=1)
        link = net.create_link("l", LAN_LINK)
        assert link._fast
        net.trace.enable()
        assert not link._fast
        net.trace.disable()
        assert link._fast
        link.down()
        assert not link._fast
        link.up()
        assert link._fast
        net.attach_flight()
        assert not link._fast

    def test_class_switch_disables(self):
        net = Network(seed=1)
        link = net.create_link("l", LAN_LINK)
        with _fast_path(False):
            link._refresh_fast_path()
            assert not link._fast
        link._refresh_fast_path()
        assert link._fast


class TestExplainScenarioIdentity:
    """Both sides of this identity run the slow path: every ``--explain``
    scenario attaches a flight recorder, and the gate refuses the fast path
    while one is attached.  The test therefore pins only the gate — that
    flipping ``Link.fast_path_enabled`` changes nothing when the recorder
    already keeps the fast path off."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_flight_timeline_identical_either_path(self, name):
        def run(enabled):
            with _fast_path(enabled):
                recorder, verdicts = explain_scenario(name, seed=7)
            return to_jsonl(recorder), [render_verdict(v) for v in verdicts]

        fast_jsonl, fast_verdicts = run(True)
        slow_jsonl, slow_verdicts = run(False)
        assert fast_verdicts == slow_verdicts
        assert fast_jsonl == slow_jsonl  # byte-identical timeline


class TestEchoWorkloadIdentity:
    @staticmethod
    def _run(packets: int = 200):
        net, backbone, lan, nat, client, server = _build_echo()
        arrivals = []
        sock = client.stack.udp.socket(4321)
        sock.on_datagram = lambda d, src: arrivals.append((net.now, d, str(src)))
        dest = Endpoint("18.181.0.31", 1234)
        # Half the datagrams burst at t=0 (coalesce into one batch per link),
        # half staggered onto distinct ticks (one batch each) — both append
        # rules get exercised.
        for i in range(packets // 2):
            sock.sendto(b"%04d" % i, dest)
        for i in range(packets // 2, packets):
            net.scheduler.call_at(i * 0.0001, sock.sendto, b"%04d" % i, dest)
        net.run_until(5.0)
        assert len(arrivals) == packets
        return {
            "arrivals": arrivals,
            "events_fired": net.scheduler.events_fired,
            "lan": (lan.packets_sent, lan.bytes_sent, lan.sent_by_proto),
            "backbone": (
                backbone.packets_sent,
                backbone.bytes_sent,
                backbone.sent_by_proto,
            ),
            "nat": (
                nat.translations_out,
                nat.translations_in,
                nat.packets_received,
                nat.packets_dropped,
            ),
            "client": (client.packets_received, client.packets_dropped),
            "server": (server.packets_received, server.packets_dropped),
        }

    def test_observables_identical_either_path(self, monkeypatch):
        seen = _count_path_calls(monkeypatch)
        with _fast_path(True):
            fast = self._run()
        # The fast side really engaged: deliveries went through batched
        # timers and not one packet took the slow wire path.
        assert seen["batched"]
        assert not seen["wire_one"]
        with _fast_path(False):
            slow = self._run()
        assert fast == slow


class TestMidRunTraceIdentity:
    @staticmethod
    def _run(packets: int = 120):
        net, backbone, lan, nat, client, server = _build_echo()
        arrivals = []
        sock = client.stack.udp.socket(4321)
        sock.on_datagram = lambda d, src: arrivals.append((net.now, d))
        dest = Endpoint("18.181.0.31", 1234)
        for i in range(packets):
            net.scheduler.call_at(i * 0.0005, sock.sendto, b"%04d" % i, dest)
        # The capture window opens mid-traffic: on the fast-path run the
        # trace subscription must flip the gate at this instant.
        net.scheduler.call_at(0.03, net.trace.enable)
        net.run_until(5.0)
        assert len(arrivals) == packets
        return [str(r) for r in net.trace.records]

    def test_capture_identical_either_path(self, monkeypatch):
        seen = _count_path_calls(monkeypatch)
        with _fast_path(True):
            fast = self._run()
        # The fast side really engaged until the capture window opened at
        # t=0.03: batched deliveries before it, no slow-path wire send.  The
        # trace then shuts the gate, so the slow path only starts there.
        assert [t for t in seen["batched"] if t < 0.03]
        assert seen["wire_one"] and min(seen["wire_one"]) >= 0.03
        with _fast_path(False):
            slow = self._run()
        assert fast  # the capture window saw traffic — identity is not vacuous
        assert fast == slow
