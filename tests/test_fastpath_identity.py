"""Pinned-value identity suite for the link transmit path.

Every packet takes one transmit path — fault draws, then a batched delivery
timer (``Scheduler.call_later_batched``) and direct dispatch into the
resolved transport handler — whether or not a flight recorder or packet
trace is attached.  The expected values below were captured from a build
that also had a second, per-packet path (its own timer per packet and the
``Node.receive()`` demux, no batching, no direct dispatch), with every link
forced onto that path.  The one path must reproduce them exactly:

* the ``--explain`` post-mortem scenarios: sha256 of the flight JSONL and of
  the rendered verdicts (their recorder used to keep the old fast path off);
* the NAT echo workload (the ``nat_packets_per_second`` bench topology):
  arrival timeline and counters;
* a plain-profile network whose ``PacketTrace`` is enabled mid-run: the
  captured records.

Each test carries a witness that its run really took the batched path (and,
for the echo, direct dispatch), so a delivery that diverges from the
``receive()`` demux changes a pinned value.
"""

import hashlib

import pytest

from repro.analysis.explain import SCENARIOS, explain_scenario
from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler
from repro.netsim.link import LAN_LINK
from repro.netsim.network import Network
from repro.netsim.packet import IpProtocol
from repro.obs.attribution import render_verdict
from repro.obs.flight_export import to_jsonl
from repro.transport.stack import attach_stack
from repro.transport.udp import UdpSocket

#: name -> (sha256 of the flight JSONL, sha256 of the verdicts joined by
#: newlines) for ``explain_scenario(name, seed=7)``.
EXPLAIN_EXPECTED = {
    "exhaustion-flood": (
        "81c38f561defcf87790175f036d8b68adcf1d5214d30af47a632b502c428f89a",
        "730be3b50e5fc8f625ecdd7e3a252d05a5710eb2b21d8d0edd2a19ba6f2c5594",
    ),
    "hairpin-udp": (
        "f1c28dc7f5d532a95af51afe8468388fcc021dd886224e157b0d9931b1d3167a",
        "d5b579567c87c2be1e9736aff02cf94a1e2ffac13d43350177efc2c3ae1b2c7d",
    ),
    "loss-storm": (
        "cd2d8ae5883df76644390cb67aa32005efba229b2e5c1723ff01c8536620401a",
        "4f562e5a7c0dafb57a744bf7a824f8d0fb0f5417a6a43ccb81a704f9b8139ea4",
    ),
    "nat-reboot": (
        "bffb4479d0beea3c5548a16a146590bde7a87a81e0b0e6635d0cb7eb7821c7aa",
        "88b4158581a7b7aba352efa232e1b0f70991dfd2c6c472aa62d4bf8a2498a4fb",
    ),
    "rst-tcp": (
        "ea9151dd5b6394ec020de92b3dee353423272732c1d1c947cc7e5942952033cf",
        "880a36125e752c3a332f8fcdb92026ad25898c73b04f01613b89692980f49676",
    ),
    "server-dead": (
        "afb808fe6f1ba50834ad7ab5067d30e1041d8d79d681e57740e468ca4fdf287c",
        "7afa50e3bb5f219deb7804a59c3239e5e35652b35e5f95d999f692b3b941cf13",
    ),
    "spoofed-rst": (
        "ec44df61331dd6ad3ae202a992230422977c960fd8ee9173d76f889baf0be1ed",
        "84ac7993f09bcab6627f324553d2fda52fd1241ee0c6e05a4eb3c9e27211bac6",
    ),
    "symmetric-udp": (
        "77e6812ece24ef466011fe089973a343e25489f2ab55911c8dd7931926ee4a62",
        "69d62e45616bd7d6e767710a12043637ce07e9bc0b1bb5215087ba168362d79d",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _count_batched(monkeypatch) -> list:
    """Record the virtual time of every batched-delivery timer created from
    here on."""
    seen = []
    batched = Scheduler.call_later_batched

    def counting_batched(scheduler, *args, **kwargs):
        seen.append(scheduler.now)
        return batched(scheduler, *args, **kwargs)

    monkeypatch.setattr(Scheduler, "call_later_batched", counting_batched)
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


class TestExplainScenarioIdentity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_flight_timeline_identical_either_path(self, name, monkeypatch):
        batched = _count_batched(monkeypatch)
        recorder, verdicts = explain_scenario(name, seed=7)
        # The attached recorder no longer keeps deliveries off the batched
        # path.
        assert batched
        jsonl_sha, verdicts_sha = EXPLAIN_EXPECTED[name]
        assert _sha256("\n".join(render_verdict(v) for v in verdicts)) == verdicts_sha
        assert _sha256(to_jsonl(recorder)) == jsonl_sha  # byte-identical timeline


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
        batched = _count_batched(monkeypatch)
        direct = []
        deliver_direct = UdpSocket._deliver_direct

        def counting_direct(sock, packet):
            direct.append(packet.packet_id)
            deliver_direct(sock, packet)

        monkeypatch.setattr(UdpSocket, "_deliver_direct", counting_direct)
        observed = self._run()
        # Deliveries were coalesced (the t=0 burst shares batches) and went
        # straight into the sockets, bypassing the receive() demux the
        # expected values came from.
        assert 0 < len(batched) < 800
        assert len(direct) == 400
        arrivals = observed.pop("arrivals")
        assert len(arrivals) == 200
        assert _sha256(repr(arrivals)) == (
            "b3d2c0a345ee017f1fb9939d1f51111f102fa1b814ce3ba5a87689a5cc465158"
        )
        udp = {IpProtocol.UDP: 400}
        assert observed == {
            "events_fired": 900,
            "lan": (400, 12800, udp),
            "backbone": (400, 12800, udp),
            "nat": (200, 200, 400, 0),
            "client": (200, 0),
            "server": (200, 0),
        }


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
        # The capture window opens mid-traffic, while deliveries are
        # already batched and dispatched directly.
        net.scheduler.call_at(0.03, net.trace.enable)
        net.run_until(5.0)
        assert len(arrivals) == packets
        return [str(r) for r in net.trace.records]

    def test_capture_identical_either_path(self, monkeypatch):
        batched = _count_batched(monkeypatch)
        captured = self._run()
        # Enabling the trace does not change the path: batched deliveries
        # both before and after the capture window opens at t=0.03.
        assert [t for t in batched if t < 0.03]
        assert [t for t in batched if t >= 0.03]
        assert len(captured) == 302
        assert _sha256("\n".join(captured)) == (
            "c1786f379a20099f1fe62ed8dc5933dd46872026d5acf085c47dc43b67bdf579"
        )
