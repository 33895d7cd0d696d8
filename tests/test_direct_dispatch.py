"""Direct-dispatch invalidation suite.

``Link._fire_delivery`` delivers packets straight into resolved transport
handlers via 4-tuple entries cached on ``Link._dispatch``; each entry is
validated against the receiver's ``_delivery_version`` at both transmit
time and fire time.  Any binding change — transport stack detach/attach,
socket close/rebind, a NAT reboot — must therefore make cached entries fall
back to the ``Node.receive`` demux with observables identical to a run that
never dispatched directly at all.

Every scenario here perturbs bindings *mid-run*: entries are already
cached and packets are already in flight when the binding changes, so the
invalidation machinery (version stamps, ``_dispatch`` clearing, NAT state
reset) is what stands between a stale entry and a mis-delivery.  The
expected observables in ``EXPECTED`` were captured from a build whose links
delivered every packet through its own timer and ``Node.receive()`` (no
batching, no direct dispatch), so a direct delivery that diverges from the
demux fails the comparison.  Each test also asserts a witness that the
perturbation really bit.

Both scheduler drivers fire batched deliveries through ``_fire_delivery``
— ``run_until`` drains a batch in one loop, ``run_while`` steps it one item
at a time — so every scenario runs under each driver, and both drivers
must reproduce the expected observables.
"""

import hashlib

import pytest

from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.netsim.addresses import Endpoint
from repro.netsim.link import LAN_LINK
from repro.netsim.network import Network
from repro.transport.stack import attach_stack
from repro.transport.udp import UdpSocket

PACKETS = 80
SEND_SPACING = 0.0005  # 80 datagrams over 40ms; perturbations land mid-stream
END = 5.0

#: The two ways to drive a run to ``END``: the batch-draining loop and the
#: one-event-per-step loop every NAT Check and punch attempt goes through.
DRIVERS = {
    "run_until": lambda net: net.run_until(END),
    "run_while": lambda net: net.scheduler.run_while(lambda: True, END),
}


#: Observables of each scenario, with the arrival timeline reduced to its
#: length and the sha256 of its ``repr``.  Captured from per-packet-timer
#: delivery through ``Node.receive()``; see the module docstring.
EXPECTED = {
    "unperturbed": {
        "now": 5.0,
        "arrivals": (80, "f406749c7d47a7a34e6ac442acc865500c9f1fcafdfdb6b50903b92f5212e317"),
        "events_fired": 400,
        "lan": (160, 5120, 0),
        "backbone": (160, 5120, 0),
        "nat": (80, 80, 160, 0, 0),
        "server": (80, 0),
        "client": (80, 0),
        "client_udp": (80, 80),
        "server_udp": (80, 0),
    },
    "stack-detach": {
        "now": 5.0,
        "arrivals": (19, "c8c3663a723d56eb3f36530303590fa9a82ce4326c1688991fff1d708ded54b0"),
        "events_fired": 279,
        "lan": (99, 3168, 0),
        "backbone": (99, 3168, 0),
        "nat": (80, 19, 99, 0, 0),
        "server": (80, 61),
        "client": (19, 0),
        "client_udp": (80, 19),
    },
    "stack-attach": {
        "now": 5.0,
        "arrivals": (61, "a238de67ad14a64956335913a577089927ce17b2e0d72f29c92c922cd1b8bb18"),
        "events_fired": 363,
        "lan": (141, 4512, 0),
        "backbone": (141, 4512, 0),
        "nat": (80, 61, 141, 0, 0),
        "server": (80, 19),
        "client": (61, 0),
        "client_udp": (80, 61),
        "server_udp": (61, 0),
    },
    "close-rebind": {
        "now": 5.0,
        "arrivals": (50, "f78b9f628d331787275fcff0166990497bf6ace2ad2daa80e3871b3946d2803a"),
        "events_fired": 342,
        "lan": (130, 4160, 0),
        "backbone": (130, 4160, 0),
        "nat": (80, 50, 130, 0, 0),
        "server": (80, 0),
        "client": (50, 0),
        "client_udp": (80, 50),
        "server_udp": (50, 30),
    },
    "nat-reboot": {
        "now": 5.0,
        "arrivals": (41, "07f778fac3f332666d188b475a5164626a47c3b8f36b918e93fd7d914259627b"),
        "events_fired": 362,
        "lan": (121, 3872, 0),
        "backbone": (160, 5120, 0),
        "nat": (80, 41, 160, 0, 1),
        "server": (80, 0),
        "client": (41, 0),
        "client_udp": (80, 41),
        "server_udp": (80, 0),
    },
}


def _build(seed: int = 1, serve: bool = True):
    """The NAT echo topology; ``serve=False`` leaves the server stackless."""
    net = Network(seed=seed)
    backbone = net.create_link("backbone")
    server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
    nat = NatDevice("NAT", net.scheduler, B.WELL_BEHAVED, rng=net.rng.child("n"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan", LAN_LINK)
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    client = net.add_host(
        "C", ip="10.0.0.1", network="10.0.0.0/24", link=lan, gateway="10.0.0.254"
    )
    attach_stack(client)
    echo = None
    if serve:
        attach_stack(server)
        echo = server.stack.udp.socket(1234)
        echo.on_datagram = echo.sendto
    return net, backbone, lan, nat, client, server, echo


def _run(perturb=None, serve: bool = True, driver: str = "run_until"):
    net, backbone, lan, nat, client, server, echo = _build(serve=serve)
    arrivals = []
    sock = client.stack.udp.socket(4321)
    sock.on_datagram = lambda data, src: arrivals.append((net.now, data, str(src)))
    dest = Endpoint("18.181.0.31", 1234)
    for i in range(PACKETS):
        net.scheduler.call_at(i * SEND_SPACING, sock.sendto, b"%04d" % i, dest)
    if perturb is not None:
        perturb(net, nat, client, server, echo)
    DRIVERS[driver](net)
    observables = {
        "now": net.now,
        "arrivals": arrivals,
        "events_fired": net.scheduler.events_fired,
        "lan": (lan.packets_sent, lan.bytes_sent, lan.packets_dropped),
        "backbone": (
            backbone.packets_sent,
            backbone.bytes_sent,
            backbone.packets_dropped,
        ),
        "nat": (
            nat.translations_out,
            nat.translations_in,
            nat.packets_received,
            nat.packets_dropped,
            nat.reboots,
        ),
        "server": (server.packets_received, server.packets_dropped),
        "client": (client.packets_received, client.packets_dropped),
        "client_udp": (
            client.stack.udp.datagrams_sent,
            client.stack.udp.datagrams_received,
        ),
    }
    if getattr(server, "stack", None) is not None:
        observables["server_udp"] = (
            server.stack.udp.datagrams_received,
            server.stack.udp.packets_dropped,
        )
    return observables


def _digest(observables):
    """*observables* with the arrival timeline reduced as in ``EXPECTED``."""
    arrivals = observables["arrivals"]
    digest = hashlib.sha256(repr(arrivals).encode()).hexdigest()
    return dict(observables, arrivals=(len(arrivals), digest))


def _pinned(scenario, perturb=None, serve: bool = True):
    """Run *scenario* under each driver; assert both reproduce its expected
    observables and return the raw ``run_until`` observables."""
    runs = {
        driver: _run(perturb, serve=serve, driver=driver) for driver in DRIVERS
    }
    for driver, observables in runs.items():
        assert _digest(observables) == EXPECTED[scenario], driver
    return runs["run_until"]


class TestDirectDeliveryEngages:
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_socket_entry_fires_under_driver(self, driver, monkeypatch):
        # Witness for the identities below: deliveries really land in the
        # socket through the resolved entry under either driver, not only
        # through the receive() trampoline.
        calls = []
        direct = UdpSocket._deliver_direct

        def counting(sock, packet):
            calls.append(packet.packet_id)
            direct(sock, packet)

        monkeypatch.setattr(UdpSocket, "_deliver_direct", counting)
        obs = _run(driver=driver)
        assert len(obs["arrivals"]) == PACKETS
        assert calls
        assert _digest(obs) == EXPECTED["unperturbed"]


class TestStackDetachMidRun:
    def test_cached_entries_fall_back_and_drop(self):
        def perturb(net, nat, client, server, echo):
            net.scheduler.call_at(0.02, server.stack.detach)

        obs = _pinned("stack-detach", perturb)
        # Echoes before the detach arrived; datagrams after it drop at the
        # (now handler-less) host instead of firing a stale socket entry.
        assert 0 < len(obs["arrivals"]) < PACKETS
        assert obs["server"][1] > 0


class TestStackAttachMidRun:
    def test_never_valid_entries_refresh_after_attach(self):
        # Until the stack attaches, resolve yields (None, ...) entries that
        # can never fire; the register bumps the delivery version, so the
        # same cached slots re-resolve onto the live socket.
        def perturb(net, nat, client, server, echo):
            def attach():
                attach_stack(server)
                fresh = server.stack.udp.socket(1234)
                fresh.on_datagram = fresh.sendto

            net.scheduler.call_at(0.02, attach)

        obs = _pinned("stack-attach", perturb, serve=False)
        assert 0 < len(obs["arrivals"]) < PACKETS
        assert obs["server"][1] > 0  # the pre-attach datagrams dropped


class TestSocketCloseRebindMidRun:
    def test_close_drops_then_rebind_resumes(self):
        def perturb(net, nat, client, server, echo):
            net.scheduler.call_at(0.015, echo.close)

            def rebind():
                fresh = server.stack.udp.socket(1234)
                fresh.on_datagram = fresh.sendto

            net.scheduler.call_at(0.03, rebind)

        obs = _pinned("close-rebind", perturb)
        assert 0 < len(obs["arrivals"]) < PACKETS
        assert obs["server_udp"][1] > 0  # closed-window datagrams hit the demux drop
        assert obs["arrivals"][-1][0] > 0.03  # traffic resumed on the new socket


class TestNatRebootMidRun:
    def test_reboot_drops_stale_sessions_then_recovers(self):
        def perturb(net, nat, client, server, echo):
            net.scheduler.call_at(0.02, nat.reset_state)

        obs = _pinned("nat-reboot", perturb)
        assert obs["nat"][4] == 1  # the reboot really happened
        # Replies in flight toward the pre-reboot public mapping die
        # unmatched; the next outbound datagram rebuilds a mapping on the
        # shifted port range and the echo stream resumes.
        assert 0 < len(obs["arrivals"]) < PACKETS
        assert obs["arrivals"][-1][0] > 0.02


class TestDispatchBookkeeping:
    @staticmethod
    def _two_hosts():
        net = Network(seed=3)
        link = net.create_link("lan", LAN_LINK)
        a = net.add_host("A", ip="10.0.0.1", network="10.0.0.0/24", link=link)
        b = net.add_host("B", ip="10.0.0.2", network="10.0.0.0/24", link=link)
        attach_stack(a)
        attach_stack(b)
        return net, link, a, b

    def test_traffic_populates_and_attach_clears_cache(self):
        net, link, a, b = self._two_hosts()
        echo = b.stack.udp.socket(9)
        echo.on_datagram = echo.sendto
        sock = a.stack.udp.socket(8)
        sock.on_datagram = lambda data, src: None
        sock.sendto(b"x", Endpoint("10.0.0.2", 9))
        net.run_until(1.0)
        assert link._dispatch  # transmit resolved and cached entries
        net.add_host("T", ip="10.0.0.3", network="10.0.0.0/24", link=link)
        assert not link._dispatch  # a new attachment flushes the cache

    def test_binding_changes_bump_delivery_version(self):
        net, link, a, b = self._two_hosts()
        v0 = b._delivery_version
        sock = b.stack.udp.socket(7)
        v1 = b._delivery_version
        assert v1 > v0  # bind
        sock.close()
        v2 = b._delivery_version
        assert v2 > v1  # close
        b.stack.detach()
        assert b._delivery_version > v2  # stack detach (unregisters handlers)
