"""Links: L2 segments connecting node interfaces.

A :class:`Link` models either a point-to-point wire or a small broadcast
segment (a home LAN behind a NAT).  Delivery is next-hop-addressed: the
sending node resolves the next-hop IP (its routing decision) and the link
delivers to whichever attached interface owns that IP — an ARP-free
simplification that preserves everything the paper's scenarios need,
including "stray traffic reaches the wrong host with the same private IP"
(§3.4): two *different* links can each have a host at 10.1.1.3.

Latency, jitter, and loss come from a :class:`LinkProfile`; all randomness is
drawn from the owning network's seeded RNG, so runs are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.netsim.addresses import IPv4Address
from repro.netsim.clock import Scheduler, Timer
from repro.netsim.packet import IpProtocol, Packet
from repro.obs.metrics import Counter
from repro.util.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.netsim.node import Node
    from repro.netsim.trace import PacketTrace


@dataclass(frozen=True)
class LinkProfile:
    """Propagation characteristics of a link.

    Attributes:
        latency: one-way delay in seconds.
        jitter: maximum extra uniform random delay in seconds.
        loss: independent per-packet drop probability in [0, 1].
        bandwidth_bps: serialization rate in bits/second; None = infinite.
            With a finite rate the link models a FIFO transmit queue: each
            packet occupies the wire for ``size*8/bandwidth`` seconds and
            later packets wait their turn (this is what makes "relaying
            consumes the server's bandwidth", §2.2, measurable).
        max_queue_delay: tail-drop threshold — a packet that would wait
            longer than this in the transmit queue is dropped.  None = an
            unbounded queue.
        burst_enter: per-packet probability of the Gilbert-Elliott loss model
            transitioning from the good state into the bad (bursty) state.
            0 (default) disables the model entirely — no extra RNG draws, so
            existing seeds replay unchanged.
        burst_exit: per-packet probability of leaving the bad state.  Must be
            positive when ``burst_enter`` is, or a burst would never end.
        burst_loss: drop probability while in the bad state (the good state
            uses the independent ``loss`` field).
        duplicate: per-packet probability of delivering a second copy — the
            duplicated datagram a hole-punching protocol must tolerate.
        reorder: per-packet probability of delaying a packet by an extra
            ``reorder_delay`` seconds, letting later packets overtake it.
        reorder_delay: the extra delay applied to reordered packets.
    """

    latency: float = 0.010
    jitter: float = 0.0
    loss: float = 0.0
    bandwidth_bps: Optional[float] = None
    max_queue_delay: Optional[float] = None
    burst_enter: float = 0.0
    burst_exit: float = 0.0
    burst_loss: float = 1.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("latency/jitter must be non-negative")
        for name in ("loss", "burst_enter", "burst_exit", "burst_loss",
                     "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability out of range: {value}")
        if self.burst_enter > 0 and self.burst_exit <= 0:
            raise ValueError("burst_enter requires a positive burst_exit")
        if self.reorder > 0 and self.reorder_delay <= 0:
            raise ValueError("reorder requires a positive reorder_delay")
        if self.reorder_delay < 0:
            raise ValueError("reorder_delay must be non-negative")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if self.max_queue_delay is not None and self.max_queue_delay < 0:
            raise ValueError("max_queue_delay must be non-negative")


#: Typical last-mile consumer link.
CONSUMER_LINK = LinkProfile(latency=0.015, jitter=0.005)
#: Low-latency LAN segment.
LAN_LINK = LinkProfile(latency=0.0005)
#: Well-connected server uplink.
BACKBONE_LINK = LinkProfile(latency=0.005)


class Link:
    """An L2 segment with one or more attached node interfaces."""

    def __init__(
        self,
        scheduler: Scheduler,
        name: str = "link",
        profile: Optional[LinkProfile] = None,
        rng: Optional[SeededRng] = None,
        trace: Optional["PacketTrace"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.name = name
        self.profile = profile or LinkProfile()
        self._rng = rng or SeededRng(0, f"link/{name}")
        self._trace = trace
        #: FlightRecorder set by ``Network.attach_flight``; None (the
        #: default) keeps every drop site to a single attribute test.
        self.flight = None
        self._attachments: List[Tuple["Node", IPv4Address]] = []
        #: Owner index keyed by the raw 32-bit address value: int probes
        #: hash at C speed, IPv4Address probes pay a Python-level
        #: ``__hash__`` call per packet.
        self._owner_values: Dict[int, "Node"] = {}
        self._busy_until = 0.0
        self._up = True
        self._ge_bad = False  # Gilbert-Elliott state: currently in a burst?
        #: Every scheduled-but-undelivered packet, as delivery batches (see
        #: Scheduler.call_later_batched) in creation order, so link flaps and
        #: node detachment can drop in-flight traffic — in schedule order —
        #: instead of delivering to a dead segment/host.  Items are (sender,
        #: receiver, packet, dispatch-entry) 4-tuples; a detached entry is
        #: nulled in place.  Spent batches are purged from the front.
        self._batches: Deque[Timer] = deque()
        #: Direct-dispatch memo: ``dst._key * 4 + proto.wire_index`` ->
        #: ``(deliver, delivery_version, receiver, nh_value)``.  *deliver* is
        #: the callable :meth:`_fire_delivery` invokes instead of the
        #: ``receiver.receive`` trampoline (None = always ``receive()``, e.g.
        #: forwarding receivers); *delivery_version* is the receiver's
        #: :attr:`Node._delivery_version` at resolve time (None = never
        #: stale) and is re-checked both at transmit and at fire, so a stack
        #: detach or socket close between the two falls back to
        #: ``receive()``; *nh_value* is the raw next-hop IP the receiver was
        #: resolved from, so a transmit hit skips the owner-index probe.
        #: Cleared whenever the attachment set changes — receiver identity
        #: per next-hop is part of what the entry memoises.
        self._dispatch: Dict[int, tuple] = {}
        self.packets_dropped = 0
        self.queue_drops = 0
        self.flap_drops = 0
        self.burst_drops = 0
        self.duplicates_delivered = 0
        self.packets_reordered = 0
        self.bytes_sent = 0
        # Pre-bound per-protocol counter handles, indexed by
        # ``proto.wire_index`` (list index + direct ``.value`` bump, no enum
        # hashing); the owning network's collector reads the dict views
        # below at snapshot time.
        self._sent_by_index: List[Counter] = [
            Counter("link.packets_sent", (("proto", proto.value),))
            for proto in IpProtocol
        ]
        self._lost_by_index: List[Counter] = [
            Counter("link.packets_lost", (("proto", proto.value),))
            for proto in IpProtocol
        ]

    @property
    def packets_sent(self) -> int:
        """Total packets placed on the wire.

        Derived from the per-protocol counters — every wire path bumps
        exactly one per-proto handle, so the transmit hot path pays one
        counter write instead of two and this read-rare total sums at
        snapshot time.
        """
        return sum(counter.value for counter in self._sent_by_index)

    @property
    def sent_by_proto(self) -> Dict[IpProtocol, int]:
        """Per-protocol sent counts (protocols actually seen only)."""
        return {p: c.value for p, c in zip(IpProtocol, self._sent_by_index) if c.value}

    @property
    def lost_by_proto(self) -> Dict[IpProtocol, int]:
        """Per-protocol loss counts (protocols actually seen only)."""
        return {p: c.value for p, c in zip(IpProtocol, self._lost_by_index) if c.value}

    def attach(self, node: "Node", ip) -> None:
        """Attach *node*'s interface at *ip* to this segment."""
        address = IPv4Address(ip)
        if address._value in self._owner_values:
            raise ValueError(f"duplicate IP {address} on link {self.name}")
        self._attachments.append((node, address))
        self._owner_values[address._value] = node
        self._dispatch.clear()

    def detach(self, node: "Node") -> None:
        """Remove every attachment belonging to *node*.

        In-flight deliveries addressed to *node* are cancelled: a crashed or
        unplugged host must not keep receiving packets that were already on
        the wire when it left the segment.
        """
        self._attachments = [(n, ip) for n, ip in self._attachments if n is not node]
        self._owner_values = {ip._value: n for n, ip in self._attachments}
        self._dispatch.clear()
        for timer in self._batches:
            items = timer._items
            for i in range(timer._inext, len(items)):
                item = items[i]
                if item is not None and item[1] is node:
                    items[i] = None
                    self.packets_dropped += 1
                    self._record(item[2], item[0], node, "detach-drop")
                    self._flight_drop(item[2], "detach-drop")

    # -- link state (fault injection) -------------------------------------------

    @property
    def is_up(self) -> bool:
        return self._up

    def down(self) -> None:
        """Take the segment down: in-flight packets are dropped and further
        transmissions fail until :meth:`up`.  Idempotent.  The Gilbert-
        Elliott burst chain is reset: a carrier loss tears down whatever
        channel condition caused the burst, so the segment must not come
        back "mid-burst" from pre-flap traffic."""
        if not self._up:
            return
        self._up = False
        self._ge_bad = False
        for timer in self._batches:
            items = timer._items
            for i in range(timer._inext, len(items)):
                item = items[i]
                if item is not None:
                    self.packets_dropped += 1
                    self.flap_drops += 1
                    self._record(item[2], item[0], item[1], "flap-drop")
                    self._flight_drop(item[2], "flap-drop")
            timer.cancel()
        self._batches.clear()

    def up(self) -> None:
        """Bring the segment back; the transmit queue restarts empty and the
        Gilbert-Elliott chain restarts in the good state."""
        if self._up:
            return
        self._up = True
        self._busy_until = 0.0
        self._ge_bad = False

    @property
    def attached_nodes(self) -> List["Node"]:
        return [node for node, _ in self._attachments]

    def owner_of(self, ip) -> Optional["Node"]:
        """Node whose interface on this link owns *ip*, if any."""
        return self._owner_values.get(IPv4Address(ip)._value)

    def transmit(self, packet: Packet, sender: "Node", next_hop_ip) -> bool:
        """Send *packet* toward the attached interface owning *next_hop_ip*.

        Returns True if delivery was scheduled; False if the next hop does not
        exist on this segment or the packet was lost.  Both cases are silent
        on the wire — exactly how a datagram to a non-existent private host
        behaves in the paper's §3.4 scenario.
        """
        if not self._up:
            self.packets_dropped += 1
            self.flap_drops += 1
            self._record(packet, sender, None, "link-down")
            self._flight_drop(packet, "link-down")
            return False
        try:
            nh_value = next_hop_ip._value
        except AttributeError:  # next hop given as str/int/bytes
            nh_value = IPv4Address(next_hop_ip)._value
        proto = packet.proto
        # Resolve (or validate) the direct-dispatch entry for this flow.  The
        # entry memoises both the next-hop owner and the local delivery
        # target, so a hit skips the owner-index probe here and the full
        # demux at fire time; a next-hop mismatch (two next hops sharing a
        # dst key on one segment) or a stale delivery version re-resolves.
        entry = self._dispatch.get(packet.dst._key * 4 + proto.wire_index)
        if entry is not None and entry[3] == nh_value:
            receiver = entry[2]
            version = entry[1]
            if version is not None and version != receiver._delivery_version:
                entry = None
        else:
            entry = None
            receiver = self._owner_values.get(nh_value)
        if receiver is None or receiver is sender:
            self.packets_dropped += 1
            self._record(packet, sender, None, "no-next-hop")
            self._flight_drop(packet, "no-next-hop")
            return False
        if entry is None:
            entry = self._resolve_dispatch(packet.dst, proto, receiver, nh_value)
        if not self._wire_one(packet, sender, entry):
            return False
        duplicate = self.profile.duplicate
        if duplicate and self._rng.chance(duplicate):
            # A duplicated datagram trails its original by one extra latency
            # and is charged/checked like any other wire packet: it takes its
            # own loss and burst draws, pays the serialization charge, and
            # can tail-drop — a duplicate is not exempt from the link model.
            self._wire_one(packet, sender, entry, True)
        return True

    def _wire_one(
        self,
        packet: Packet,
        sender: "Node",
        entry: tuple,
        dup: bool = False,
    ) -> bool:
        """Put one packet (original or duplicate copy) on the wire: fault
        draws, bandwidth charge, and delivery scheduling.  Returns True if a
        delivery was scheduled.  Each fault draw is guarded by its own knob,
        so a zero-valued knob draws no RNG."""
        profile = self.profile
        receiver = entry[2]
        if profile.loss and self._rng.chance(profile.loss):
            self.packets_dropped += 1
            self._lost_by_index[packet.proto.wire_index].value += 1
            self._record(packet, sender, receiver, "lost")
            self._flight_drop(packet, "lost")
            return False
        if profile.burst_enter and self._ge_burst_drops(packet):
            self.packets_dropped += 1
            self.burst_drops += 1
            self._lost_by_index[packet.proto.wire_index].value += 1
            self._record(packet, sender, receiver, "burst-lost")
            self._flight_drop(packet, "burst-lost")
            return False
        delay = profile.latency
        if dup:
            delay += profile.latency
        if profile.jitter:
            delay += self._rng.uniform(0.0, profile.jitter)
        scheduler = self.scheduler
        if profile.bandwidth_bps is not None:
            now = scheduler._now
            queue_wait = max(0.0, self._busy_until - now)
            if (
                profile.max_queue_delay is not None
                and queue_wait > profile.max_queue_delay
            ):
                self.packets_dropped += 1
                self.queue_drops += 1
                self._record(packet, sender, receiver, "queue-drop")
                self._flight_drop(packet, "queue-drop")
                return False
            serialization = packet.size * 8 / profile.bandwidth_bps
            self._busy_until = now + queue_wait + serialization
            delay += queue_wait + serialization
        if profile.reorder and self._rng.chance(profile.reorder):
            delay += profile.reorder_delay
            self.packets_reordered += 1
        if dup:
            self.duplicates_delivered += 1
        proto = packet.proto
        self.bytes_sent += proto.header_bytes + len(packet.payload)
        self._sent_by_index[proto.wire_index].value += 1
        trace = self._trace
        if trace is not None and trace.enabled:
            self._record(packet, sender, receiver, "duplicated" if dup else "sent")
        item = (sender, receiver, packet, entry)
        batches = self._batches
        if batches:
            batch = batches[-1]
            if (
                batch._bseq == scheduler._seq
                and not batch._fired
                and batch.when == scheduler._now + delay
                and batch._ctx == scheduler.context
            ):
                # No timer was created since the batch's own, and a fresh
                # timer would fire at the same instant under the same causal
                # context: it would have drawn the very next sequence number,
                # so appending preserves fire order and context exactly.
                batch._items.append(item)
                return True
            while batches and batches[0]._fired:
                batches.popleft()
        batch = scheduler.call_later_batched(delay, self._fire_delivery)
        batch._items.append(item)
        batches.append(batch)
        return True

    def _resolve_dispatch(
        self, dst, proto: IpProtocol, receiver: "Node", nh_value: int
    ) -> tuple:
        """Build and memoise the direct-dispatch entry for (dst, proto) via
        *receiver* — see the ``_dispatch`` attribute docs for the layout.

        Forwarding receivers (routers, NATs) get a permanent ``receive()``
        entry (``version`` None: ``forwards_packets`` is a class property, so the
        answer can never go stale); host receivers resolve through
        :meth:`Node.resolve_dispatch` and are pinned to the host's current
        delivery version.  *nh_value* — the raw next-hop IP the entry was
        resolved against — rides in slot 3 so a transmit hit can reuse the
        memoised receiver without re-probing the owner index.
        """
        if receiver.forwards_packets:
            entry = (None, None, receiver, nh_value)
        elif dst.ip._value not in receiver._local_ips:
            # Not locally addressed (the host will drop it): ``receive()``,
            # but re-resolved if the host grows an interface.
            entry = (None, receiver._delivery_version, receiver, nh_value)
        else:
            entry = (
                receiver.resolve_dispatch(proto, dst),
                receiver._delivery_version,
                receiver,
                nh_value,
            )
        self._dispatch[dst._key * 4 + proto.wire_index] = entry
        return entry

    def _fire_delivery(self, item) -> None:
        """Deliver one coalesced-batch item; every scheduler driver (``step``
        and ``run_until`` alike) fires batched items through here, one per
        event.  A nulled item was detach-dropped while in flight.  When the
        item's dispatch entry is still valid for the receiver's delivery
        version, the packet goes straight to the resolved transport target,
        skipping the ``receive()`` demux (whose ``packets_received`` bump is
        kept); otherwise it takes the ``receive()`` trampoline."""
        if item is not None:
            _sender, receiver, packet, entry = item
            deliver = entry[0]
            if deliver is not None and entry[1] == receiver._delivery_version:
                receiver.packets_received += 1
                deliver(packet)
            else:
                receiver.receive(packet, self)

    def _ge_burst_drops(self, packet: Packet) -> bool:
        """Advance the Gilbert-Elliott two-state chain one packet and report
        whether the bad state claims this packet."""
        if self._ge_bad:
            if self._rng.chance(self.profile.burst_exit):
                self._ge_bad = False
        elif self._rng.chance(self.profile.burst_enter):
            self._ge_bad = True
        return self._ge_bad and self._rng.chance(self.profile.burst_loss)

    def _flight_drop(self, packet: Packet, reason: str) -> None:
        """Flight-record a wire drop; drop paths only, never the send path."""
        if self.flight is not None:
            self.flight.packet_event(
                "link.drop", packet, link=self.name, reason=reason
            )

    def _record(self, packet: Packet, sender: "Node", receiver, event: str) -> None:
        if self._trace is not None:
            self._trace.record(
                time=self.scheduler.now,
                link=self.name,
                sender=sender.name,
                receiver=receiver.name if receiver is not None else None,
                event=event,
                packet=packet,
            )

    def __repr__(self) -> str:
        return f"Link({self.name!r}, attached={len(self._attachments)})"
