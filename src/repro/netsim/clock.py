"""Virtual-time event scheduler.

The whole simulation is single-threaded and deterministic: every delayed
action (packet delivery, retransmission timer, NAT idle timeout, application
timeout) is a :class:`Timer` on one :class:`Scheduler`.  Ties are broken by
insertion order, so two events scheduled for the same instant fire in the
order they were scheduled — a property several NAT-race tests rely on.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Instances are returned by :meth:`Scheduler.call_at` /
    :meth:`Scheduler.call_later`; user code should never construct one.
    """

    __slots__ = (
        "when", "_callback", "_args", "_cancelled", "_fired", "_scheduler",
        "_ctx", "_items", "_inext", "_bseq",
    )

    def __init__(
        self,
        when: float,
        callback: Callable[..., Any],
        args: Tuple,
        scheduler: "Scheduler" = None,
    ):
        self.when = when
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._fired = False
        self._scheduler = scheduler
        #: Batched-delivery queue (see Scheduler.call_later_batched); None
        #: marks an ordinary single-shot timer.
        self._items = None
        # Causal context: a timer inherits the context active when it was
        # scheduled and restores it when it fires, so attempt identity flows
        # through arbitrary timer chains (packet deliveries, retransmits,
        # delayed server replies) without any per-layer plumbing.
        self._ctx = scheduler.context if scheduler is not None else None

    def cancel(self) -> None:
        """Prevent the callback from running; idempotent.

        Cancelling a timer that already fired is a no-op: the timer stays
        in the ``fired`` state rather than reporting both ``fired`` and
        ``cancelled`` True.
        """
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        if self._scheduler is not None:
            self._scheduler._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def active(self) -> bool:
        """True while the timer is pending (not yet fired nor cancelled)."""
        return not (self._cancelled or self._fired)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fired = True
        self._callback(*self._args)


class Scheduler:
    """A deterministic discrete-event scheduler with virtual time.

    Time is a float in seconds and starts at 0.0.  Nothing advances the clock
    except :meth:`step`, :meth:`run_until`, or :meth:`run`.

    Cancelled timers stay in the heap until popped (cheap cancellation), but
    once they outnumber the live timers the heap is lazily compacted: dead
    entries are filtered out and the heap rebuilt in O(n).  Entries keep
    their original insertion sequence numbers, so tie-breaking — and
    therefore every wire trace — is byte-identical with and without
    compaction.
    """

    #: Never compact heaps smaller than this; rebuilding a tiny heap costs
    #: more than popping the dead entries would.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._now = 0.0
        #: Causal context of the currently-executing timer chain (an attempt
        #: id from :mod:`repro.obs.flight`, or None).  New timers capture it;
        #: the fire loops restore it before each callback.
        self.context = None
        self._heap: List[Tuple[float, int, Timer]] = []
        #: Insertion sequence of the most recently created timer.  A plain
        #: int (not itertools.count) so callers that coalesce same-instant
        #: work — Link's delivery batches — can check "has any timer been
        #: created since?" and only extend a batch when appending preserves
        #: the scheduler's insertion-order tie-break exactly.
        self._seq = 0
        #: Cancelled timers still occupying heap slots.
        self._cancelled_in_heap = 0
        #: Lazy removal of cancelled entries (see class docstring); tests
        #: flip this off to prove traces don't depend on it.
        self.compaction_enabled = True
        #: Times the heap was rebuilt to shed cancelled entries.
        self.compactions = 0
        #: Dead entries removed by compaction (vs. popped organically).
        self.compacted_entries = 0
        #: Events whose callbacks actually ran (cancelled timers excluded).
        self.events_fired = 0
        #: Timers cancelled while still pending.
        self.events_cancelled = 0
        #: High-water mark of the timer heap (includes cancelled entries).
        self.max_queue_depth = 0
        #: After :meth:`run`: True if it stopped because *max_events* was
        #: exhausted with work still pending, False if the queue drained.
        self.last_run_exhausted = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (neither fired nor cancelled) timers in the heap."""
        return len(self._heap) - self._cancelled_in_heap

    def _note_cancel(self) -> None:
        """Bookkeeping for Timer.cancel; compacts when dead entries win."""
        self.events_cancelled += 1
        self._cancelled_in_heap += 1
        if (
            self.compaction_enabled
            and len(self._heap) >= self.COMPACT_MIN
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify; order is preserved because
        surviving entries keep their (when, sequence) sort keys."""
        before = len(self._heap)
        self._heap = [entry for entry in self._heap if not entry[2]._cancelled]
        heapq.heapify(self._heap)
        self.compactions += 1
        self.compacted_entries += before - len(self._heap)
        self._cancelled_in_heap = 0

    @property
    def queue_depth(self) -> int:
        """Raw heap length — the O(1) figure the metrics gauge samples."""
        return len(self._heap)

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule *callback(*args)* at absolute time *when*.

        Scheduling in the past raises ``ValueError`` — it would silently
        reorder causality.
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule at t={when:.6f} before now={self._now:.6f}"
            )
        timer = Timer(when, callback, args, self)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (when, seq, timer))
        if len(self._heap) > self.max_queue_depth:
            self.max_queue_depth = len(self._heap)
        return timer

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule *callback(*args)* after *delay* seconds (>= 0).

        Fast path: a non-negative delay cannot land in the past, so this
        skips :meth:`call_at`'s causality check and pushes directly — this
        is the constructor virtually every packet delivery and protocol
        timer goes through.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        when = self._now + delay
        timer = Timer(when, callback, args, self)
        heap = self._heap
        self._seq = seq = self._seq + 1
        heapq.heappush(heap, (when, seq, timer))
        if len(heap) > self.max_queue_depth:
            self.max_queue_depth = len(heap)
        return timer

    def call_later_batched(self, delay: float, fire_item: Callable[[Any], None]) -> Timer:
        """One heap entry that fires many same-instant events.

        Returns a timer whose item list the caller extends (via
        :meth:`batch_append`); each queued item fires as its *own* scheduler
        event — one per :meth:`step`, in append order, calling
        ``fire_item(item)`` — so event granularity, ``events_fired``, and
        ``run_while`` predicate boundaries are byte-identical to scheduling
        one timer per item.  Only the heap traffic is coalesced.

        Contract for callers: append only when the item would fire exactly
        as a fresh timer would — (a) no other timer has been created since
        this one (``_seq`` unchanged — the items would have held consecutive
        sequence numbers, so firing them back-to-back preserves
        insertion-order tie-breaking exactly), (b) the timer has not fired,
        (c) a fresh timer would have the same ``when``, and (d) the current
        :attr:`context` equals the timer's ``_ctx`` (each item fires under
        the batch's context).  :class:`repro.netsim.link.Link` is the
        intended caller and enforces all four.
        """
        timer = self.call_later(delay, fire_item)
        timer._items = []
        timer._inext = 0
        # The creation sequence number, readable by the append-eligibility
        # check ("has any timer been created since?").
        timer._bseq = self._seq
        return timer

    def step(self) -> bool:
        """Fire the earliest pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            when, _, timer = heap[0]
            if timer._cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            items = timer._items
            if items is None:
                heapq.heappop(heap)
                self._now = when
                self.events_fired += 1
                self.context = timer._ctx
                timer._fire()
                return True
            # Batched timer: fire exactly one queued item, leaving the heap
            # entry in place until the queue drains.  New pushes during the
            # callback sort after this entry (same when -> higher sequence),
            # so it is still the top when we pop.
            i = timer._inext
            timer._inext = i + 1
            self._now = when
            self.events_fired += 1
            self.context = timer._ctx
            try:
                timer._callback(items[i])
            finally:
                # Pop-on-drain must happen even when the callback raises, or
                # the spent entry would fire again with an empty queue.  Pop
                # from self._heap, not the local binding: a cancellation
                # inside the callback may have compacted (rebuilt) the heap.
                if not timer._cancelled and timer._inext >= len(timer._items):
                    timer._fired = True
                    heapq.heappop(self._heap)
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Run events with ``when <= deadline``; clock ends at *deadline*.

        The clock is advanced to exactly *deadline* even if the last event is
        earlier, so back-to-back ``run_until`` calls compose predictably.
        """
        if deadline < self._now:
            raise ValueError(
                f"deadline t={deadline:.6f} is before now={self._now:.6f}"
            )
        # self._heap is re-read every iteration (never cached in a local):
        # any callback below can cancel timers and trigger a compaction,
        # which rebuilds — and rebinds — the heap list.
        while self._heap:
            when, _, timer = self._heap[0]
            if when > deadline:
                break
            if timer._cancelled:
                heapq.heappop(self._heap)
                self._cancelled_in_heap -= 1
                continue
            items = timer._items
            if items is None:
                heapq.heappop(self._heap)
                self._now = when
                self.events_fired += 1
                self.context = timer._ctx
                timer._fire()
                continue
            # Batched timer: drain the whole queue here instead of looping
            # back through the heap peek for every item.  This is safe
            # because nothing can preempt the batch mid-drain: a callback
            # cannot schedule before `when` (past scheduling is an error)
            # and anything it schedules AT `when` carries a higher sequence
            # number, i.e. sorts after this entry — exactly the order the
            # outer loop would produce one item at a time.  Each item still
            # counts as its own scheduler event in events_fired.
            self._now = when
            i = timer._inext
            callback = timer._callback
            # Every item fires under the batch's context, restored per item
            # exactly as step() does: a delivery callback may open an attempt
            # (reassigning the context), and that must not leak into the next
            # item.  events_fired is accumulated locally and flushed after
            # the drain (per-item attribute bumps are measurable at batch
            # sizes in the thousands).
            ctx = timer._ctx
            fired = 0
            try:
                # len() is re-read every pass: a same-instant transmit on a
                # zero-latency link may append to this batch while it fires.
                while i < len(items):
                    timer._inext = i + 1
                    fired += 1
                    self.context = ctx
                    callback(items[i])
                    if timer._cancelled:
                        # Cancelled mid-drain (e.g. the link went down in a
                        # delivery callback); the dead entry is popped by the
                        # cancellation branch above on the next pass.
                        break
                    i = timer._inext
            finally:
                self.events_fired += fired
                # Pop the drained entry even when a callback raises.  Pop
                # from self._heap, not a local binding: a cancellation
                # inside a callback may have compacted (rebuilt) the heap.
                if (
                    not timer._cancelled
                    and not timer._fired
                    and timer._inext >= len(timer._items)
                ):
                    timer._fired = True
                    heapq.heappop(self._heap)
        self._now = deadline

    def run(self, max_events: int = 1_000_000, strict: bool = True) -> int:
        """Run until the event heap drains.  Returns events fired.

        *max_events* guards against livelock (e.g. two hosts ping-ponging
        keep-alives forever).  Whether the run drained the queue or
        exhausted its budget is reported via :attr:`last_run_exhausted`;
        with ``strict`` (the default) budget exhaustion also raises
        ``RuntimeError``, so livelocks cannot pass silently.
        """
        fired = 0
        while fired < max_events and self.step():
            fired += 1
        self.last_run_exhausted = fired >= max_events and any(
            timer.active for _, _, timer in self._heap
        )
        if self.last_run_exhausted and strict:
            raise RuntimeError(f"scheduler exceeded {max_events} events")
        return fired

    def run_while(self, predicate: Callable[[], bool], deadline: float) -> bool:
        """Run while *predicate()* is true, up to *deadline*.

        Returns True if the predicate became false (condition met), False if
        the deadline was reached first.  Useful for "run until connected or
        5 s elapse" patterns in tests and examples.
        """
        while predicate():
            if not self._heap or self._heap[0][0] > deadline:
                self._now = deadline
                return False
            self.step()
        return True
