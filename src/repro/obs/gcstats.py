"""Garbage-collector pause accounting.

Every simulated packet is a fresh allocation, so a long run feeds CPython's
cyclic collector steadily, and a collection that lands inside a timed window
shows up as wall-clock noise.  This module measures how often the collector
ran during a simulation stretch and how much wall clock its pauses consumed.
CPython exposes exactly the right hook, ``gc.callbacks``, which fires with
``"start"``/``"stop"`` phases around every collection; the monitor
timestamps the pair.

Benchmarks surface the numbers through :class:`repro.obs.profile.RunProfiler`
(``gc_collections`` / ``gc_pause_seconds`` in ``to_dict``).  Note that
benchmark workloads typically run under a quiesced collector
(``emit_bench.quiesced_gc``), where zero collections is the *expected*
reading — the monitor proves the invariant rather than measuring noise.
"""

from __future__ import annotations

import gc
import time
from typing import Dict


class GcPauseMonitor:
    """Accumulates GC pause time while attached to ``gc.callbacks``.

    Usage::

        monitor = GcPauseMonitor()
        monitor.start()
        ...  # workload
        monitor.stop()
        print(monitor.collections, monitor.pause_seconds)

    Re-entrant ``start`` calls are idempotent; ``stop`` detaches the callback
    and keeps the accumulated totals readable.  One monitor can be started
    and stopped repeatedly — totals accumulate across windows until
    :meth:`reset`.
    """

    def __init__(self) -> None:
        self.collections = 0
        self.pause_seconds = 0.0
        #: Per-generation collection counts (index = GC generation).
        self.by_generation = [0, 0, 0]
        self._pause_started = None
        self._attached = False

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._pause_started = time.perf_counter()
        elif self._pause_started is not None:
            self.pause_seconds += time.perf_counter() - self._pause_started
            self._pause_started = None
            self.collections += 1
            generation = info.get("generation", 0)
            if 0 <= generation < len(self.by_generation):
                self.by_generation[generation] += 1

    def start(self) -> "GcPauseMonitor":
        if not self._attached:
            gc.callbacks.append(self._callback)
            self._attached = True
        return self

    def stop(self) -> "GcPauseMonitor":
        if self._attached:
            try:
                gc.callbacks.remove(self._callback)
            except ValueError:  # pragma: no cover - externally cleared
                pass
            self._attached = False
        self._pause_started = None
        return self

    def reset(self) -> None:
        self.collections = 0
        self.pause_seconds = 0.0
        self.by_generation = [0, 0, 0]
        self._pause_started = None

    def __enter__(self) -> "GcPauseMonitor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def to_dict(self) -> Dict[str, object]:
        return {
            "collections": self.collections,
            "pause_seconds": self.pause_seconds,
            "by_generation": list(self.by_generation),
        }

    def __repr__(self) -> str:
        return (
            f"GcPauseMonitor(collections={self.collections}, "
            f"pause_seconds={self.pause_seconds:.6f})"
        )
