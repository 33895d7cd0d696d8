"""Wall-clock run profiling: events/second and packets/second.

The one place in :mod:`repro.obs` that reads the host's real clock.  A
:class:`RunProfiler` wraps a stretch of simulation and reports how fast the
substrate executed it — the number every perf PR is judged by
(``benchmarks/test_simulator_perf.py`` asserts against it, and
``benchmarks/emit_bench.py`` archives it to ``BENCH_obs.json``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.netsim.clock import Scheduler
from repro.obs.gcstats import GcPauseMonitor


class RunProfiler:
    """Context manager measuring one simulation stretch.

    Args:
        scheduler: the scheduler whose ``events_fired`` counter to sample.
        network: optional :class:`~repro.netsim.network.Network`; when given,
            packet throughput is computed from its links (and *scheduler*
            may be omitted).

    Usage::

        with RunProfiler(network=net) as prof:
            net.run_until(60.0)
        print(prof.events_per_second, prof.packets_per_second)
    """

    def __init__(self, scheduler: Optional[Scheduler] = None, network=None) -> None:
        if scheduler is None and network is not None:
            scheduler = network.scheduler
        if scheduler is None:
            raise ValueError("RunProfiler needs a scheduler or a network")
        self.scheduler = scheduler
        self.network = network
        self.wall_seconds = 0.0
        self.virtual_seconds = 0.0
        self.events = 0
        self.packets = 0
        self._wall_start = 0.0
        self._events_start = 0
        self._packets_start = 0
        self._virtual_start = 0.0
        #: GC pauses inside the measured window (see repro.obs.gcstats);
        #: under a quiesced collector zero collections is the expected —
        #: and now proven — reading.
        self.gc = GcPauseMonitor()

    def _packets_now(self) -> int:
        if self.network is None:
            return 0
        return self.network.total_packets_sent()

    def __enter__(self) -> "RunProfiler":
        self._events_start = self.scheduler.events_fired
        self._packets_start = self._packets_now()
        self._virtual_start = self.scheduler.now
        self.gc.start()
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_seconds = time.perf_counter() - self._wall_start
        self.gc.stop()
        self.events = self.scheduler.events_fired - self._events_start
        self.packets = self._packets_now() - self._packets_start
        self.virtual_seconds = self.scheduler.now - self._virtual_start

    # -- derived rates -------------------------------------------------------

    @property
    def events_per_second(self) -> float:
        """Scheduler events fired per wall-clock second."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def packets_per_second(self) -> float:
        """Link-level packets transmitted per wall-clock second."""
        return self.packets / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def time_dilation(self) -> float:
        """Virtual seconds simulated per wall-clock second (bigger = faster)."""
        return (
            self.virtual_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0
        )

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly record for ``BENCH_obs.json``."""
        return {
            "wall_seconds": self.wall_seconds,
            "virtual_seconds": self.virtual_seconds,
            "events": self.events,
            "packets": self.packets,
            "events_per_second": self.events_per_second,
            "packets_per_second": self.packets_per_second,
            "time_dilation": self.time_dilation,
            "gc_collections": self.gc.collections,
            "gc_pause_seconds": self.gc.pause_seconds,
        }

    def __repr__(self) -> str:
        return (
            f"RunProfiler(events/s={self.events_per_second:,.0f}, "
            f"packets/s={self.packets_per_second:,.0f}, "
            f"wall={self.wall_seconds:.3f}s)"
        )
