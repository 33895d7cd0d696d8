"""The three workloads: Table 1 fleet, attacked-NAT sweep, P2P sessions.

Each workload builds its inputs from the seed in ``__init__`` (the set-up the
benchmark times) and runs one *pass* per :meth:`run_pass` call: a fixed,
seed-determined unit of work that can be repeated with identical simulated
results.  Ops are timed by a :class:`Recorder`, which also carries the
traced run's profiler so bookkeeping between ops is never profiled.

The program is driven only through public entry points (``run_fleet``,
``run_robustness``, ``build_two_nats`` + ``P2PConnector``), one op in flight,
``workers=1`` and ``cache=False`` passed explicitly.  To see op boundaries
inside ``run_robustness`` and the networks the fleet builds, the benchmark
wraps the public topology builders for the length of a pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import time
import traceback
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.natcheck.fleet as fleet_module
import repro.scenarios.topologies as topologies_module
from repro.analysis.robustness import FAMILIES, distinct_behaviors, run_robustness
from repro.core.connector import STRATEGY_PUNCH, P2PConnector
from repro.core.protocol import TRANSPORT_TCP, TRANSPORT_UDP
from repro.natcheck.fleet import (
    VENDOR_SPECS,
    device_behavior,
    device_config,
    run_fleet,
)
from repro.natcheck.table import table1_rows

#: Table 1's "All Vendors" row as this reproduction measures it:
#: UDP, UDP hairpin, TCP and TCP hairpin (supporting, reporting).
TABLE1_TOTALS = ((310, 380), (80, 335), (184, 286), (40, 284))

#: Ops in one ``run_robustness(seed, quick=True)`` sweep: six behaviours,
#: three attack families, three modes.
ROBUSTNESS_OPS = 36

#: Network-registry counters the traced run reads after every op.
NETWORK_COUNTERS = {
    "nat.translations": ("nat.translations_out", "nat.translations_in"),
    "nat.mappings_created": ("nat.mappings_created",),
    "nat.drops": ("nat.drops",),
    "transport.tcp.retransmits": ("tcp.retransmits",),
    "transport.udp.datagrams": ("udp.datagrams_sent",),
}


def link_payload_bytes(net) -> int:
    """Transport payload bytes the network's links carried (headers excluded)."""
    total = 0
    for link in net.links.values():
        headers = sum(
            proto.header_bytes * count for proto, count in link.sent_by_proto.items()
        )
        total += link.bytes_sent - headers
    return total


def network_counts(net) -> Dict[str, int]:
    """Sum the network's plain counters into :data:`NETWORK_COUNTERS`."""
    net.metrics.collect()
    counters = net.metrics.counters()
    totals = {name: 0 for name in NETWORK_COUNTERS}
    for key, value in counters.items():
        base = key.split("{", 1)[0]
        for name, sources in NETWORK_COUNTERS.items():
            if base in sources:
                totals[name] += value
    return totals


def digest(value: object) -> str:
    """Short stable hash of a JSON-able value (simulated-output fingerprint)."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


class Recorder:
    """Times ops and collects per-op network counts for one or more passes.

    Every pass runs the same ops in the same order, so an op is identified
    by its position in the pass; :attr:`best` keeps each position's fastest
    time over the passes (see README: why the benchmark uses it).

    ``profiler`` (the traced run's ``cProfile.Profile``) runs between
    :meth:`resume` and :meth:`pause`, which workloads call only where no
    ``repro`` frame is on the stack, so the profiler's call stack stays
    whole.  Bookkeeping that calls into ``repro`` between ops goes through
    :meth:`defer` and runs after the profiled stretch.  ``count_networks``
    turns on the per-op registry read the traced run needs.
    """

    def __init__(self, profiler=None, count_networks: bool = False) -> None:
        self.profiler = profiler
        self.count_networks = count_networks
        self.op_seconds: List[float] = []
        self.best: List[float] = []
        self.passes = 0
        self.network_totals: Dict[str, int] = {name: 0 for name in NETWORK_COUNTERS}
        self.payload_bytes = 0
        self.failed = 0
        self.errors: List[str] = []
        self._position = 0
        self._t0 = 0.0
        self._profiling = False
        self._deferred: List[Tuple[Callable, tuple]] = []

    def start_pass(self) -> None:
        self.passes += 1
        self._position = 0

    def resume(self) -> None:
        if self.profiler is not None:
            self.profiler.enable()
            self._profiling = True

    def pause(self) -> None:
        if self._profiling:
            self.profiler.disable()
            self._profiling = False
        deferred, self._deferred = self._deferred, []
        for fn, args in deferred:
            fn(*args)

    def defer(self, fn: Callable, *args) -> None:
        """Run *fn* now, or after the profiled stretch when one is open."""
        if self._profiling:
            self._deferred.append((fn, args))
        else:
            fn(*args)

    def begin(self) -> None:
        self._t0 = time.perf_counter()

    def end(self) -> float:
        elapsed = time.perf_counter() - self._t0
        self.op_seconds.append(elapsed)
        if self._position < len(self.best):
            self.best[self._position] = min(self.best[self._position], elapsed)
        else:
            self.best.append(elapsed)
        self._position += 1
        return elapsed

    def network(self, net) -> None:
        """Account one finished op's network."""
        self.payload_bytes += link_payload_bytes(net)
        if self.count_networks:
            for name, value in network_counts(net).items():
                self.network_totals[name] += value

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


@contextlib.contextmanager
def wrapped(module, name: str, wrapper_factory) -> Iterator[None]:
    """Replace ``module.name`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, wrapper_factory(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (0..1) of *values*.

    A weighted mean of all order statistics with Beta(q(n+1), (1-q)(n+1))
    weights.  Unlike a single order statistic, it does not jump when the
    quantile falls between two clusters of ops (punched against relayed
    sessions, cheap against flooded scenarios) and noise reorders them.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


class Workload:
    """Inputs built from a seed, run as repeatable passes of ops.

    ``sim`` holds the first pass's simulated outputs; every later pass of
    the same seed must reproduce them exactly.
    """

    name = ""
    ops_per_pass = 0
    sim: Optional[Dict[str, object]] = None

    def run_pass(self, rec: Recorder) -> None:
        raise NotImplementedError

    def _settle_sim(self, sim: Dict[str, object], rec: Recorder) -> None:
        if self.sim is None:
            self.sim = sim
        elif sim != self.sim:
            rec.fail("simulated outputs differ between passes of one seed")


# ---------------------------------------------------------------------------
# table1_fleet
# ---------------------------------------------------------------------------


class Table1Fleet(Workload):
    """One pass is ``run_fleet`` over the 380-device fleet; one op is one
    device's NAT Check, timed between consecutive ``progress`` callbacks."""

    name = "table1_fleet"

    def __init__(self, seed: int, specs=VENDOR_SPECS) -> None:
        self.seed = seed
        self.specs = specs
        # Ground truth per device: UDP punch-friendly, and TCP punch-friendly
        # when the device's NAT Check version ran the TCP test.
        self.expected: Dict[str, List[Tuple[bool, Optional[bool]]]] = {}
        for spec in specs:
            row = []
            for index in range(spec.population):
                behavior = device_behavior(spec, index)
                tested = device_config(spec, index).run_tcp
                row.append(
                    (behavior.udp_punch_friendly, behavior.tcp_punch_friendly if tested else None)
                )
            self.expected[spec.name] = row
        self.ops_per_pass = sum(spec.population for spec in specs)

    def run_pass(self, rec: Recorder) -> None:
        built: List[object] = []

        def capture(original):
            def build_check_network(*args, **kwargs):
                net, client = original(*args, **kwargs)
                built.append(net)
                return net, client

            return build_check_network

        def progress(_vendor: str, _done: int, _total: int) -> None:
            rec.end()
            for net in built:
                rec.defer(rec.network, net)
            built.clear()
            rec.begin()

        with wrapped(fleet_module, "build_check_network", capture):
            rec.resume()
            rec.begin()
            result = run_fleet(
                self.specs, self.seed, progress=progress, workers=1, cache=False
            )
            rec.pause()
        self._check(result, rec)

    def _check(self, result, rec: Recorder) -> None:
        connect: List[float] = []
        ok = tested = 0
        for spec in self.specs:
            reports = result.reports.get(spec.name, [])
            if len(reports) != spec.population:
                rec.fail(f"{spec.name}: {len(reports)}/{spec.population} reports")
            for report, (udp_truth, tcp_truth) in zip(reports, self.expected[spec.name]):
                if report.udp_punch_ok != udp_truth or report.tcp_punch_ok != tcp_truth:
                    rec.fail(f"{report.device}: punch verdict differs from ground truth")
                ok += bool(report.udp_punch_ok) + bool(report.tcp_punch_ok)
                tested += 1 + (tcp_truth is not None)
                for rtt in (report.udp_probe_rtt, report.tcp_connect_rtt):
                    if rtt is not None:
                        connect.append(rtt * 1000.0)
        totals = table1_rows(result.reports)[-1]
        measured = (totals.udp, totals.udp_hairpin, totals.tcp, totals.tcp_hairpin)
        if self.specs is VENDOR_SPECS and measured != TABLE1_TOTALS:
            rec.fail(f"Table 1 totals {measured} != {TABLE1_TOTALS}")
        sim = {
            "report_digest": digest([r.to_dict() for r in result.all_reports()]),
            "sim_connect_p50_ms": percentile(connect, 50) if connect else None,
            "sim_connect_p95_ms": percentile(connect, 95) if connect else None,
            "direct_share": ok / tested,
        }
        self._settle_sim(sim, rec)


# ---------------------------------------------------------------------------
# robustness_quick
# ---------------------------------------------------------------------------


class RobustnessQuick(Workload):
    """One pass is ``run_robustness(seed, quick=True)``; one op is one
    (behaviour, attack family, mode) scenario, bounded by the scenario's
    ``build_two_nats`` call and the next one (or the end of the sweep)."""

    name = "robustness_quick"

    def __init__(self, seed: int, families: Tuple[str, ...] = FAMILIES) -> None:
        self.seed = seed
        self.families = families
        self.ops_per_pass = ROBUSTNESS_OPS * len(families) // len(FAMILIES)

    def run_pass(self, rec: Recorder) -> None:
        current: List[object] = []  # the scenario of the op in flight
        connect_ms: List[float] = []

        def settle(sc) -> None:
            rec.network(sc.net)
            for name in ("connect.udp", "connect.tcp"):
                for attempt in sc.net.flight.find_attempts(name):
                    if attempt.succeeded:
                        connect_ms.append((attempt.end - attempt.start) * 1000.0)

        def capture(original):
            def build_two_nats(*args, **kwargs):
                if current:
                    rec.end()
                    rec.defer(settle, current.pop())
                    rec.begin()
                sc = original(*args, **kwargs)
                current.append(sc)
                return sc

            return build_two_nats

        before = len(rec.op_seconds)
        with wrapped(topologies_module, "build_two_nats", capture):
            rec.resume()
            rec.begin()
            report = run_robustness(self.seed, families=self.families, quick=True)
            rec.end()
            rec.defer(settle, current.pop())
            rec.pause()
        ops = len(rec.op_seconds) - before
        if ops != self.ops_per_pass:
            rec.fail(f"{ops} scenario runs, expected {self.ops_per_pass}")
        for family in self.families:
            if not report.hardening_wins(family):
                rec.fail(f"hardening does not win against {family}")
        cells = report.cells.values()
        sim = {
            "report_digest": digest(report.to_dict()),
            "sim_connect_p50_ms": percentile(connect_ms, 50) if connect_ms else None,
            "sim_connect_p95_ms": percentile(connect_ms, 95) if connect_ms else None,
            "direct_share": sum(c.punched for c in cells)
            / sum(c.punch_total for c in cells),
        }
        self._settle_sim(sim, rec)


# ---------------------------------------------------------------------------
# p2p_sessions
# ---------------------------------------------------------------------------

#: Datagram sizes a session draws from (bytes): small, medium, near-MTU.
DATAGRAM_SIZES = (16, 160, 1200)
DATAGRAMS_EACH_WAY = 16
BULK_BYTES = 64 * 1024
BULK_CHUNK = 4096
#: Distinct payloads per kind (bulk, and datagrams of each size); sessions
#: draw from these pools by seed, which keeps a large plan small in memory.
PAYLOAD_POOL = 64
#: Sessions in the seeded plan; a run repeats it.  Large enough that the
#: NAT-pair mix, and so ``direct_share``, varies little between seeds, and
#: small enough that a run repeats it several times.
PLAN_SESSIONS = 512
#: Virtual-time budget for each wait inside a session.
WAIT = 120.0


def apportion(weights: Dict[object, float], total: int) -> List[object]:
    """*total* keys, each repeated in proportion to its weight (largest
    remainder; ties go to the earlier key)."""
    scale = total / sum(weights.values())
    quotas = {key: weight * scale for key, weight in weights.items()}
    counts = {key: int(quota) for key, quota in quotas.items()}
    keys = list(weights)
    by_remainder = sorted(keys, key=lambda key: counts[key] - quotas[key])
    for key in by_remainder[: total - sum(counts.values())]:
        counts[key] += 1
    return [key for key in keys for _ in range(counts[key])]


class P2PSessions(Workload):
    """One op is one session between two NATs drawn from the Table 1 fleet:
    register over UDP and TCP, run both ``P2PConnector`` ladders, then move
    datagrams each way and a bulk TCP transfer over the won channels."""

    name = "p2p_sessions"

    def __init__(self, seed: int, sessions: int = PLAN_SESSIONS) -> None:
        self.seed = seed
        rng = random.Random(seed)
        # Stratified draw: every (A, B) behaviour pair appears in proportion
        # to the product of their device counts (largest remainder), and the
        # datagram sizes in equal shares; the seed orders them and draws the
        # per-session simulation seeds and payloads.  So the punch/relay mix
        # is the same for every seed, and seeds differ only in what the mix
        # cannot fix.
        pairs = distinct_behaviors()
        weights = {
            (a, b): wa * wb for a, (_, wa) in enumerate(pairs) for b, (_, wb) in enumerate(pairs)
        }
        kinds = apportion(weights, sessions)
        sizes = apportion({size: 1 for size in DATAGRAM_SIZES}, sessions)
        rng.shuffle(kinds)
        rng.shuffle(sizes)
        blobs = [rng.randbytes(BULK_BYTES) for _ in range(PAYLOAD_POOL)]
        datagrams = {
            size: [rng.randbytes(size) for _ in range(PAYLOAD_POOL)]
            for size in DATAGRAM_SIZES
        }
        self.plan = []
        for index, ((a, b), size) in enumerate(zip(kinds, sizes)):
            pool = datagrams[size]
            self.plan.append(
                {
                    "index": index,
                    "seed": rng.getrandbits(31),
                    "behavior_a": pairs[a][0],
                    "behavior_b": pairs[b][0],
                    "a_to_b": rng.sample(pool, DATAGRAMS_EACH_WAY),
                    "b_to_a": rng.sample(pool, DATAGRAMS_EACH_WAY),
                    "bulk": rng.choice(blobs),
                }
            )
        self.ops_per_pass = sessions
        #: Per session index: (strategy sequences, virtual connect times).
        self._results: Dict[int, Tuple[Tuple[List[str], List[str]], List[float]]] = {}
        #: Per session index: payload bytes moved and fastest transfer phase.
        self.payload: Dict[int, int] = {}
        self.best_transfer: Dict[int, float] = {}

    def run_pass(self, rec: Recorder) -> None:
        first = not self._results
        for session in self.plan:
            index = session["index"]
            rec.resume()
            rec.begin()
            try:
                sc, outcome, transfer = self._session(session)
            except Exception:  # one failed session must not end the run
                rec.end()
                rec.pause()
                rec.fail(f"session {index}: {traceback.format_exc(limit=3)}")
                continue
            rec.end()
            rec.pause()
            rec.network(sc.net)
            problem = outcome.pop("problem")
            if problem:
                rec.fail(f"session {index}: {problem}")
            else:
                self.payload[index] = len(session["bulk"]) + sum(
                    len(d) for d in session["a_to_b"] + session["b_to_a"]
                )
                self.best_transfer[index] = min(
                    transfer, self.best_transfer.get(index, transfer)
                )
            result = (outcome["strategies"], outcome["connect_ms"])
            if first:
                self._results[index] = result
            elif self._results.get(index) != result:
                rec.fail(f"session {index}: differs from its first run")
        if first:
            self._summarise()

    def _summarise(self) -> None:
        results = [self._results[index] for index in sorted(self._results)]
        connect = [ms for _, times in results for ms in times]
        strategies = [s for (udp, tcp), _ in results for s in (udp[-1], tcp[-1])]
        self.sim = {
            "strategies": digest([pair for pair, _ in results]),
            "sim_connect_p50_ms": percentile(connect, 50),
            "sim_connect_p95_ms": percentile(connect, 95),
            "direct_share": strategies.count(STRATEGY_PUNCH) / len(strategies),
        }

    def _session(self, session) -> Tuple[object, Dict[str, object], float]:
        sc = topologies_module.build_two_nats(
            seed=session["seed"],
            behavior_a=session["behavior_a"],
            behavior_b=session["behavior_b"],
        )
        client_a, client_b = sc.clients["A"], sc.clients["B"]
        channels_b: Dict[int, object] = {}
        received_b: Dict[int, List[bytes]] = {TRANSPORT_UDP: [], TRANSPORT_TCP: []}

        def adopt(transport: Optional[int]):
            def on_channel(channel) -> None:
                kind = channel.transport if transport is None else transport
                if kind not in channels_b:
                    channels_b[kind] = channel
                    channel.on_data = received_b[kind].append

            return on_channel

        client_b.on_peer_session = adopt(TRANSPORT_UDP)
        client_b.on_peer_stream = adopt(TRANSPORT_TCP)
        client_b.on_relay_session = adopt(None)
        sc.register_all_udp()
        sc.register_all_tcp()

        channels_a: Dict[int, object] = {}
        strategies: Dict[int, List[str]] = {}
        connect_ms: List[float] = []
        for transport in (TRANSPORT_UDP, TRANSPORT_TCP):
            results: list = []
            started = sc.scheduler.now
            P2PConnector(client_a, transport=transport).connect(2, results.append)
            sc.wait_for(lambda: results, WAIT)
            result = results[0]
            strategies[transport] = [a.strategy for a in result.attempts]
            if result.connected:
                channels_a[transport] = result.channel
                connect_ms.append((sc.scheduler.now - started) * 1000.0)
        outcome: Dict[str, object] = {
            "strategies": (strategies[TRANSPORT_UDP], strategies[TRANSPORT_TCP]),
            "connect_ms": connect_ms,
            "problem": None,
        }
        if len(channels_a) != 2:
            outcome["problem"] = f"no channel on transports {sorted(set(strategies) - set(channels_a))}"
            return sc, outcome, 0.0

        started = time.perf_counter()
        udp_a = channels_a[TRANSPORT_UDP]
        received_a: List[bytes] = []
        udp_a.on_data = received_a.append
        for datagram in session["a_to_b"]:
            udp_a.send(datagram)
        count = len(session["a_to_b"])
        sc.wait_for(lambda: len(received_b[TRANSPORT_UDP]) >= count, WAIT)
        for datagram in session["b_to_a"]:
            channels_b[TRANSPORT_UDP].send(datagram)
        sc.wait_for(lambda: len(received_a) >= count, WAIT)
        bulk = session["bulk"]
        tcp_a = channels_a[TRANSPORT_TCP]
        for offset in range(0, len(bulk), BULK_CHUNK):
            tcp_a.send(bulk[offset : offset + BULK_CHUNK])
        sc.wait_for(lambda: sum(map(len, received_b[TRANSPORT_TCP])) >= len(bulk), WAIT)
        transfer = time.perf_counter() - started

        if received_b[TRANSPORT_UDP] != session["a_to_b"]:
            outcome["problem"] = "UDP A->B payload mismatch"
        elif received_a != session["b_to_a"]:
            outcome["problem"] = "UDP B->A payload mismatch"
        elif b"".join(received_b[TRANSPORT_TCP]) != bulk:
            outcome["problem"] = "TCP bulk payload mismatch"
        return sc, outcome, transfer


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    Table1Fleet.name: Table1Fleet,
    RobustnessQuick.name: RobustnessQuick,
    P2PSessions.name: P2PSessions,
}
