"""Per-layer cost attribution, measured from outside the program.

A *layer* is a named group of ``repro`` modules (:data:`LAYERS`).  The traced
run wraps each pass in :mod:`cProfile`, whose C-level hook keeps per-function
and per-caller->callee counts and times in memory; :func:`aggregate` folds
them into per-layer entries and self time.  Frames outside ``repro`` (the
standard library, builtins, dataclass-generated methods) are charged to the
layer that called them.  :class:`SpanSampler` records full layer spans for a
bounded sample of ops, because a Python-level hook is too slow to leave on
for a whole workload.
"""

from __future__ import annotations

import os
import re
import sys
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: Layer name -> the ``repro`` modules it owns.  Every module under
#: ``src/repro`` must appear exactly once (checked by the benchmark's tests),
#: so a new module cannot fall silently into an unnamed bucket.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "netsim.clock": ("repro.netsim.clock",),
    "netsim.link": ("repro.netsim.link", "repro.netsim.routing"),
    "netsim.packet": ("repro.netsim.packet", "repro.netsim.addresses"),
    "netsim.node": ("repro.netsim", "repro.netsim.node", "repro.netsim.network"),
    "netsim.adversary": (
        "repro.netsim.adversary",
        "repro.netsim.faults",
        "repro.netsim.chaos",
    ),
    "nat": (
        "repro.nat",
        "repro.nat.behavior",
        "repro.nat.device",
        "repro.nat.mapping",
        "repro.nat.policy",
    ),
    "transport.tcp": ("repro.transport.tcp",),
    "transport.udp": (
        "repro.transport",
        "repro.transport.udp",
        "repro.transport.stack",
        "repro.transport.sockets",
    ),
    "core.rendezvous": (
        "repro.core.rendezvous",
        "repro.core.registry",
        "repro.core.protocol",
        "repro.core.failover",
    ),
    "core.client": (
        "repro.core",
        "repro.core.client",
        "repro.core.udp_punch",
        "repro.core.tcp_punch",
        "repro.core.connector",
        "repro.core.relay",
        "repro.core.reversal",
        "repro.core.turn",
        "repro.core.tcp_sequential",
        "repro.core.auth",
    ),
    "natcheck": (
        "repro.natcheck",
        "repro.natcheck.__main__",
        "repro.natcheck.classify",
        "repro.natcheck.client",
        "repro.natcheck.discovery",
        "repro.natcheck.messages",
        "repro.natcheck.servers",
        "repro.natcheck.table",
    ),
    "natcheck.fleet": ("repro.natcheck.fleet",),
    "analysis": (
        "repro.analysis",
        "repro.analysis.__main__",
        "repro.analysis.explain",
        "repro.analysis.report",
        "repro.analysis.robustness",
    ),
    "obs.flight": (
        "repro.obs.flight",
        "repro.obs.attribution",
        "repro.obs.flight_export",
    ),
    "obs": (
        "repro.obs",
        "repro.obs.metrics",
        "repro.obs.spans",
        "repro.obs.export",
        "repro.obs.profile",
        "repro.obs.gcstats",
        "repro.netsim.trace",
    ),
    "cache": ("repro.cache", "repro.cache.fingerprint", "repro.cache.store"),
    "scenarios": (
        "repro.scenarios",
        "repro.scenarios.figures",
        "repro.scenarios.topologies",
    ),
    "util": ("repro", "repro.util", "repro.util.errors", "repro.util.rng"),
}

MODULE_LAYER: Dict[str, str] = {
    module: layer for layer, modules in LAYERS.items() for module in modules
}

#: Where time and calls go that no ``repro`` frame caused: the benchmark's
#: own code and the interpreter.  Not a layer metric.
BENCH = "(benchmark)"

#: Named operation counts: metric -> the ``(module, qualname)`` functions
#: whose call counts it sums.  Counts that ``repro`` already keeps in plain
#: counters (NAT translations, retransmits, datagrams) are read from the
#: network's metrics registry instead (``workloads.network_counts``), and
#: packet allocations from the packet-id counter, because the hot paths
#: build packets inline rather than through a constructor.
CALL_COUNTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "netsim.clock.timers": (("repro.netsim.clock", "Timer.__init__"),),
    "netsim.link.transmits": (("repro.netsim.link", "Link.transmit"),),
    "netsim.link.slow_path": (("repro.netsim.link", "Link._wire_one"),),
    "netsim.packet.str_calls": (
        ("repro.netsim.addresses", "IPv4Address.__str__"),
        ("repro.netsim.addresses", "IPv4Address.__repr__"),
        ("repro.netsim.addresses", "IPv4Network.__str__"),
        ("repro.netsim.addresses", "IPv4Network.__repr__"),
        ("repro.netsim.addresses", "Endpoint.__str__"),
        ("repro.netsim.addresses", "Endpoint.__repr__"),
        ("repro.netsim.packet", "Packet.describe"),
    ),
    "transport.tcp.segments": (("repro.netsim.packet", "tcp_packet"),),
    "transport.tcp.flag_ops": tuple(
        ("enum", "Flag." + name)
        for name in ("__or__", "__and__", "__xor__", "__invert__", "__contains__")
    ),
    "core.rendezvous.requests": (
        ("repro.core.rendezvous", "RendezvousServer._on_udp"),
        ("repro.core.rendezvous", "RendezvousServer._dispatch_tcp"),
    ),
    "core.client.connect_attempts": (
        ("repro.core.client", "PeerClient.connect_udp"),
        ("repro.core.client", "PeerClient.connect_tcp"),
    ),
    "obs.flight.events": (("repro.obs.flight", "FlightEvent.__init__"),),
    "setup.networks": (("repro.netsim.network", "Network.__init__"),),
}


def is_setup_builder(module: str, qualname: str) -> bool:
    """Topology builders, whose inclusive time is ``setup.incl_us_per_op``."""
    if module == "repro.natcheck.fleet":
        return qualname == "build_check_network"
    return module == "repro.scenarios.topologies" and qualname.startswith("build_")


def list_modules(src_root: str) -> List[str]:
    """Every importable module under ``<src_root>/repro``, dotted."""
    modules = []
    base = os.path.join(src_root, "repro")
    for directory, _dirs, files in os.walk(base):
        for name in files:
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(directory, name), src_root)
            dotted = rel[: -len(".py")].replace(os.sep, ".")
            if dotted.endswith(".__init__"):
                dotted = dotted[: -len(".__init__")]
            modules.append(dotted)
    return sorted(modules)


class CodeIndex:
    """Maps profiler code objects to ``(module, qualname)`` and a layer.

    Code under *bench_dir* (the benchmark itself) is charged to
    :data:`BENCH`, never to the ``repro`` layer that called back into it.
    """

    def __init__(self, src_root: str, bench_dir: Optional[str] = None) -> None:
        self._repro_dir = os.path.join(os.path.realpath(src_root), "repro") + os.sep
        self._bench_dir = (
            os.path.realpath(bench_dir) + os.sep if bench_dir is not None else None
        )
        self._cache: Dict[object, Tuple[str, str, Optional[str]]] = {}

    def describe(self, code: object) -> Tuple[str, str, Optional[str]]:
        """``(module, qualname, layer-or-None)`` for a profiler entry key."""
        hit = self._cache.get(code)
        if hit is not None:
            return hit
        if isinstance(code, str):  # a builtin, e.g. "<method 'get' of 'dict' objects>"
            result = ("builtins", re.sub(r" at 0x[0-9a-f]+", "", code), None)
        else:
            path = os.path.realpath(code.co_filename)
            qualname = getattr(code, "co_qualname", code.co_name)
            if path.startswith(self._repro_dir):
                rel = path[len(self._repro_dir) - len("repro") - 1 :]
                module = rel[: -len(".py")].replace(os.sep, ".")
                if module.endswith(".__init__"):
                    module = module[: -len(".__init__")]
                result = (module, qualname, MODULE_LAYER.get(module))
            else:
                module = os.path.splitext(os.path.basename(path))[0]
                own = self._bench_dir is not None and path.startswith(self._bench_dir)
                result = (module, qualname, BENCH if own else None)
        self._cache[code] = result
        return result


def _sort_key(code: object, index: CodeIndex) -> Tuple[str, str, int]:
    module, qualname, _layer = index.describe(code)
    return (module, qualname, getattr(code, "co_firstlineno", 0))


def aggregate(stats: Iterable, index: CodeIndex) -> Dict[str, object]:
    """Fold ``cProfile.Profile.getstats()`` entries into per-layer totals.

    Returns ``{"self_s": {layer: s}, "entries": {layer: n},
    "edges": {"a->b": n}, "calls": {(module, qualname): n},
    "setup_incl_s": s}``.  Entries count calls into a layer's function
    from a frame charged to another layer.  Frames outside ``repro`` take
    the layers of their callers, weighted by call count.
    """
    # A fixed processing order keeps the float sums identical run to run.
    stats = sorted(stats, key=lambda entry: _sort_key(entry.code, index))
    callers: Dict[object, List[Tuple[object, int]]] = {}
    for entry in stats:
        for sub in sorted(entry.calls or (), key=lambda sub: _sort_key(sub.code, index)):
            callers.setdefault(sub.code, []).append((entry.code, sub.callcount))

    resolved: Dict[object, Dict[str, float]] = {}

    def layer_vector(code: object, active: set) -> Dict[str, float]:
        hit = resolved.get(code)
        if hit is not None:
            return hit
        layer = index.describe(code)[2]
        if layer is not None:
            vector = {layer: 1.0}
        elif code in active or not callers.get(code):
            return {BENCH: 1.0}
        else:
            active.add(code)
            vector = {}
            total = 0
            for caller, count in callers[code]:
                for name, share in layer_vector(caller, active).items():
                    vector[name] = vector.get(name, 0.0) + share * count
                total += count
            active.discard(code)
            vector = {name: weight / total for name, weight in vector.items()}
        resolved[code] = vector
        return vector

    self_s: Dict[str, float] = {}
    entries: Dict[str, float] = {}
    edges: Dict[str, float] = {}
    calls: Dict[Tuple[str, str], int] = {}
    setup_incl = 0.0
    roots_self = 0.0
    for entry in stats:
        module, qualname, layer = index.describe(entry.code)
        calls[(module, qualname)] = calls.get((module, qualname), 0) + entry.callcount
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + entry.inlinetime
            if is_setup_builder(module, qualname):
                setup_incl += entry.totaltime
        elif not callers.get(entry.code):
            roots_self += entry.inlinetime
        for sub in sorted(entry.calls or (), key=lambda sub: _sort_key(sub.code, index)):
            callee_layer = index.describe(sub.code)[2]
            caller_vector = layer_vector(entry.code, set())
            if callee_layer is None:
                # A frame outside repro: its own time belongs to the caller.
                for name, share in caller_vector.items():
                    self_s[name] = self_s.get(name, 0.0) + sub.inlinetime * share
                continue
            if callee_layer == BENCH:
                continue
            for name, share in caller_vector.items():
                if name == callee_layer:
                    continue
                crossing = sub.callcount * share
                entries[callee_layer] = entries.get(callee_layer, 0.0) + crossing
                key = f"{name}->{callee_layer}"
                edges[key] = edges.get(key, 0.0) + crossing
    self_s[BENCH] = self_s.get(BENCH, 0.0) + roots_self
    return {
        "self_s": self_s,
        "entries": entries,
        "edges": edges,
        "calls": calls,
        "setup_incl_s": setup_incl,
    }


class SpanSampler:
    """Full layer spans for one op, from a Python-level profile hook.

    A span opens when a frame of one layer is entered from a frame charged
    to another and closes when that frame returns.  Each span records its
    layer, the function that crossed in, its parent span, and start/end in
    microseconds from the sample's start.  At most *limit* spans are kept.
    """

    def __init__(self, index: CodeIndex, limit: int = 50_000) -> None:
        self.index = index
        self.limit = limit
        self.spans: List[List[object]] = []
        self.truncated = 0
        self._stack: List[Tuple[object, int]] = []  # (frame, span index)
        self._t0 = 0.0

    def start(self) -> None:
        self._t0 = time.perf_counter()
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        now = self._now()
        for _frame, span in self._stack:
            self.spans[span][4] = now
        self._stack.clear()

    def _now(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def _hook(self, frame, event: str, _arg) -> None:
        if event == "call":
            module, qualname, layer = self.index.describe(frame.f_code)
            current = self.spans[self._stack[-1][1]][0] if self._stack else BENCH
            if layer is None or layer == current:
                return
            if len(self.spans) >= self.limit:
                self.truncated += 1
                return
            parent = self._stack[-1][1] if self._stack else -1
            self.spans.append([layer, f"{module}:{qualname}", parent, self._now(), None])
            self._stack.append((frame, len(self.spans) - 1))
        elif event == "return" and self._stack and self._stack[-1][0] is frame:
            _frame, span = self._stack.pop()
            self.spans[span][4] = self._now()

    def to_dict(self) -> Dict[str, object]:
        return {
            "fields": ["layer", "entered_at", "parent", "start_us", "end_us"],
            "truncated": self.truncated,
            "spans": self.spans,
        }
