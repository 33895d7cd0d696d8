#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1_fleet --seed 7 --seconds 30 --trace 0

``--trace 0`` times whole passes of the workload for at least ``--seconds``
host seconds and reports the end-to-end metrics.  ``--trace 1`` runs one
untimed reference pass, a span sample of one op, and profiled passes for at
least ``--seconds``, and reports the per-layer metrics; the full breakdown
(layers, caller->callee edges, hottest functions, sampled spans) is written
to ``perfbench/out/``.  Every run checks the program's outputs; the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("table1_fleet", "robustness_quick", "p2p_sessions")

#: Fresh-process set-ups per run; ``setup_s`` is the fastest of them.
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: import + build inputs, then exit
    )
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Fastest host seconds from process spawn to 'inputs ready'.

    Each probe is a fresh interpreter that imports the program, builds the
    workload's inputs from the seed and reports readiness, so the figure
    covers interpreter start, imports and input generation.  Like the other
    host-time metrics it takes the fastest repeat: the slower ones measure
    the machine's other load (their CPU time rises with their wall time).
    """
    samples = []
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - started
            probe.stdout.read()
            code = probe.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        samples.append(elapsed)
    return min(samples)


class GcWatch:
    """Counts collections and their pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, _info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self)


def next_packet_id() -> int:
    """The id the next packet will get, read without drawing it.

    Every packet construction path, including the ones inlined into the NAT
    and UDP hot paths, draws its id from this one counter.
    """
    from repro.netsim import packet

    return int(repr(packet._packet_ids)[len("count(") : -1])


class _SampleDone(Exception):
    """Raised at the first op boundary to end a span sample."""


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_passes(workload, rec, seconds: float) -> None:
    """Whole passes until at least *seconds* have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    while True:
        rec.start_pass()
        workload.run_pass(rec)
        if time.perf_counter() >= deadline:
            break


def timed_run(workload, seconds: float, setup_s: float):
    """End-to-end metrics from untraced passes lasting at least *seconds*.

    Host-time metrics use each op's fastest time over the run's passes
    (``Recorder.best``): every pass repeats the same simulated work, and on
    a shared machine the slower repeats measure the neighbours' load.
    """
    from workloads import P2PSessions, Recorder, quantile

    rec = Recorder()
    run_passes(workload, rec, seconds)
    best_ms = [s * 1000.0 for s in rec.best]
    busy = sum(rec.best)
    if isinstance(workload, P2PSessions):
        payload = sum(workload.payload.values()) / sum(workload.best_transfer.values())
    else:
        payload = rec.payload_bytes / rec.passes / busy
    attempted = len(rec.op_seconds)
    failed = min(rec.failed, attempted)
    sim = workload.sim or {}
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(best_ms) / busy, "ops/s"),
        "op_p50_ms": metric(quantile(best_ms, 0.50), "ms"),
        "op_p95_ms": metric(quantile(best_ms, 0.95), "ms"),
        "payload_mb_per_s": metric(payload / 1e6, "MB/s"),
        "success_rate": metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "sim_connect_p50_ms": metric(sim.get("sim_connect_p50_ms"), "sim_ms"),
        "sim_connect_p95_ms": metric(sim.get("sim_connect_p95_ms"), "sim_ms"),
        "direct_share": metric(sim.get("direct_share"), "ratio"),
    }
    return rec, metrics


def sample_spans(workload, index):
    """Full layer spans of the workload's first op (a bounded sample)."""
    from layers import SpanSampler
    from workloads import Recorder

    sampler = SpanSampler(index)

    class OneOp(Recorder):
        def begin(self) -> None:
            super().begin()
            sampler.start()

        def end(self) -> float:
            sampler.stop()
            raise _SampleDone

    try:
        workload.run_pass(OneOp())
    except _SampleDone:
        pass
    finally:
        sys.setprofile(None)
    return sampler.to_dict()


def traced_run(workload, seconds: float, seed: int):
    """Per-layer metrics: a reference pass, a span sample, profiled passes."""
    from layers import CALL_COUNTS, LAYERS, CodeIndex, aggregate
    from repro.netsim.packet import PACKET_POOL
    from workloads import Recorder

    reference = Recorder()
    with GcWatch() as gc_watch:
        run_passes(workload, reference, 0.0)
    index = CodeIndex(SRC, bench_dir=HERE)
    spans = sample_spans(workload, index)

    profiler = cProfile.Profile()
    rec = Recorder(profiler, count_networks=True)
    released, free, first_id = PACKET_POOL.released, PACKET_POOL.free, next_packet_id()
    run_passes(workload, rec, seconds)
    allocs = next_packet_id() - first_id
    reused = (PACKET_POOL.released - released) - (PACKET_POOL.free - free)
    profile = aggregate(profiler.getstats(), index)

    ops = len(rec.op_seconds)
    ref_ops = len(reference.op_seconds)
    calls = {
        name: sum(profile["calls"].get(key, 0) for key in keys)
        for name, keys in CALL_COUNTS.items()
    }
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.entries"] = metric(profile["entries"].get(layer, 0.0) / ops, "count/op")
        metrics[f"{layer}.self_us_per_op"] = metric(
            profile["self_s"].get(layer, 0.0) * 1e6 / ops, "us"
        )
    for name, count in calls.items():
        if name != "netsim.link.slow_path":
            metrics[name] = metric(count / ops, "count/op")
    transmits = calls["netsim.link.transmits"]
    metrics["netsim.link.slow_path_share"] = metric(
        calls["netsim.link.slow_path"] / transmits if transmits else 0.0, "ratio"
    )
    metrics["netsim.packet.allocs"] = metric(allocs / ops, "count/op")
    metrics["netsim.packet.pool_reuse_share"] = metric(
        reused / allocs if allocs else 0.0, "ratio"
    )
    for name, total in rec.network_totals.items():
        metrics[name] = metric(total / ops, "count/op")
    metrics["setup.incl_us_per_op"] = metric(profile["setup_incl_s"] * 1e6 / ops, "us")
    metrics["runtime.gc_collections"] = metric(gc_watch.collections / ref_ops, "count/op")
    metrics["runtime.gc_pause_ms"] = metric(gc_watch.pause_s * 1000.0 / ref_ops, "ms")
    metrics["trace.overhead_ratio"] = metric(
        (sum(rec.op_seconds) / ops) / (sum(reference.op_seconds) / ref_ops), "ratio"
    )

    hottest = sorted(profile["calls"].items(), key=lambda item: -item[1])[:40]
    report = {
        "workload": workload.name,
        "seed": seed,
        "ops": ops,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "self_us_per_op": {k: v * 1e6 / ops for k, v in sorted(profile["self_s"].items())},
        "edges_per_op": {k: v / ops for k, v in sorted(profile["edges"].items())},
        "hottest_calls_per_op": [[f"{m}:{q}", n / ops] for (m, q), n in hottest],
        "sim": workload.sim,
        "span_sample": spans,
    }
    rec.failed += reference.failed
    rec.errors += reference.errors
    return rec, metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    setup_s = measure_setup(args) if not args.trace else None
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        rec, metrics, report = traced_run(workload, args.seconds, args.seed)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace.json")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=1)
        print(f"trace written to {os.path.relpath(path, ROOT)}")
    else:
        rec, metrics = timed_run(workload, args.seconds, setup_s)
    attempted = len(rec.op_seconds)
    failed = min(rec.failed, attempted)
    for error in rec.errors:
        print(f"check failed: {error}")
    for name, entry in metrics.items():
        print(f"{args.workload} {name} = {entry['value']} {entry['unit']}")
    correct = failed == 0 and all(
        entry["value"] is not None for entry in metrics.values()
    )
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
