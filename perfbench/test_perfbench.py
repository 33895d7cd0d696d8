"""The benchmark's own checks: layer-map coverage and determinism.

Run from the repository root with ``python3 -m pytest perfbench``.  The
determinism check runs each workload at a small size in fresh interpreters
under two ``PYTHONHASHSEED`` values, traced and untraced, and requires the
per-layer counts and the simulated outputs to agree exactly.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from layers import LAYERS, MODULE_LAYER, list_modules  # noqa: E402

#: Small instances of each workload, built inside the child interpreter.
SMALL = {
    "table1_fleet": "Table1Fleet(7, specs=VENDOR_SPECS[4:6])",
    "robustness_quick": 'RobustnessQuick(7, families=("port-prediction",))',
    "p2p_sessions": "P2PSessions(7, sessions=6)",
}

CHILD = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
from run import timed_run, traced_run
from workloads import P2PSessions, RobustnessQuick, Table1Fleet, VENDOR_SPECS
untraced = {build}
rec, _ = timed_run(untraced, 0.0, 0.0)
traced = {build}
trec, metrics, report = traced_run(traced, 0.0, 7)
counts = {{
    name: entry["value"]
    for name, entry in metrics.items()
    if entry["unit"] == "count/op" or name.endswith("_share")
}}
print(json.dumps({{
    "failed": rec.failed + trec.failed,
    "errors": rec.errors + trec.errors,
    "untraced_sim": untraced.sim,
    "traced_sim": traced.sim,
    "counts": counts,
}}))
"""


def run_child(workload: str, hash_seed: str) -> dict:
    code = CHILD.format(here=HERE, src=SRC, build=SMALL[workload])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_module_maps_to_exactly_one_layer():
    listed = [module for modules in LAYERS.values() for module in modules]
    duplicates = sorted({m for m in listed if listed.count(m) > 1})
    assert not duplicates, f"modules in more than one layer: {duplicates}"
    unmapped = sorted(set(list_modules(SRC)) - set(MODULE_LAYER))
    assert not unmapped, f"modules in no layer: {unmapped}"
    stale = sorted(set(MODULE_LAYER) - set(list_modules(SRC)))
    assert not stale, f"layer map names missing modules: {stale}"


def check_deterministic(workload: str) -> None:
    first = run_child(workload, "0")
    second = run_child(workload, "1")
    for result in (first, second):
        assert result["failed"] == 0, result["errors"]
        assert result["untraced_sim"] == result["traced_sim"]
    assert first["untraced_sim"] == second["untraced_sim"]
    assert first["counts"] == second["counts"]
    assert first["counts"]["setup.networks"] == 1.0


def test_fleet_is_deterministic():
    check_deterministic("table1_fleet")


def test_robustness_is_deterministic():
    check_deterministic("robustness_quick")


def test_sessions_are_deterministic():
    check_deterministic("p2p_sessions")
