"""Record the per-trial fault-campaign golden (``fault_trials.json``).

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/record_fault_trials.py [--only LABEL]

Every program of :data:`PROGRAMS` is campaigned under every label of
:data:`LABELS` (the three recovery backends plus the ``original`` binary
under the idempotence injector, the negative control), both fault kinds
and every latency of :data:`LATENCIES`.  One row per planned trial
records what the trial did: whether it injected and was detected, its
bucket, landing
region, detection gap, recovery mark, dynamic instruction count and a
hash of its result and output.  ``tests/test_fault_golden.py`` replays
every row through the campaign driver and compares it bit for bit.

``--only LABEL`` re-records the rows of one label, keeps the rest, and
lists every re-recorded row whose outcome changed under ``"moved"``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from repro.compiler import compile_minic
from repro.experiments.common import build_pair
from repro.fuzz.generator import generate
from repro.harness.executor import derive_seed
from repro.harness.incremental import trace_eligibility
from repro.recovery.backends import get_backend
from repro.sim.faults import FaultInjector, classify_outcome, run_planned_trial
from repro.sim.simulator import Simulator
from repro.workloads import get_workload

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fault_trials.json")
SCHEMA = "repro.fault-golden/1"

#: Recovery backends, then the non-idempotent binary under rp recovery.
LABELS = ("idempotent", "checkpoint_log", "tmr", "original")
KINDS = ("value", "control")
LATENCIES = (0, 4, 40)
#: Generated programs (fuzz generator seeds): the full grid, a few trials.
FUZZ_SEEDS = tuple(range(16))
FUZZ_TRIALS = 3
#: The two smallest suite workloads, one trial per grid cell they cover.
SUITE_CELLS = (
    ("blackscholes", "checkpoint_log", "control", 0),
    ("blackscholes", "tmr", "value", 40),
    ("bzip2", "idempotent", "value", 4),
    ("bzip2", "original", "control", 4),
)
SUITE_TRIALS = 1
COLUMNS = ["program", "label", "kind", "latency", "index", "injected",
           "detected", "bucket", "region", "detect_gap", "recovery_instructions",
           "instructions", "hash"]


def outcome_hash(result, output) -> str:
    """Short digest of a trial's result and program output."""
    text = repr((result, list(output)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def unit_seed(program: str, label: str, kind: str) -> int:
    return derive_seed(2012, program, label, kind)


def build_program(name: str):
    if name.startswith("gen"):
        source = generate(int(name[3:])).source
        return (compile_minic(source, idempotent=False).program,
                compile_minic(source, idempotent=True).program, "main")
    original, idempotent = build_pair(name)
    return original.program, idempotent.program, get_workload(name).entry


def campaign_binary(label: str, original, idempotent):
    if label == "original":
        return original, FaultInjector
    backend = get_backend(label)
    return (backend.campaign_program(original, idempotent),
            backend.make_injector)


def cells():
    """(program, label, kind, latency, trials) of every recorded cell."""
    for seed in FUZZ_SEEDS:
        for label in LABELS:
            for kind in KINDS:
                for latency in LATENCIES:
                    yield f"gen{seed}", label, kind, latency, FUZZ_TRIALS
    for name, label, kind, latency in SUITE_CELLS:
        yield name, label, kind, latency, SUITE_TRIALS


def record(only=None):
    rows = []
    builds = {}
    for name, label, kind, latency, trials in cells():
        if only is not None and label != only:
            continue
        if name not in builds:
            original, idempotent, entry = build_program(name)
            sim = Simulator(idempotent)
            reference = sim.run(entry)
            builds[name] = (original, idempotent, entry, reference,
                            list(sim.output))
        original, idempotent, entry, reference, output = builds[name]
        program, factory = campaign_binary(label, original, idempotent)
        span = trace_eligibility(program, func=entry).span
        seed = unit_seed(name, label, kind)
        for index in range(trials):
            outcome = run_planned_trial(
                program, seed, index, span, func=entry, kind=kind,
                detection_latency=latency, injector_factory=factory,
            )
            bucket = classify_outcome(outcome, reference, output)
            rows.append([
                name, label, kind, latency, index,
                bool(outcome.injected), bool(outcome.detected), bucket,
                outcome.region,
                outcome.detect_gap, outcome.recovery_instructions,
                outcome.instructions,
                outcome_hash(outcome.result, outcome.output),
            ])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=LABELS, default=None)
    args = parser.parse_args(argv)
    rows = record(args.only)
    moved = []
    if args.only is not None:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            previous = json.load(handle)
        moved = previous.get("moved", [])
        before = {tuple(row[:5]): row for row in previous["rows"]}
        for row in rows:
            old = before[tuple(row[:5])]
            if old != row:
                moved.append(row[:5] + [old[7], row[7]])
        rows = [row for row in previous["rows"]
                if row[1] != args.only] + rows
        order = {cell[:4]: i for i, cell in enumerate(cells())}
        rows.sort(key=lambda row: (order[tuple(row[:4])], row[4]))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write('{"schema": %s,\n "columns": %s,\n' % (
            json.dumps(SCHEMA), json.dumps(COLUMNS)))
        # Rows re-recorded after a deliberate behaviour change, with the
        # bucket before and after it.
        handle.write(' "moved": [%s],\n "rows": [\n' % ",\n  ".join(
            json.dumps(row) for row in moved))
        handle.write(",\n".join("  " + json.dumps(row) for row in rows))
        handle.write("\n ]}\n")
    print(f"{len(rows)} rows -> {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
