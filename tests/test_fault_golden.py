"""Per-trial equivalence golden of the fault campaigns.

``tests/golden/fault_trials.json`` records, for every backend and the
``original`` negative control × both fault kinds × three detection
latencies over generated programs and two suite workloads, what each
planned trial did (see ``tests/golden/record_fault_trials.py``).  Every
cell is replayed here through the campaign driver
(:func:`repro.harness.incremental.run_campaign`), capturing each trial's
outcome at the driver's trial seam, and compared with the golden bit
for bit: injection, detection, bucket, region, detection gap, recovery
mark, instruction count, result and output.  Rows re-recorded after a
deliberate behaviour change are listed under ``"moved"`` in the golden.
"""

import json
from collections import defaultdict

import pytest

from repro.compiler import compile_minic
from repro.fuzz.generator import generate
from repro.harness import incremental
from repro.harness.incremental import run_campaign
from repro.recovery.backends import get_backend
from repro.sim.faults import CampaignResult, classify_outcome
from repro.sim.simulator import Simulator
from tests.golden.record_fault_trials import (
    GOLDEN_PATH,
    build_program,
    campaign_binary,
    cells,
    outcome_hash,
    unit_seed,
)


def _load():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


GOLDEN = _load()


@pytest.fixture(scope="module")
def replay():
    """cell -> (composed result, per-region results, index -> outcome)."""
    captured = {}
    original = incremental.run_planned_trial

    def recording(program, seed, index, span, **kwargs):
        outcome = original(program, seed, index, span, **kwargs)
        captured[index] = outcome
        return outcome

    runs = {}
    builds = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incremental, "run_planned_trial", recording)
        for name, label, kind, latency, trials in cells():
            if name not in builds:
                original_program, idempotent, entry = build_program(name)
                sim = Simulator(idempotent)
                reference = sim.run(entry)
                builds[name] = (original_program, idempotent, entry,
                                reference, list(sim.output))
            original_program, idempotent, entry, reference, output = (
                builds[name]
            )
            program, factory = campaign_binary(
                label, original_program, idempotent
            )
            captured.clear()
            per_region = {}
            result = run_campaign(
                program, reference, output, trials=trials, func=entry,
                kind=kind, seed=unit_seed(name, label, kind),
                detection_latency=latency, injector_factory=factory,
                per_region=per_region,
            ).result
            trial_outcomes = {
                index: (outcome, classify_outcome(outcome, reference, output))
                for index, outcome in captured.items()
            }
            runs[(name, label, kind, latency)] = (
                result, per_region, trial_outcomes,
            )
    return runs


def test_golden_covers_the_grid():
    cell_keys = {cell[:4] for cell in cells()}
    assert {tuple(row[:4]) for row in GOLDEN["rows"]} == cell_keys
    labels = {key[1] for key in cell_keys}
    assert labels == {"idempotent", "checkpoint_log", "tmr", "original"}
    for label in labels:
        assert {(k[2], k[3]) for k in cell_keys if k[1] == label} == {
            (kind, latency)
            for kind in ("value", "control") for latency in (0, 4, 40)
        }


def test_every_row_replays_bit_for_bit(replay):
    mismatches = []
    for row in GOLDEN["rows"]:
        name, label, kind, latency, index, injected = row[:6]
        _result, _regions, trials = replay[(name, label, kind, latency)]
        if not injected:
            # The driver never runs a trial that lands past every site.
            if index in trials:
                mismatches.append((row, "ran an uninjected trial"))
            continue
        outcome, replayed_bucket = trials[index]
        got = [
            name, label, kind, latency, index, outcome.injected,
            outcome.detected, replayed_bucket, outcome.region,
            outcome.detect_gap, outcome.recovery_instructions,
            outcome.instructions,
            outcome_hash(outcome.result, outcome.output),
        ]
        if got != row:
            mismatches.append((row, got))
    assert not mismatches, mismatches[:5]


def test_composed_buckets_are_the_rows(replay):
    expected = defaultdict(CampaignResult)
    expected_regions = defaultdict(lambda: defaultdict(CampaignResult))
    for row in GOLDEN["rows"]:
        cell, (injected, detected, bucket, region) = tuple(row[:4]), row[5:9]
        subs = [expected[cell]]
        if injected:
            subs.append(expected_regions[cell][region])
        for sub in subs:
            sub.trials += 1
            if injected:
                sub.injected += 1
                sub.detected += detected
                setattr(sub, bucket, getattr(sub, bucket) + 1)
    for cell, (result, per_region, _trials) in replay.items():
        assert result == expected[cell], cell
        assert per_region == dict(expected_regions[cell]), cell


def test_only_checkpoint_log_rows_moved():
    """Rows re-recorded after the checkpoint-and-log fix.  At latency 0
    every one was lost to a wrong result and is now recovered; under
    longer latencies a checkpoint may be taken while the fault is still
    latent, so rows there move either way."""
    moved = GOLDEN.get("moved", [])
    assert any(row[3] == 0 for row in moved)
    for name, label, kind, latency, index, before, after in moved:
        assert label == "checkpoint_log"
        if latency == 0:
            assert (before, after) == ("wrong_result", "recovered_correctly")


def test_checkpoint_log_latency0_regression():
    """Generator seed 0, control faults, unit seed 0, 2 trials: a
    checkpoint taken at a check point used to log the stores committing
    there, so a restore rolled back stores that are never replayed."""
    source = generate(0).source
    original = compile_minic(source, idempotent=False).program
    idempotent = compile_minic(source, idempotent=True).program
    sim = Simulator(idempotent)
    reference = sim.run("main")
    result = get_backend("checkpoint_log").campaign(
        original, idempotent, reference, list(sim.output),
        trials=2, kind="control", seed=0,
    )
    assert result.injected == 2
    assert result.recovered_correctly == 2
    assert result.wrong_result == 0
