"""`repro recovery compare`: predicted vs measured outcomes per backend.

For each workload × backend the driver runs the standard fault campaign
(same spawn-key seed derivation as `repro campaign`, so the idempotent
rows here are bit-identical to campaign units at the same parameters),
profiles the campaign binary fault-free to build region features, and
holds the static predictor of :mod:`repro.recovery.predict` to the
measured per-region recovery rates. Regions whose disagreement exceeds
the threshold are flagged; ``--hunt`` searches fuzz-generated programs
for the worst program-level divergence and feeds the fuzz reducer a
minimized reproducer.

The result feeds ``BENCH_recovery.json`` (schema
``repro.recovery.bench/1``, see :mod:`repro.bench.recovery`) — overhead
and bucket totals per backend plus the predictor's mean absolute error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import compile_minic
from repro.harness.executor import derive_seed
from repro.recovery.backends import BACKEND_NAMES, get_backend
from repro.recovery.checkpoint import mean_checkpoint_words, module_checkpoint_plans
from repro.recovery.predict import (
    OutcomePrediction,
    RegionComparison,
    compare_predictions,
    mean_absolute_error,
    predict_outcomes,
    profile_regions,
)
from repro.sim.faults import FAULT_VALUE, CampaignResult, format_rate

DEFAULT_TRIALS = 24
DEFAULT_THRESHOLD = 0.25


@dataclass
class BackendReport:
    """One workload under one backend: price, buckets, prediction."""

    backend: str
    overhead: float
    campaign: CampaignResult
    prediction: OutcomePrediction
    regions: List[RegionComparison] = field(default_factory=list)

    @property
    def measured_rate(self) -> Optional[float]:
        if not self.campaign.injected:
            return None
        return self.campaign.recovery_rate

    @property
    def mae(self) -> Optional[float]:
        return mean_absolute_error(self.regions)


@dataclass
class WorkloadReport:
    workload: str
    checkpoint_words: float  # mean live words per static checkpoint
    checkpoint_boundaries: int
    backends: List[BackendReport] = field(default_factory=list)


@dataclass
class CompareReport:
    workloads: List[WorkloadReport]
    backends: Tuple[str, ...]
    trials: int
    seed: int
    kind: str
    latency: int
    threshold: float

    def region_rows(self) -> List[Tuple[str, str, RegionComparison]]:
        return [
            (wl.workload, backend.backend, row)
            for wl in self.workloads
            for backend in wl.backends
            for row in backend.regions
        ]

    def flagged(self) -> List[Tuple[str, str, RegionComparison]]:
        return [
            (name, backend, row)
            for name, backend, row in self.region_rows()
            if row.error > self.threshold
        ]

    @property
    def mae(self) -> Optional[float]:
        return mean_absolute_error(
            [row for _name, _backend, row in self.region_rows()]
        )


def parse_backend_names(names: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """Validate a backend subset; unknown names list the valid choices."""
    from repro.harness.campaign import parse_label_subset

    return (
        parse_label_subset(names, BACKEND_NAMES, "recovery backend")
        or BACKEND_NAMES
    )


def _predict_and_measure(
    backend,
    original_program,
    idempotent_program,
    reference: object,
    reference_output: List[object],
    entry: str,
    trials: int,
    seed: int,
    kind: str,
    latency: int,
    store=None,
    name: str = "adhoc",
) -> Tuple[OutcomePrediction, CampaignResult, Dict[str, CampaignResult]]:
    """One backend on one program: static prediction, measured campaign
    and its per-region buckets (the campaign optionally store-backed)."""
    from repro.harness.incremental import run_campaign

    program = backend.campaign_program(original_program, idempotent_program)
    profiles, _result, _sim = profile_regions(program, func=entry)
    prediction = predict_outcomes(
        profiles, backend.name, latency=latency, kind=kind,
        interval=getattr(backend, "interval", 8),
    )
    per_region: Dict[str, CampaignResult] = {}
    campaign = run_campaign(
        program, reference, reference_output, trials=trials, func=entry,
        kind=kind, seed=seed, detection_latency=latency,
        injector_factory=backend.make_injector, per_region=per_region,
        store=store, name=name, label=backend.name,
    ).result
    return prediction, campaign, per_region


def compare_workload(
    name: str,
    backends: Sequence[str] = BACKEND_NAMES,
    trials: int = DEFAULT_TRIALS,
    seed: int = 12345,
    kind: str = FAULT_VALUE,
    latency: int = 0,
    use_store: bool = False,
) -> WorkloadReport:
    """Run every backend's campaign + prediction for one workload.

    With ``use_store`` the campaign driver
    (:func:`repro.harness.incremental.run_campaign`) composes previously
    stored section outcomes from the content-addressed outcome store and
    injects only missing sections; results and the per-region join are
    bit-identical to the store-less run at equal budgets.
    """
    from repro.experiments.common import build_pair
    from repro.harness.campaign import reference_run
    from repro.harness.incremental import default_store
    from repro.workloads import get_workload

    workload = get_workload(name)
    original, idempotent = build_pair(name)
    reference, reference_output = reference_run(
        idempotent.program, name, workload.entry
    )

    plans = module_checkpoint_plans(idempotent.module)
    report = WorkloadReport(
        workload=name,
        checkpoint_words=mean_checkpoint_words(plans),
        checkpoint_boundaries=sum(p.boundaries for p in plans.values()),
    )
    store = default_store() if use_store else None
    for backend_name in backends:
        backend = get_backend(backend_name)
        prediction, campaign, per_region = _predict_and_measure(
            backend, original.program, idempotent.program, reference,
            reference_output, workload.entry, trials=trials,
            seed=derive_seed(seed, name, backend.seed_key), kind=kind,
            latency=latency, store=store, name=name,
        )
        report.backends.append(
            BackendReport(
                backend=backend_name,
                overhead=backend.overhead(original.program, idempotent.program,
                                          func=workload.entry),
                campaign=campaign,
                prediction=prediction,
                regions=compare_predictions(prediction, per_region),
            )
        )
    return report


def run_compare(
    names: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 12345,
    kind: str = FAULT_VALUE,
    latency: int = 0,
    threshold: float = DEFAULT_THRESHOLD,
    use_store: bool = False,
) -> CompareReport:
    """The full predicted-vs-measured sweep (default: every workload)."""
    from repro.experiments.common import resolve_workloads

    backend_names = parse_backend_names(backends)
    workloads = resolve_workloads(names)
    return CompareReport(
        workloads=[
            compare_workload(
                workload.name, backend_names, trials=trials, seed=seed,
                kind=kind, latency=latency, use_store=use_store,
            )
            for workload in workloads
        ],
        backends=backend_names,
        trials=trials,
        seed=seed,
        kind=kind,
        latency=latency,
        threshold=threshold,
    )


def format_compare_report(report: CompareReport) -> str:
    """Human-readable tables: overhead-vs-recovery, regions, verdict."""
    from repro.experiments.common import format_table

    lines = [
        "recovery zoo: predicted vs measured outcomes "
        f"(kind={report.kind}, trials={report.trials}/backend, "
        f"seed={report.seed}, latency={report.latency})",
        "",
    ]
    rows = []
    for wl in report.workloads:
        for backend in wl.backends:
            predicted = backend.prediction.p_recovered
            measured = backend.measured_rate
            rows.append([
                wl.workload,
                backend.backend,
                f"{backend.overhead:+.1%}",
                backend.campaign.injected,
                backend.campaign.recovered_correctly,
                backend.campaign.wrong_result,
                backend.campaign.crashed,
                backend.campaign.undetected,
                format_rate(backend.campaign),
                f"{predicted:.0%}",
                "n/a" if measured is None else f"{abs(predicted - measured):.2f}",
            ])
    lines.append(format_table(
        ["workload", "backend", "overhead", "injected", "recovered",
         "wrong", "crashed", "undetected", "measured", "predicted", "|err|"],
        rows,
    ))

    region_rows = report.region_rows()
    if region_rows:
        lines.append("")
        lines.append("per-region (regions that received injections):")
        lines.append(format_table(
            ["workload", "backend", "region", "injected",
             "measured", "predicted", "|err|"],
            [
                [name, backend, row.key, row.injected,
                 f"{row.measured:.0%}", f"{row.predicted:.0%}",
                 f"{row.error:.2f}"]
                for name, backend, row in region_rows
            ],
        ))

    lines.append("")
    lines.append("static checkpoint sets (idempotent build live-ins):")
    lines.append(format_table(
        ["workload", "boundaries", "mean words/checkpoint"],
        [
            [wl.workload, wl.checkpoint_boundaries, f"{wl.checkpoint_words:.1f}"]
            for wl in report.workloads
        ],
    ))

    flagged = report.flagged()
    mae = report.mae
    lines.append("")
    if mae is None:
        lines.append("predictor MAE: n/a (no injected regions)")
    else:
        lines.append(
            f"predictor MAE: {mae:.3f} over {len(region_rows)} region samples "
            f"({len(flagged)} exceeding threshold {report.threshold:.2f})"
        )
    for name, backend, row in flagged:
        lines.append(
            f"  FLAGGED {name}/{backend} {row.key}: "
            f"predicted {row.predicted:.0%} vs measured {row.measured:.0%}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Divergence hunting: fuzz programs where the predictor is most wrong
# ----------------------------------------------------------------------

def measure_divergence(
    source: str,
    backend_name: str = "idempotent",
    trials: int = 16,
    seed: int = 12345,
    kind: str = FAULT_VALUE,
    latency: int = 4,
) -> float:
    """Program-level |predicted − measured| recovery rate on one source.

    Returns 0.0 when the campaign injects nothing (no divergence
    evidence either way).
    """
    from repro.harness.campaign import reference_run

    original = compile_minic(source, idempotent=False)
    idempotent = compile_minic(source, idempotent=True)
    reference, reference_output = reference_run(
        idempotent.program, "divergence", "main"
    )

    prediction, campaign, _regions = _predict_and_measure(
        get_backend(backend_name), original.program, idempotent.program,
        reference, reference_output, "main", trials=trials, seed=seed,
        kind=kind, latency=latency,
    )
    if not campaign.injected:
        return 0.0
    return abs(prediction.p_recovered - campaign.recovery_rate)


@dataclass
class HuntResult:
    """Worst predictor divergence found over fuzz-generated programs."""

    programs: int
    worst_seed: Optional[int] = None
    worst_divergence: float = 0.0
    reduced_source: Optional[str] = None
    reduced_path: Optional[str] = None
    reduce_steps: int = 0


def hunt_divergence(
    count: int,
    hunt_seed: int = 0,
    backend_name: str = "idempotent",
    trials: int = 16,
    kind: str = FAULT_VALUE,
    latency: int = 4,
    threshold: float = DEFAULT_THRESHOLD,
    out_dir: Optional[str] = None,
) -> HuntResult:
    """Scan ``count`` generated programs; minimize the worst divergence.

    Programs come from the fuzz generator's seed derivation
    (``generate(trial_seed(hunt_seed, i))``), so the scan is fully
    reproducible. If the worst divergence reaches ``threshold`` the
    program is handed to the fuzz reducer with a
    divergence-at-least-threshold predicate, and the minimized source is
    written to ``out_dir`` with a provenance header.
    """
    import os

    from repro.fuzz.generator import generate, render, trial_seed
    from repro.fuzz.reduce import reduce_spec

    result = HuntResult(programs=count)
    worst_program = None
    for index in range(count):
        program = generate(trial_seed(hunt_seed, index))
        divergence = measure_divergence(
            program.source, backend_name, trials=trials,
            kind=kind, latency=latency,
        )
        if worst_program is None or divergence > result.worst_divergence:
            result.worst_divergence = divergence
            result.worst_seed = program.seed
            worst_program = program

    if worst_program is None or result.worst_divergence < threshold:
        return result

    def predicate(source: str) -> bool:
        return measure_divergence(
            source, backend_name, trials=trials, kind=kind, latency=latency,
        ) >= threshold

    reduced = reduce_spec(worst_program.spec, predicate)
    result.reduced_source = reduced.source
    result.reduce_steps = reduced.steps
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(
            out_dir, f"divergence-{backend_name}-s{result.worst_seed}.c"
        )
        header = (
            f"// predictor divergence reproducer (backend={backend_name})\n"
            f"// hunt_seed={hunt_seed} gen_seed={result.worst_seed} "
            f"trials={trials} kind={kind} latency={latency}\n"
            f"// divergence={result.worst_divergence:.3f} "
            f"threshold={threshold:.2f} reduce_steps={reduced.steps}\n"
        )
        with open(path, "w") as handle:
            handle.write(header + reduced.source)
        result.reduced_path = path
    return result


def bench_payload(
    report: CompareReport,
    label: str = "recovery",
    version: str = "",
) -> dict:
    """Assemble the ``repro.recovery.bench/1`` payload for a report."""
    from repro.bench.recovery import recovery_bench_payload

    backends = []
    for backend_name in report.backends:
        total = CampaignResult()
        overheads: List[float] = []
        predicted: List[float] = []
        maes: List[float] = []
        for wl in report.workloads:
            for row in wl.backends:
                if row.backend != backend_name:
                    continue
                total.merge(row.campaign)
                overheads.append(row.overhead)
                predicted.append(row.prediction.p_recovered)
                if row.mae is not None:
                    maes.append(row.mae)
        geomean = (
            math.exp(sum(math.log1p(o) for o in overheads) / len(overheads)) - 1.0
            if overheads else 0.0
        )
        backends.append({
            "name": backend_name,
            "overhead": geomean,
            "trials": total.trials,
            "injected": total.injected,
            "recovered": total.recovered_correctly,
            "wrong": total.wrong_result,
            "crashed": total.crashed,
            "undetected": total.undetected,
            "measured_rate": (
                None if not total.injected else total.recovery_rate
            ),
            "predicted_rate": (
                sum(predicted) / len(predicted) if predicted else 0.0
            ),
            "mae": sum(maes) / len(maes) if maes else None,
        })
    region_rows = report.region_rows()
    return recovery_bench_payload(
        label=label,
        version=version,
        seed=report.seed,
        trials=report.trials,
        latency=report.latency,
        kind=report.kind,
        threshold=report.threshold,
        workloads=[wl.workload for wl in report.workloads],
        backends=backends,
        predictor={
            "mae": report.mae,
            "regions": len(region_rows),
            "flagged": len(report.flagged()),
            "threshold": report.threshold,
        },
    )
