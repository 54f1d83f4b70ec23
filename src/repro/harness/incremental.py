"""The campaign driver, and incremental compositional campaigns (FastFlip-style).

Every fault campaign of one program runs through :func:`run_campaign`:
one traced fault-free run → :func:`assign_trials` over the requested
trial indices → :func:`run_section_trials` per landing region → compose.
The constructed idempotent regions are the natural program *sections*:
with an outcome store, per-trial outcomes of each section persist in a
content-addressed store under ``.repro-cache/outcomes/``, and a later
campaign composes stored sections instead of re-injecting them, into
:class:`~repro.sim.faults.CampaignResult` rows bit-identical to a
store-less run at the same seeds and budgets.  Without a store the same
steps run every trial.  :func:`run_incremental_fault_campaign` reuses
the steps with sections distributed as work units over the
:class:`~repro.harness.campaign.CampaignRunner` stack.

How bit-identity is preserved
-----------------------------
Trial ``i``'s fault plan is a pure function of ``(seed, i, span)``
(:func:`repro.sim.faults.trial_plan`), and the faulted run's dynamic
prefix is identical to the fault-free run up to the injection point.  So
the fault sites of one fault-free run
(:func:`repro.sim.faults.trace_eligibility`, which applies the same
site rule the injector arms on) predict where every trial lands without
running it.  Sections then execute exactly their assigned trial indices
through :func:`repro.sim.faults.run_planned_trial`, and the composed
buckets match trial for trial, however the index range is split.

Section keys and staleness
--------------------------
A section's store key hashes ``(store schema, PIPELINE_VERSION,
workload, entry, label, kind, latency, unit seed, region key, owning
function's machine-code fingerprint)``.  The fingerprint is the SHA-256
of the function's formatted machine code — a *stable* content checksum
(the process-seeded :func:`repro.ir.verifier.cfg_checksum` cannot key a
persistent store).  Editing one function changes only its sections'
keys, so a re-campaign after a localized edit re-injects only that
function's sections; everything else composes from the store.  A
``--explain-stale`` report classifies every re-injected section
(new-section, code-changed, pipeline-changed, evicted, top-up) from a
small identity index kept next to the objects.

Store safety mirrors :mod:`repro.harness.cache`: atomic
write-temp-then-rename publication, corruption-is-a-miss (the entry is
deleted and the section re-injected), and hit/miss/store counters on the
``repro.obs`` registry (``campaign.store.*`` labeled ``store=<root>``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.machine import MachineProgram, format_machine_function
from repro.harness.cache import DEFAULT_CACHE_DIR, PIPELINE_VERSION
from repro.harness.campaign import (
    FaultCampaignSummary,
    campaign_target,
    campaign_targets,
    run_units,
    unit_inputs,
)
from repro.harness.executor import derive_seed
from repro.harness.report import Telemetry
from repro.harness.resilience import PermanentUnitError
from repro.obs.context import get_observer
from repro.sim.faults import (
    FAULT_VALUE,
    REGION_UNKNOWN,
    CampaignResult,
    EligibilityTrace,
    _publish_campaign_metrics,
    classify_outcome,
    run_planned_trial,
    trace_eligibility,
    trial_plan,
)

#: Schema tag of outcome-store records; mixed into every section key, so
#: bumping it invalidates the whole store (a layout change is a miss).
STORE_SCHEMA = "repro.outcomes/1"

#: Section statuses reported by the planner.
SECTION_CACHED = "cached"   # every needed trial composed from the store
SECTION_TOPUP = "topup"     # record found, but short of the budget
SECTION_NEW = "new"         # no usable record: full re-injection


# ----------------------------------------------------------------------
# Stable code fingerprints
# ----------------------------------------------------------------------
def function_fingerprint(program: MachineProgram, name: str) -> str:
    """SHA-256 of one function's formatted machine code.

    The machine text is byte-stable for identical inputs (deterministic
    regalloc and block order), so this is a content address: it changes
    exactly when the function's generated code changes.
    """
    text = format_machine_function(program.functions[name])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_fingerprint(program: MachineProgram) -> str:
    """SHA-256 over every function's machine code (name-sorted)."""
    h = hashlib.sha256()
    for name in sorted(program.functions):
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(function_fingerprint(program, name).encode("ascii"))
        h.update(b"\x00")
    return h.hexdigest()


def region_owner(region: str, entry: str) -> str:
    """The function a region key belongs to (``func@block.index``).

    The pre-``rp`` window ``"?"`` precedes the first restart pointer of
    the entry function, so its code content is the entry's.
    """
    if region == REGION_UNKNOWN:
        return entry
    return region.split("@", 1)[0]


# ----------------------------------------------------------------------
# Trial assignment: where every trial lands, without running it
# ----------------------------------------------------------------------
@dataclass
class TrialAssignment:
    """Partition of a campaign's trial indices by landing region."""

    span: int
    #: region key -> sorted trial indices landing there
    regions: Dict[str, List[int]] = field(default_factory=dict)
    #: trials whose target falls past the last eligible event: they
    #: inject nothing and contribute only to the ``trials`` count
    uninjected: List[int] = field(default_factory=list)


def assign_trials(
    trace: EligibilityTrace,
    seed: int,
    trials: int,
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
    start_trial: int = 0,
) -> TrialAssignment:
    """Map trial indices ``start_trial ..`` to the regions they land in.

    Pure arithmetic over the trace: trial ``i``'s target comes from the
    exact :func:`~repro.sim.faults.trial_plan` the executing run will
    use, and the landing event is the first eligible event at or past
    it (binary search).
    """
    events, regions = trace.events(kind)
    assignment = TrialAssignment(span=trace.span)
    for index in range(start_trial, start_trial + trials):
        plan = trial_plan(
            seed, index, trace.span, kind=kind,
            detection_latency=detection_latency,
        )
        pos = bisect_left(events, plan.target_instruction)
        if pos >= len(events):
            assignment.uninjected.append(index)
        else:
            assignment.regions.setdefault(regions[pos], []).append(index)
    return assignment


# ----------------------------------------------------------------------
# Content-addressed outcome store
# ----------------------------------------------------------------------
def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def section_key(
    workload: str,
    entry: str,
    label: str,
    kind: str,
    latency: int,
    unit_seed: int,
    region: str,
    fingerprint: str,
) -> str:
    """SHA-256 content address of one section's outcome record."""
    return _digest(
        STORE_SCHEMA, PIPELINE_VERSION, workload, entry, label, kind,
        latency, unit_seed, region, fingerprint,
    )


def section_identity(
    workload: str,
    entry: str,
    label: str,
    kind: str,
    latency: int,
    unit_seed: int,
    region: str,
) -> str:
    """Code-independent identity of a section (for staleness diagnosis).

    Everything in :func:`section_key` except the fingerprint and the
    pipeline version: the identity survives code edits, so the explain
    index can tell *why* a key missed (code changed vs never seen).
    """
    return _digest(workload, entry, label, kind, latency, unit_seed, region)


class OutcomeStore:
    """Content-addressed JSON store of per-section campaign outcomes.

    Mirrors :class:`~repro.harness.cache.ArtifactCache` safety: records
    publish via same-directory temp file + atomic ``os.replace``, any
    unreadable or schema-mismatched entry is a miss (deleted, then
    re-injected), and accounting lives on the ``repro.obs`` registry as
    ``campaign.store.<event>{store=<root>}`` — worker deltas ship back
    to the parent, so counters aggregate across the pool.
    """

    def __init__(self, root: Optional[str] = None, enabled: bool = True) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = os.path.join(root, "outcomes")
        self.enabled = enabled and not os.environ.get("REPRO_CACHE_DISABLE")

    def _count(self, name: str, amount: int = 1) -> None:
        get_observer().counter(f"campaign.store.{name}").inc(
            amount, store=self.root
        )

    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def path_for(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.json")

    def get(self, key: str) -> Optional[dict]:
        """Load a section record, or None on miss; corruption is a miss."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError):
            record = None
        if not isinstance(record, dict) or record.get("schema") != STORE_SCHEMA:
            self._count("misses")
            self._count("corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._count("hits")
        return record

    def put(self, key: str, record: dict) -> None:
        """Publish a section record atomically."""
        if not self.enabled:
            return
        self._write_json(self.path_for(key), record)
        self._count("stores")

    def _write_json(self, path: str, payload: dict) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Identity index (drives --explain-stale diagnosis)
    # ------------------------------------------------------------------
    def load_index(self) -> Dict[str, dict]:
        if not self.enabled:
            return {}
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                index = json.load(handle)
        except (OSError, ValueError):
            return {}
        return index if isinstance(index, dict) else {}

    def update_index(self, entries: Dict[str, dict]) -> None:
        """Merge identity -> {key, fingerprint, pipeline} rows (atomic)."""
        if not self.enabled or not entries:
            return
        index = self.load_index()
        changed = False
        for identity, row in entries.items():
            if index.get(identity) != row:
                index[identity] = row
                changed = True
        if changed:
            self._write_json(self.index_path, index)

    def entry_count(self) -> int:
        count = 0
        try:
            shards = os.listdir(self.objects_dir)
        except FileNotFoundError:
            return 0
        for shard in shards:
            shard_dir = os.path.join(self.objects_dir, shard)
            try:
                names = os.listdir(shard_dir)
            except NotADirectoryError:
                continue
            count += sum(1 for name in names if name.endswith(".json"))
        return count


_default_store: Optional[OutcomeStore] = None


def default_store() -> OutcomeStore:
    """The process-wide outcome store (created on first use)."""
    global _default_store
    if _default_store is None:
        _default_store = OutcomeStore()
    return _default_store


def set_default_store(store: Optional[OutcomeStore]) -> Optional[OutcomeStore]:
    """Swap the process-wide store (None resets); returns the previous."""
    global _default_store
    previous = _default_store
    _default_store = store
    return previous


# ----------------------------------------------------------------------
# Section records
# ----------------------------------------------------------------------
def detect_gap_histogram(rows: Sequence[Sequence[object]]) -> Dict[str, int]:
    """Power-of-two histogram of injection-to-detection gaps.

    Bucket ``"0"`` counts undetected trials and zero-gap detections;
    bucket ``"2^k"`` counts gaps in ``[2^k, 2^(k+1))``.
    """
    histogram: Dict[str, int] = {}
    for _index, _bucket, detected, gap in rows:
        if not detected or gap <= 0:
            label = "0"
        else:
            label = str(1 << (int(gap).bit_length() - 1))
        histogram[label] = histogram.get(label, 0) + 1
    return histogram


def summarize_rows(rows: Sequence[Sequence[object]]) -> Dict[str, int]:
    """Campaign-bucket totals of a section's trial rows."""
    summary = CampaignResult()
    for _index, bucket, detected, _gap in rows:
        summary.count(bucket, detected)
    return asdict(summary)


def make_section_record(
    workload: str,
    entry: str,
    label: str,
    kind: str,
    latency: int,
    unit_seed: int,
    region: str,
    fingerprint: str,
    rows: Sequence[Sequence[object]],
) -> dict:
    """Assemble a schema-complete store record from trial rows.

    Rows are ``[index, bucket, detected, detect_gap]`` with one row per
    *injected* trial; the aggregates (bucket totals, detect-latency
    histogram) are derived so they can never drift from the rows.
    """
    ordered = sorted(rows, key=lambda row: row[0])
    return {
        "schema": STORE_SCHEMA,
        "pipeline": PIPELINE_VERSION,
        "workload": workload,
        "entry": entry,
        "label": label,
        "kind": kind,
        "latency": latency,
        "seed": unit_seed,
        "region": region,
        "fingerprint": fingerprint,
        "trials": [list(row) for row in ordered],
        "summary": summarize_rows(ordered),
        "detect_gaps": detect_gap_histogram(ordered),
    }


def merge_section_rows(
    record: Optional[dict],
    new_rows: Sequence[Sequence[object]],
) -> List[List[object]]:
    """Union existing record rows with newly executed ones (by index)."""
    by_index: Dict[int, List[object]] = {}
    if record is not None:
        for row in record.get("trials", []):
            by_index[int(row[0])] = list(row)
    for row in new_rows:
        by_index[int(row[0])] = list(row)
    return [by_index[index] for index in sorted(by_index)]


# ----------------------------------------------------------------------
# Section planning (probe the store, classify staleness)
# ----------------------------------------------------------------------
@dataclass
class SectionStatus:
    """One section's cache outcome within a campaign run."""

    workload: str
    label: str
    region: str
    key: str
    identity: str
    fingerprint: str
    status: str             # SECTION_CACHED | SECTION_TOPUP | SECTION_NEW
    reason: str             # staleness diagnosis ("" when fully cached)
    trials_needed: int
    trials_cached: int
    trials_run: int = 0


@dataclass
class _SectionPlan:
    """Internal planning row: status plus the data needed to execute."""

    status: SectionStatus
    needed: List[int]
    missing: List[int]
    record: Optional[dict]


def _classify_miss(
    index: Dict[str, dict], identity: str, fingerprint: str
) -> str:
    """Why a section key missed, from the identity index."""
    row = index.get(identity)
    if not isinstance(row, dict):
        return "new-section"
    if row.get("fingerprint") != fingerprint:
        old = str(row.get("fingerprint", ""))[:12]
        return f"code-changed ({old or '?'} -> {fingerprint[:12]})"
    if row.get("pipeline") != PIPELINE_VERSION:
        return f"pipeline-changed ({row.get('pipeline')} -> {PIPELINE_VERSION})"
    return "evicted (record missing from store)"


def plan_sections(
    store: Optional[OutcomeStore],
    workload: str,
    entry: str,
    label: str,
    kind: str,
    latency: int,
    unit_seed: int,
    assignment: TrialAssignment,
    program: MachineProgram,
) -> List[_SectionPlan]:
    """Probe the store for every section of one workload × label.

    Returns one plan row per landing region (sorted by region key for a
    deterministic unit order), each carrying the trial indices still to
    inject and the existing record to merge into.  Without a store
    (``None``) every section is new and nothing is keyed or counted.
    """
    if store is None:
        return [
            _SectionPlan(
                status=SectionStatus(
                    workload=workload, label=label, region=region, key="",
                    identity="", fingerprint="", status=SECTION_NEW,
                    reason="", trials_needed=len(needed), trials_cached=0,
                    trials_run=len(needed),
                ),
                needed=needed, missing=needed, record=None,
            )
            for region, needed in sorted(assignment.regions.items())
        ]
    index = store.load_index()
    observer = get_observer()
    plans: List[_SectionPlan] = []
    fingerprints: Dict[str, str] = {}
    for region in sorted(assignment.regions):
        needed = assignment.regions[region]
        owner = region_owner(region, entry)
        fingerprint = fingerprints.get(owner)
        if fingerprint is None:
            fingerprint = fingerprints[owner] = function_fingerprint(
                program, owner
            )
        key = section_key(
            workload, entry, label, kind, latency, unit_seed, region,
            fingerprint,
        )
        identity = section_identity(
            workload, entry, label, kind, latency, unit_seed, region
        )
        record = store.get(key)
        cached = set()
        if record is not None:
            cached = {int(row[0]) for row in record.get("trials", [])}
        missing = [i for i in needed if i not in cached]
        if record is None:
            status, reason = SECTION_NEW, _classify_miss(
                index, identity, fingerprint
            )
        elif missing:
            status, reason = SECTION_TOPUP, (
                f"top-up (+{len(missing)} of {len(needed)} trials)"
            )
        else:
            status, reason = SECTION_CACHED, ""
        observer.counter("campaign.sections").inc(status=status)
        plans.append(_SectionPlan(
            status=SectionStatus(
                workload=workload, label=label, region=region, key=key,
                identity=identity, fingerprint=fingerprint, status=status,
                reason=reason, trials_needed=len(needed),
                trials_cached=len(needed) - len(missing),
                trials_run=len(missing),
            ),
            needed=needed,
            missing=missing,
            record=record,
        ))
    return plans


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
def compose_campaign(
    plans: Sequence[_SectionPlan],
    uninjected: int,
    per_region: Optional[Dict[str, CampaignResult]] = None,
) -> CampaignResult:
    """Fold section records into one whole-program CampaignResult.

    Only the trial indices the current assignment *needs* are counted —
    a record holding more trials than the budget (an earlier, larger
    run) composes down to exactly the requested budget, which is what
    keeps composed results bit-identical to a monolithic campaign.
    """
    from repro.recovery.predict import measured_region_results

    records = [p.record for p in plans if p.record is not None]
    indices = {p.status.region: set(p.needed) for p in plans}
    regions = measured_region_results(records, indices_by_region=indices)
    total = CampaignResult(trials=uninjected)
    for region in sorted(regions):
        total.merge(regions[region])
        if per_region is not None:
            per_region[region] = regions[region]
    return total


# ----------------------------------------------------------------------
# Section execution — worker for the distributed CampaignRunner path
# ----------------------------------------------------------------------
def run_section_trials(
    program: MachineProgram,
    reference_result: object,
    reference_output: List[object],
    region: str,
    indices: Sequence[int],
    span: int,
    unit_seed: int,
    func: str = "main",
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
    injector_factory=None,
) -> List[List[object]]:
    """Execute one section's trial indices; returns store rows.

    Every trial must land in the section's region — the assignment
    predicted it from the shared fault-free prefix — so a mismatch means
    the eligibility trace diverged from the injector's arming rules and
    is raised as a permanent (non-retryable) unit error rather than
    silently mis-filed.
    """
    rows: List[List[object]] = []
    for index in indices:
        outcome = run_planned_trial(
            program, unit_seed, index, span, func=func, kind=kind,
            detection_latency=detection_latency,
            injector_factory=injector_factory,
        )
        bucket = classify_outcome(outcome, reference_result, reference_output)
        landed = outcome.region or REGION_UNKNOWN if outcome.injected else None
        if bucket is None or landed != region:
            raise PermanentUnitError(
                f"section assignment drift: trial {index} was assigned to "
                f"region {region!r} but landed in {landed!r}"
            )
        rows.append([
            index, bucket, 1 if outcome.detected else 0, outcome.detect_gap,
        ])
    return rows


# ----------------------------------------------------------------------
# The campaign driver: trace -> assign -> sections -> compose
# ----------------------------------------------------------------------
@dataclass
class CampaignPlan:
    """One program × label campaign: where its trials land, what is stored.

    ``name`` scopes store keys (the workload, or a stable provenance
    name); ``label`` is the flavour or backend campaigned.
    """

    name: str
    entry: str
    label: str
    kind: str
    latency: int
    seed: int
    assignment: TrialAssignment
    sections: List[_SectionPlan]

    def commit(
        self,
        store: Optional[OutcomeStore],
        section: _SectionPlan,
        rows: Sequence[Sequence[object]],
    ) -> None:
        """Merge freshly injected rows into the section's record."""
        section.record = make_section_record(
            self.name, self.entry, self.label, self.kind, self.latency,
            self.seed, section.status.region, section.status.fingerprint,
            merge_section_rows(section.record, rows),
        )
        if store is not None:
            store.put(section.status.key, section.record)

    def compose(
        self, per_region: Optional[Dict[str, CampaignResult]] = None
    ) -> CampaignResult:
        result = compose_campaign(
            self.sections, len(self.assignment.uninjected),
            per_region=per_region,
        )
        _publish_campaign_metrics(result, self.kind)
        return result


def plan_campaign(
    program: MachineProgram,
    store: Optional[OutcomeStore],
    name: str,
    label: str,
    trials: int,
    func: str = "main",
    kind: str = FAULT_VALUE,
    seed: int = 12345,
    detection_latency: int = 0,
    start_trial: int = 0,
) -> CampaignPlan:
    """One traced fault-free run, the trial assignment, the store probe."""
    trace = trace_eligibility(program, func=func)
    assignment = assign_trials(
        trace, seed, trials, kind=kind, detection_latency=detection_latency,
        start_trial=start_trial,
    )
    sections = plan_sections(
        store, name, func, label, kind, detection_latency, seed,
        assignment, program,
    )
    return CampaignPlan(
        name=name, entry=func, label=label, kind=kind,
        latency=detection_latency, seed=seed, assignment=assignment,
        sections=sections,
    )


def close_campaigns(
    store: Optional[OutcomeStore], plans: Sequence[CampaignPlan]
) -> Tuple[int, int]:
    """Index the stored sections; returns (trials from store, injected)."""
    sections = [section.status for plan in plans for section in plan.sections]
    from_store = sum(status.trials_cached for status in sections)
    injected = sum(status.trials_run for status in sections)
    if store is not None:
        store.update_index({
            status.identity: {
                "key": status.key,
                "fingerprint": status.fingerprint,
                "pipeline": PIPELINE_VERSION,
            }
            for status in sections
        })
        counter = get_observer().counter("campaign.trials")
        if from_store:
            counter.inc(from_store, source="store")
        if injected:
            counter.inc(injected, source="injected")
    return from_store, injected


@dataclass
class InlineCampaign:
    """Result + section accounting of one inline campaign."""

    result: CampaignResult
    sections: List[SectionStatus] = field(default_factory=list)
    trials_from_store: int = 0
    trials_injected: int = 0

    @property
    def sections_reinjected(self) -> int:
        return sum(1 for s in self.sections if s.status != SECTION_CACHED)


def run_campaign(
    program: MachineProgram,
    reference_result: object,
    reference_output: List[object],
    trials: int,
    func: str = "main",
    kind: str = FAULT_VALUE,
    seed: int = 12345,
    detection_latency: int = 0,
    start_trial: int = 0,
    injector_factory=None,
    per_region: Optional[Dict[str, CampaignResult]] = None,
    store: Optional[OutcomeStore] = None,
    name: str = "adhoc",
    label: str = "idempotent",
) -> InlineCampaign:
    """The campaign driver: trials ``start_trial ..`` of one program.

    One traced fault-free run yields the target span and every fault
    site; :func:`assign_trials` maps the requested trial indices to the
    regions they land in; :func:`run_section_trials` injects each
    landing region's trials under ``injector_factory`` (default: rp
    recovery); the sections compose into one :class:`CampaignResult`.
    Trial ``i`` depends on ``(seed, i)`` and the program alone, so any
    split of an index range composes to the serial result.

    With a ``store``, sections already recorded under
    ``(name, label, ...)`` compose from it and only the missing trials
    inject; without one, every trial injects and nothing is written.
    The result is the same either way.  ``per_region`` collects one
    :class:`CampaignResult` per landing region.
    """
    plan = plan_campaign(
        program, store, name, label, trials, func=func, kind=kind,
        seed=seed, detection_latency=detection_latency,
        start_trial=start_trial,
    )
    for section in plan.sections:
        if section.missing:
            plan.commit(store, section, run_section_trials(
                program, reference_result, reference_output,
                region=section.status.region, indices=section.missing,
                span=plan.assignment.span, unit_seed=seed, func=func,
                kind=kind, detection_latency=detection_latency,
                injector_factory=injector_factory,
            ))
    from_store, injected = close_campaigns(store, [plan])
    return InlineCampaign(
        result=plan.compose(per_region),
        sections=[section.status for section in plan.sections],
        trials_from_store=from_store,
        trials_injected=injected,
    )


def incremental_campaign(
    original_program: MachineProgram,
    idempotent_program: MachineProgram,
    reference_result: object,
    reference_output: List[object],
    trials: int,
    func: str = "main",
    kind: str = FAULT_VALUE,
    seed: int = 12345,
    detection_latency: int = 0,
    backend=None,
    flavour: str = "idempotent",
    name: str = "adhoc",
    store: Optional[OutcomeStore] = None,
    per_region: Optional[Dict[str, CampaignResult]] = None,
) -> InlineCampaign:
    """Store-backed campaign of one flavour or backend (default store).

    ``seed`` is the *unit* seed (callers derive it exactly as their
    store-less path would), so the composed result is bit-identical to
    :func:`repro.sim.faults.fault_campaign` (or ``backend.campaign``) at
    the same parameters.  ``name`` scopes store keys and should be
    stable across source edits (it is provenance, not content — the
    code content is in the per-function fingerprints), so editing one
    function re-injects only that function's sections.
    """
    target = campaign_target(flavour, backend)
    return run_campaign(
        target.program(original_program, idempotent_program),
        reference_result, reference_output, trials=trials, func=func,
        kind=kind, seed=seed, detection_latency=detection_latency,
        injector_factory=target.injector_factory, per_region=per_region,
        store=store or default_store(), name=name, label=target.label,
    )


def _section_unit(payload: dict) -> dict:
    """Worker: inject one section's missing trial indices."""
    target, program, reference, reference_output = unit_inputs(payload)
    rows = run_section_trials(
        program, reference, reference_output,
        region=payload["region"], indices=payload["indices"],
        span=payload["span"], unit_seed=payload["unit_seed"],
        func=payload["entry"], kind=payload["kind"],
        detection_latency=payload["detection_latency"],
        injector_factory=target.injector_factory,
    )
    return {
        "workload": payload["workload"],
        "label": payload["label"],
        "region": payload["region"],
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Suite-wide incremental campaign (the `repro campaign --incremental` path)
# ----------------------------------------------------------------------
@dataclass
class IncrementalCampaignSummary(FaultCampaignSummary):
    """Fault-campaign summary plus per-section cache accounting."""

    sections: List[SectionStatus] = field(default_factory=list)
    store_root: str = ""
    trials_from_store: int = 0
    trials_injected: int = 0
    #: (workload, label) -> region -> measured CampaignResult
    per_region: Dict[Tuple[str, str], Dict[str, CampaignResult]] = field(
        default_factory=dict
    )

    @property
    def sections_total(self) -> int:
        return len(self.sections)

    @property
    def sections_cached(self) -> int:
        return sum(1 for s in self.sections if s.status == SECTION_CACHED)

    @property
    def sections_reinjected(self) -> int:
        return self.sections_total - self.sections_cached


def _section_unit_id(
    workload: str,
    label_tag: str,
    kind: str,
    seed: int,
    latency: int,
    key: str,
    indices: Sequence[int],
) -> str:
    digest = hashlib.sha256(
        ",".join(str(i) for i in indices).encode("ascii")
    ).hexdigest()[:8]
    return (
        f"{workload}:{label_tag}:{kind}:seed{seed}:lat{latency}"
        f":sec{key[:12]}:n{len(indices)}h{digest}"
    )


def run_incremental_fault_campaign(
    names: Optional[Sequence[str]] = None,
    trials: int = 40,
    seed: int = 12345,
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
    jobs: int = 1,
    manifest_path: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
    retry=None,
    unit_timeout: Optional[float] = None,
    chaos=None,
    flavours: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
    store: Optional[OutcomeStore] = None,
) -> IncrementalCampaignSummary:
    """Suite-wide fault campaign, sectioned and backed by the outcome store.

    The driver's steps (:func:`plan_campaign`, :meth:`CampaignPlan.commit`,
    :func:`close_campaigns`, :meth:`CampaignPlan.compose`) with the
    section injection distributed over the
    :class:`~repro.harness.campaign.CampaignRunner` stack: same workload
    × label grid and spawn-key seeds as
    :func:`repro.harness.campaign.run_fault_campaign`, each landing
    region one work unit, and previously stored sections composed
    instead of re-injected.  Composed results are bit-identical to the
    monolithic campaign at equal budgets.
    """
    from repro.experiments.common import build_pair, prebuild_pairs, resolve_workloads

    telemetry = telemetry or Telemetry(label="incremental campaign")
    if manifest_path:
        get_observer().log(f"campaign manifest: {manifest_path}")
    store = store or default_store()
    targets = campaign_targets(flavours, backends)
    workloads = resolve_workloads(names)
    prebuild_pairs([w.name for w in workloads], jobs=jobs, telemetry=telemetry)

    # Plan: one traced run per workload × label, then store probes.
    plans: Dict[Tuple[str, str], CampaignPlan] = {}
    units: List[Tuple[str, dict]] = []
    provenance: Dict[str, dict] = {}
    unit_sections: Dict[str, Tuple[CampaignPlan, _SectionPlan]] = {}
    with telemetry.phase("plan", units=len(workloads) * max(1, len(targets))):
        for workload in workloads:
            original, idempotent = build_pair(workload.name)
            for target in targets:
                unit_seed = derive_seed(seed, workload.name, target.seed_key)
                plan = plans[(workload.name, target.label)] = plan_campaign(
                    target.program(original.program, idempotent.program),
                    store, workload.name, target.label, trials,
                    func=workload.entry, kind=kind, seed=unit_seed,
                    detection_latency=detection_latency,
                )
                for section in plan.sections:
                    if not section.missing:
                        continue
                    unit_id = _section_unit_id(
                        workload.name, target.tag, kind, seed,
                        detection_latency, section.status.key,
                        section.missing,
                    )
                    payload = {
                        "workload": workload.name,
                        "flavour": target.flavour,
                        "label": target.label,
                        "entry": workload.entry,
                        "region": section.status.region,
                        "indices": section.missing,
                        "span": plan.assignment.span,
                        "unit_seed": unit_seed,
                        "kind": kind,
                        "detection_latency": detection_latency,
                    }
                    if target.backend is not None:
                        payload["backend"] = target.label
                    units.append((unit_id, payload))
                    provenance[unit_id] = {
                        "pipeline": PIPELINE_VERSION,
                        "schema": STORE_SCHEMA,
                        "label": target.tag,
                        "cfg": section.status.fingerprint,
                    }
                    unit_sections[unit_id] = (plan, section)

    # Inject the missing sections, merge them into the store, compose.
    summary = IncrementalCampaignSummary(
        trials=trials, seed=seed, kind=kind,
        labels=tuple(target.label for target in targets),
        telemetry=telemetry, store_root=store.root,
    )
    done = run_units(
        summary, _section_unit, units, provenance,
        manifest_path=manifest_path, jobs=jobs, retry=retry,
        unit_timeout=unit_timeout, chaos=chaos,
    )
    for unit_id, data in done.items():
        plan, section = unit_sections[unit_id]
        plan.commit(store, section, data.get("rows", []))

    summary.trials_from_store, summary.trials_injected = close_campaigns(
        store, list(plans.values())
    )
    for key, plan in plans.items():
        summary.sections.extend(section.status for section in plan.sections)
        per_region: Dict[str, CampaignResult] = {}
        summary.results[key] = plan.compose(per_region)
        summary.per_region[key] = per_region
    return summary


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def format_incremental_report(summary: IncrementalCampaignSummary) -> str:
    """The composed campaign tables (stdout).

    Deliberately omits unit/section accounting — that goes to stderr via
    :func:`format_section_accounting` — so a warm re-run's stdout is
    byte-identical to the cold run that populated the store.
    """
    lines = summary.result_lines()
    for error in summary.errors:
        lines.append(f"  ! {error}")
    return "\n".join(lines)


def format_section_accounting(summary: IncrementalCampaignSummary) -> str:
    """One-line section/trial cache accounting (stderr)."""
    return (
        f"sections: {summary.sections_total} total, "
        f"{summary.sections_cached} cached, "
        f"{summary.sections_reinjected} re-injected "
        f"({summary.trials_from_store} trials from store, "
        f"{summary.trials_injected} injected); "
        f"store: {summary.store_root}"
    )


def format_stale_report(summary: IncrementalCampaignSummary) -> str:
    """The ``--explain-stale`` view: which sections re-ran, and why."""
    lines = [format_section_accounting(summary)]
    stale = [s for s in summary.sections if s.status != SECTION_CACHED]
    if not stale:
        lines.append("stale sections: none (every section composed "
                     "from the store)")
        return "\n".join(lines)
    lines.append("stale sections:")
    for status in stale:
        lines.append(
            f"  {status.workload}:{status.label} {status.region} "
            f"[{status.trials_run} trials]: {status.reason}"
        )
    return "\n".join(lines)
