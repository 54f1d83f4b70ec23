"""Transient-fault injection and recovery (paper §2.3, §6.3).

Fault model (the paper's): memory and register *storage* are ECC-protected;
faults arise in instruction execution only. We corrupt the destination of
one dynamic instruction (a soft error in a functional unit) or a branch
decision (incorrect control flow). Detection is instruction-level DMR: the
fault becomes visible at the next *check point* — a load, store, branch,
call, or region boundary — before that operation commits, so corrupted
stores never reach memory and corrupted values never cross an undetected
region boundary.

Recovery is the paper's idempotence scheme: discard unverified stores and
jump to the restart pointer ``rp``. On an idempotent binary this always
reproduces the fault-free result; on an original (non-idempotent) binary
the same procedure silently corrupts state — the negative control used in
tests.

This module states the fault-site rule once (:func:`is_value_site`,
:func:`is_control_site` and their dynamic indices) and holds the one
:class:`FaultInjector`; the other schemes of
:mod:`repro.recovery.backends` subclass it and supply only a recovery
policy.  :func:`trace_eligibility` enumerates every site of a fault-free
run, which is what the campaign driver
(:func:`repro.harness.incremental.run_campaign`) plans trials from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.codegen.machine import MachineInstr, MachineProgram
from repro.harness.executor import derive_seed
from repro.interp.memory import MemoryError_
from repro.sim.simulator import SimulationError, Simulator

FAULT_VALUE = "value"      # corrupt an instruction's destination register
FAULT_CONTROL = "control"  # corrupt a branch condition (wrong control flow)

#: Dynamic-instruction budget of every faulted, traced or profiled run.
MAX_INSTRUCTIONS = 50_000_000


# ----------------------------------------------------------------------
# The fault-site rule (§2.3)
# ----------------------------------------------------------------------
# A value fault lands on a register-writing, non-memory op as it retires
# (post hook, at dynamic index ``instructions``); a control fault lands
# on a ``bnz`` before it issues (pre hook, at ``instructions + 1``, the
# index it will retire at).  A trial fires at the first site whose index
# reaches its target.  The injector, the eligibility trace and the
# region profiler all read the rule from here.
def is_value_site(instr: MachineInstr) -> bool:
    """Value-fault site: writes a register and is not a memory op.

    Loads are excluded because DMR verifies them directly.
    """
    return instr.dst is not None and not instr.is_memory


def is_control_site(instr: MachineInstr) -> bool:
    """Control-fault site: a conditional branch."""
    return instr.opcode == "bnz"


def value_site_index(sim: Simulator) -> int:
    """Dynamic index of the value site retiring now (post hook)."""
    return sim.instructions


def control_site_index(sim: Simulator) -> int:
    """Dynamic index of the control site about to issue (pre hook)."""
    return sim.instructions + 1


@dataclass
class FaultPlan:
    """Inject one fault at the Nth dynamically executed instruction.

    ``detection_latency`` models slow detection (paper §6.2: "longer path
    lengths allow execution to proceed speculatively for longer amounts of
    time while potential execution failures remain undetected"): the fault
    is only detected at the first check point at least that many dynamic
    instructions after injection. If a region boundary slips by in the
    meantime, ``rp`` advances past the fault and recovery re-executes a
    region whose inputs are already corrupt — large regions are what make
    long latencies survivable.
    """

    target_instruction: int
    kind: str = FAULT_VALUE
    flip_mask: int = 0x1
    detection_latency: int = 0


@dataclass
class FaultOutcome:
    injected: bool = False
    detected: bool = False
    recovered: bool = False
    crashed: bool = False
    result: object = None
    output: List[object] = field(default_factory=list)
    instructions: int = 0
    recovery_instructions: int = 0
    #: Region key (``func@block.index`` of the restart pointer active at
    #: injection time) — lets campaigns attribute outcomes to regions.
    region: Optional[str] = None
    #: Dynamic instructions between injection and detection (0 when the
    #: fault was never detected) — the detect-latency histograms of the
    #: incremental outcome store are built from this.
    detect_gap: int = 0


REGION_UNKNOWN = "?"


def region_key(sim: Simulator) -> str:
    """Stable key for the region executing now: the active restart pointer.

    Dynamic regions are delimited by restart-pointer updates, so the rp
    location identifies the region an injected fault lands in. ``"?"``
    covers the window before the first rp is established.
    """
    if sim.rp is None:
        return REGION_UNKNOWN
    _depth, loc = sim.rp
    return f"{loc.func}@{loc.block}.{loc.index}"


class FaultInjector:
    """Drives a simulator run with one planned fault and rp recovery.

    The injector owns everything the fault model fixes: arming at the
    first site of the plan's kind whose index reaches the target,
    injection, region attribution, and detection at the first check
    point at least ``detection_latency`` instructions later.  A recovery
    backend subclasses it and overrides only its policy:
    :meth:`corrupt` (what the fault does to architectural state) and
    :meth:`restore` (how detection recovers).  This class is the paper's
    idempotence scheme: discard unverified stores and jump to ``rp``.

    The run goes through three phases — armed, pending, done — and each
    installs only the simulator hooks it needs, so a trial pays for no
    hook at all once its fault is detected.
    """

    def __init__(self, sim: Simulator, plan: FaultPlan, recover: bool = True) -> None:
        self.sim = sim
        self.plan = plan
        self.recover = recover
        self.outcome = FaultOutcome()
        #: no fault injected yet
        self.armed = True
        #: injected, not yet detected
        self.pending = False
        self._injected_at = 0
        self._install()

    def _install(self) -> None:
        """Install the hooks of the current phase."""
        sim = self.sim
        if self.armed:
            control = self.plan.kind == FAULT_CONTROL
            sim.pre_hook = self._arm_control if control else None
            sim.post_hook = None if control else self._arm_value
        elif self.pending:
            sim.pre_hook, sim.post_hook = self._detect, None
        else:
            sim.pre_hook = sim.post_hook = None

    # ------------------------------------------------------------------
    # Recovery policy (overridden by backends)
    # ------------------------------------------------------------------
    def corrupt(self, sim: Simulator, instr: MachineInstr) -> None:
        """Perturb state at injection: flip the value or branch decision."""
        if self.plan.kind == FAULT_CONTROL:
            cond = instr.srcs[0]
            sim.set_reg(cond, 0 if sim.get_reg(cond) else 1)
            return
        value = sim.get_reg(instr.dst)
        if isinstance(value, float):
            corrupted = -(value + 1.0)
        else:
            corrupted = value ^ self.plan.flip_mask
        sim.set_reg(instr.dst, corrupted)

    def restore(self, sim: Simulator) -> bool:
        """Recover from a detected fault; True if execution re-runs.

        A re-executing recovery charges the dynamic instructions up to
        detection as ``recovery_instructions``.
        """
        sim.recover_to_rp()
        sim.redirect()
        return True

    # ------------------------------------------------------------------
    # Hooks: arming, injection, detection
    # ------------------------------------------------------------------
    def _arm_control(self, sim: Simulator, instr: MachineInstr) -> None:
        if (
            control_site_index(sim) >= self.plan.target_instruction
            and is_control_site(instr)
        ):
            self._inject(sim, instr)

    def _arm_value(self, sim: Simulator, instr: MachineInstr, loc) -> None:
        if (
            value_site_index(sim) >= self.plan.target_instruction
            and is_value_site(instr)
        ):
            self._inject(sim, instr)

    def _inject(self, sim: Simulator, instr: MachineInstr) -> None:
        self.corrupt(sim, instr)
        self.armed = False
        self.pending = True  # detected at a later check point
        self.outcome.injected = True
        self.outcome.region = region_key(sim)
        self._injected_at = sim.instructions
        self._install()

    def _detect(self, sim: Simulator, instr: MachineInstr) -> None:
        gap = sim.instructions - self._injected_at
        if (
            instr.opcode not in Simulator.CHECK_POINTS
            or gap < self.plan.detection_latency
        ):
            return
        self.pending = False
        self.outcome.detected = True
        self.outcome.detect_gap = gap
        self._install()
        if self.recover:
            mark = sim.instructions
            if self.restore(sim):
                self.outcome.recovery_instructions = mark
            self.outcome.recovered = True


def run_with_fault(
    program: MachineProgram,
    plan: FaultPlan,
    func: str = "main",
    args: Tuple = (),
    recover: bool = True,
    max_instructions: int = MAX_INSTRUCTIONS,
    injector_factory: Optional[Callable[..., object]] = None,
) -> FaultOutcome:
    """Execute ``func`` with one injected fault; returns the outcome.

    ``injector_factory`` selects the recovery scheme driving the run —
    any callable with :class:`FaultInjector`'s ``(sim, plan, recover)``
    signature exposing an ``outcome`` attribute. The default is the
    paper's idempotence scheme (``FaultInjector``); the alternatives
    live in :mod:`repro.recovery.backends`.
    """
    sim = Simulator(program, max_instructions=max_instructions)
    factory = injector_factory or FaultInjector
    injector = factory(sim, plan, recover=recover)
    outcome = injector.outcome
    try:
        outcome.result = sim.run(func, args)
    except (MemoryError_, SimulationError):
        outcome.crashed = True
    outcome.output = list(sim.output)
    outcome.instructions = sim.instructions
    return outcome


@dataclass
class CampaignResult:
    """Aggregate of a fault-injection campaign.

    Injected trials land in exactly one of four disjoint buckets:
    ``crashed``, ``recovered_correctly`` (detected *and* reproduced the
    reference), ``wrong_result`` (diverged from the reference, whether
    or not detection fired), or ``undetected`` (the fault slipped past
    every check point — detection latency ran past program end — yet
    the result happened to be correct).  An undetected fault is never
    reported as recovered: nothing recovered it.
    """

    trials: int = 0
    injected: int = 0
    detected: int = 0
    recovered_correctly: int = 0
    wrong_result: int = 0
    crashed: int = 0
    undetected: int = 0

    @property
    def recovery_rate(self) -> float:
        """Fraction of injected faults recovered correctly.

        A campaign that injected nothing has no recovery rate: it
        returns NaN rather than a misleading 0.0 (which reads as "every
        fault was lost") — use :func:`format_rate` for display.
        """
        if not self.injected:
            return float("nan")
        return self.recovered_correctly / self.injected

    def count(self, bucket: str, detected: bool) -> None:
        """Count one injected trial that landed in ``bucket``."""
        self.trials += 1
        self.injected += 1
        self.detected += bool(detected)
        setattr(self, bucket, getattr(self, bucket) + 1)

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """Fold in another shard of the same campaign (in place)."""
        self.trials += other.trials
        self.injected += other.injected
        self.detected += other.detected
        self.recovered_correctly += other.recovered_correctly
        self.wrong_result += other.wrong_result
        self.crashed += other.crashed
        self.undetected += other.undetected
        return self


def format_rate(result: CampaignResult) -> str:
    """``recovery_rate`` for reports: ``"n/a"`` when nothing was injected."""
    if not result.injected:
        return "n/a"
    return f"{result.recovery_rate:.0%}"


def classify_outcome(
    outcome: FaultOutcome,
    reference_result: object,
    reference_output: List[object],
) -> Optional[str]:
    """Bucket name for one trial outcome, ``None`` if nothing was injected.

    The four disjoint buckets of :class:`CampaignResult`, in the same
    precedence order every campaign has always used: ``crashed`` beats
    ``wrong_result`` beats ``recovered_correctly`` beats ``undetected``.
    """
    if not outcome.injected:
        return None
    correct = (
        outcome.result == reference_result
        and outcome.output == reference_output
    )
    if outcome.crashed:
        return "crashed"
    if not correct:
        return "wrong_result"
    if outcome.detected:
        return "recovered_correctly"
    # Fault injected, never detected (latency outlived the program),
    # result coincidentally correct: benign, but NOT a recovery —
    # nothing recovered it.
    return "undetected"


def trial_plan(
    campaign_seed: int,
    index: int,
    span: int,
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
) -> FaultPlan:
    """The fault plan of trial ``index`` in a campaign.

    The per-trial RNG is seeded spawn-key style from the campaign seed
    and the trial index (not drawn from one sequential stream), so any
    sharding of the trial range over processes injects exactly the fault
    set a serial campaign does.
    """
    rng = random.Random(derive_seed(campaign_seed, "trial", index))
    return FaultPlan(
        target_instruction=rng.randrange(1, span),
        kind=kind,
        detection_latency=detection_latency,
    )


@dataclass
class EligibilityTrace:
    """Every fault site of one fault-free run, in dynamic order.

    ``value_events[i]`` is the dynamic index of the ``i``-th value site
    and ``value_regions[i]`` the region a fault there is attributed to;
    ``control_*`` likewise for control sites.  Because a faulted run's
    dynamic prefix equals the fault-free one up to injection, a trial
    lands on the first site at or past its target — so this one run
    predicts where every trial of a campaign lands without running it.
    ``span`` bounds the trial targets: they are drawn from ``[1, span)``.
    """

    span: int
    instructions: int
    value_events: List[int] = field(default_factory=list)
    value_regions: List[str] = field(default_factory=list)
    control_events: List[int] = field(default_factory=list)
    control_regions: List[str] = field(default_factory=list)

    def events(self, kind: str) -> Tuple[List[int], List[str]]:
        if kind == FAULT_VALUE:
            return self.value_events, self.value_regions
        return self.control_events, self.control_regions


def trace_eligibility(
    program: MachineProgram,
    func: str = "main",
    args: Tuple = (),
    max_instructions: int = MAX_INSTRUCTIONS,
) -> EligibilityTrace:
    """One fault-free run recording every fault site (and the span)."""
    sim = Simulator(program, max_instructions=max_instructions)
    trace = EligibilityTrace(span=1, instructions=0)

    def pre(s: Simulator, instr: MachineInstr) -> None:
        if is_control_site(instr):
            trace.control_events.append(control_site_index(s))
            trace.control_regions.append(region_key(s))

    def post(s: Simulator, instr: MachineInstr, loc) -> None:
        if is_value_site(instr):
            trace.value_events.append(value_site_index(s))
            trace.value_regions.append(region_key(s))

    sim.pre_hook = pre
    sim.post_hook = post
    sim.run(func, args)
    trace.instructions = sim.instructions
    trace.span = max(sim.instructions - 2, 1)
    return trace


def run_planned_trial(
    program: MachineProgram,
    seed: int,
    index: int,
    span: int,
    func: str = "main",
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
    injector_factory: Optional[Callable[..., object]] = None,
) -> FaultOutcome:
    """Execute trial ``index`` of the campaign seeded ``seed``.

    Trial identity is ``(seed, index, span)`` alone, so any partition of
    a campaign's index range — serial, sharded, or the per-region
    sections of :mod:`repro.harness.incremental` — reproduces the same
    outcomes bit for bit.
    """
    plan = trial_plan(
        seed, index, span, kind=kind, detection_latency=detection_latency
    )
    return run_with_fault(
        program, plan, func=func, injector_factory=injector_factory,
    )


def fault_campaign(
    program: MachineProgram,
    reference_result: object,
    reference_output: List[object],
    trials: int = 50,
    func: str = "main",
    kind: str = FAULT_VALUE,
    seed: int = 12345,
    detection_latency: int = 0,
    start_trial: int = 0,
    per_region: Optional[Dict[str, CampaignResult]] = None,
) -> CampaignResult:
    """Trials ``start_trial ..`` of the rp-recovery campaign over ``program``.

    Faults are compared against the reference result and output.  The
    campaign driver (:func:`repro.harness.incremental.run_campaign`)
    does the work with no outcome store; ``per_region`` collects one
    :class:`CampaignResult` per landing region.
    """
    from repro.harness.incremental import run_campaign

    return run_campaign(
        program, reference_result, reference_output, trials=trials,
        func=func, kind=kind, seed=seed,
        detection_latency=detection_latency, start_trial=start_trial,
        per_region=per_region,
    ).result


def _publish_campaign_metrics(result: CampaignResult, kind: str) -> None:
    """Fault-detection event totals onto the ``repro.obs`` registry."""
    from repro import obs

    events = obs.counter("sim.fault_events")
    for outcome in ("trials", "injected", "detected", "recovered_correctly",
                    "wrong_result", "crashed", "undetected"):
        count = getattr(result, outcome)
        if count:
            events.inc(count, outcome=outcome, kind=kind)
