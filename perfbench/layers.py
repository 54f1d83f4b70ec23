"""Per-layer numbers for the traced pass, measured from outside ``src/``.

Two sources feed them:

- the spans and counters the program already emits on ``repro.obs``
  (an enabled :class:`~repro.obs.Observer` is installed for the pass);
- :class:`Probe`, which wraps public entry points that carry no span —
  ``Simulator`` construction, ``Interpreter.run``, the frontend call of
  the compiler driver, the campaign harness's eligibility trace and
  planned trials, and the outcome store's reads and writes — and times
  them with the same ``perf_counter_ns`` clock the tracer uses.

A layer's time is the sum of its spans' *self* time (duration minus the
children's durations).  Phase metrics such as ``core.cuts_s`` are the
phase spans' full durations.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro import compiler
from repro.harness import incremental
from repro.harness.incremental import OutcomeStore
from repro.interp.interpreter import Interpreter
from repro.recovery.backends import BACKEND_NAMES
from repro.sim.simulator import Simulator

#: Per-layer metrics that must repeat exactly for a given workload and
#: seed: every count, and every ratio of counts.  A change in one is a
#: behaviour change, not noise.
EXACT = frozenset(
    [
        "frontend.ir_insns",
        "analysis.cache_hits", "analysis.cache_misses", "analysis.hit_frac",
        "core.antideps", "core.cuts", "core.regions",
        "codegen.machine_insns", "codegen.vregs", "codegen.spilled",
        "sim.runs", "sim.insns", "sim.cycles", "sim.boundaries",
        "sim.l1_hits", "sim.l1_misses",
        "harness.fault_free_runs", "harness.store_bytes_written",
        "harness.store_bytes_read", "harness.store_hit_frac",
        "harness.sections",
        "interp.steps",
        "fuzz.oracle_runs", "fuzz.forced_runs", "fuzz.oracle_failures",
    ]
    + [f"recovery.{m}.{b}" for b in BACKEND_NAMES
       for m in ("trial_insns", "recovery_insns", "recovered_frac")]
)

#: ``construction.<phase>`` spans reported as ``core.<phase>_s``.
CORE_PHASES = ("ssa", "antideps", "cuts", "loops", "regions", "verify")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Probe:
    """Timing wrappers around span-less entry points, installed for one pass."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (start_ns, end_ns) of every planned fault trial
        self.trial_windows: List[Tuple[int, int]] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrap) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def __enter__(self) -> "Probe":
        self._patch(Simulator, "__init__", self._timed("sim.setup_s"))
        self._patch(Interpreter, "run", self._interp_run)
        self._patch(compiler, "compile_source", self._frontend)
        self._patch(incremental, "trace_eligibility", self._timed("harness.trace_s"))
        self._patch(incremental, "run_planned_trial", self._trial)
        self._patch(OutcomeStore, "get", self._store_get)
        self._patch(OutcomeStore, "load_index", self._timed("harness.store_get_s"))
        self._patch(OutcomeStore, "put", self._store_put)
        self._patch(OutcomeStore, "update_index", self._timed("harness.store_put_s"))
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # ------------------------------------------------------------------
    def _timed(self, key: str):
        def wrap(original):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.seconds[key] += time.perf_counter() - start
            return timed
        return wrap

    def _interp_run(self, original):
        def run(interp, *args, **kwargs):
            steps = interp.steps
            start = time.perf_counter()
            try:
                return original(interp, *args, **kwargs)
            finally:
                self.seconds["interp.s"] += time.perf_counter() - start
                self.counts["interp.steps"] += interp.steps - steps
        return run

    def _frontend(self, original):
        def compile_source(*args, **kwargs):
            module = original(*args, **kwargs)
            self.counts["frontend.ir_insns"] += sum(
                f.instruction_count() for f in module.functions.values()
            )
            return module
        return compile_source

    def _trial(self, original):
        def run_planned_trial(*args, **kwargs):
            factory = kwargs.get("injector_factory")
            backend = getattr(getattr(factory, "__self__", None), "name", "none")
            start = time.perf_counter_ns()
            outcome = original(*args, **kwargs)
            end = time.perf_counter_ns()
            self.trial_windows.append((start, end))
            self.seconds[f"recovery.trial_s.{backend}"] += (end - start) / 1e9
            self.counts[f"trials.{backend}"] += 1
            self.counts[f"recovery.trial_insns.{backend}"] += outcome.instructions
            self.counts[f"recovery.recovery_insns.{backend}"] += outcome.recovery_instructions
            return outcome
        return run_planned_trial

    def _store_get(self, original):
        def get(store, key):
            start = time.perf_counter()
            record = original(store, key)
            self.seconds["harness.store_get_s"] += time.perf_counter() - start
            if record is not None:
                self.counts["harness.store_bytes_read"] += os.path.getsize(store.path_for(key))
            return record
        return get

    def _store_put(self, original):
        def put(store, key, record):
            start = time.perf_counter()
            original(store, key, record)
            self.seconds["harness.store_put_s"] += time.perf_counter() - start
            self.counts["harness.store_bytes_written"] += os.path.getsize(store.path_for(key))
        return put


def counter_totals(observer) -> Dict[str, float]:
    """Every counter of an observer, summed over its labels."""
    return {
        name: sum(row["value"] for row in entry["values"])
        for name, entry in observer.metrics.snapshot().items()
        if entry["type"] == "counter"
    }


def _layer_of(span, by_id) -> Optional[str]:
    """The layer whose self time a span counts toward."""
    name = span.name
    if name == "frontend.compile":
        return "frontend"
    if name.startswith("transforms."):
        # The SSA step of region construction runs the same passes; the
        # transforms layer is the original flavour's pipeline.
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.name == "construction.module":
                return "core"
            parent = by_id.get(parent.parent_id)
        return "transforms"
    if name.startswith("construction."):
        return "core"
    return None


def _inside(point: int, windows: Iterable[Tuple[int, int]]) -> bool:
    return any(start <= point <= end for start, end in windows)


def layer_metrics(observer, probe: Probe, counters: Dict[str, float],
                  tallies, overhead: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass."""
    spans = observer.tracer.spans()
    by_id = {s.span_id: s for s in spans}
    child_ns: Dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent_id is not None:
            child_ns[s.parent_id] += s.dur_ns
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    for s in spans:
        total_s[s.name] += s.dur_ns / 1e9
        layer = _layer_of(s, by_id)
        if layer is not None:
            self_s[layer] += (s.dur_ns - child_ns[s.span_id]) / 1e9

    campaign = tallies["campaign"]
    fuzz = tallies["fuzz"]
    requests = campaign.work["requests"]
    trials = sum(probe.counts[f"trials.{b}"] for b in BACKEND_NAMES)
    fault_free_s = sum(
        s.dur_ns for s in spans
        if s.name == "sim.run" and _inside(s.start_ns, campaign.windows)
        and not _inside(s.start_ns, probe.trial_windows)
    ) / 1e9
    hits = counters.get("analysis.cache.hits", 0)
    misses = counters.get("analysis.cache.misses", 0)
    store_hits = counters.get("campaign.store.hits", 0)
    store_misses = counters.get("campaign.store.misses", 0)

    out = {
        "frontend.s": self_s["frontend"],
        "frontend.ir_insns": probe.counts["frontend.ir_insns"],
        "transforms.s": self_s["transforms"],
        "analysis.cache_hits": hits,
        "analysis.cache_misses": misses,
        "analysis.hit_frac": _ratio(hits, hits + misses),
        "core.s": self_s["core"],
    }
    for phase in CORE_PHASES:
        out[f"core.{phase}_s"] = total_s[f"construction.{phase}"]
    out.update({
        "core.antideps": counters.get("construction.antideps", 0),
        "core.cuts": counters.get("construction.cuts", 0),
        "core.regions": counters.get("construction.regions", 0),
        "ir.verify_s": total_s["verify.ir"],
        "codegen.isel_s": total_s["codegen.isel"],
        "codegen.regalloc_s": total_s["codegen.regalloc"],
        "codegen.verify_s": total_s["verify.machine"],
        "codegen.machine_insns": counters.get("codegen.machine_instructions", 0),
        "codegen.vregs": counters.get("codegen.regalloc.vregs", 0),
        "codegen.spilled": counters.get("codegen.regalloc.spilled", 0),
        "sim.setup_s": probe.seconds["sim.setup_s"],
        "sim.run_s": total_s["sim.run"],
        "sim.runs": counters.get("sim.runs", 0),
        "sim.insns": counters.get("sim.instructions", 0),
        "sim.cycles": counters.get("sim.cycles", 0),
        "sim.boundaries": counters.get("sim.boundaries", 0),
        "sim.l1_hits": counters.get("sim.l1.hits", 0),
        "sim.l1_misses": counters.get("sim.l1.misses", 0),
    })
    for b in BACKEND_NAMES:
        out[f"recovery.trial_s.{b}"] = probe.seconds[f"recovery.trial_s.{b}"]
        out[f"recovery.trial_insns.{b}"] = probe.counts[f"recovery.trial_insns.{b}"]
        out[f"recovery.recovery_insns.{b}"] = probe.counts[f"recovery.recovery_insns.{b}"]
        out[f"recovery.recovered_frac.{b}"] = _ratio(
            campaign.work[f"recovered.{b}"], campaign.work[f"injected.{b}"]
        )
    out.update({
        "harness.fault_free_runs": _ratio(campaign.work["request_sim_runs"] - trials, requests),
        "harness.fault_free_s": fault_free_s,
        "harness.trace_s": probe.seconds["harness.trace_s"],
        "harness.store_put_s": probe.seconds["harness.store_put_s"],
        "harness.store_get_s": probe.seconds["harness.store_get_s"],
        "harness.store_bytes_written": probe.counts["harness.store_bytes_written"],
        "harness.store_bytes_read": probe.counts["harness.store_bytes_read"],
        "harness.store_hit_frac": _ratio(store_hits, store_hits + store_misses),
        "harness.sections": counters.get("campaign.sections", 0),
        "interp.s": probe.seconds["interp.s"],
        "interp.steps": probe.counts["interp.steps"],
        "fuzz.generate_s": fuzz.work["generate_s"],
        "fuzz.oracle_s": fuzz.work["oracle_s"],
        "fuzz.oracle_runs": counters.get("fuzz.oracle_runs", 0),
        "fuzz.forced_runs": fuzz.work["forced_runs"],
        "fuzz.oracle_failures": counters.get("fuzz.oracle_failures", 0),
        "obs.trace_overhead_frac": overhead,
    })
    return out
