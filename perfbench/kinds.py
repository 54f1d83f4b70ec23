"""The four kinds of operation the benchmark drives.

Each kind draws its inputs from a ``random.Random`` derived from the
workload seed, builds its references in :meth:`Kind.setup` (timed as
set-up), and yields one *pass* over a fixed op list from
:meth:`Kind.steps`; both yield after each short step.  A pass records
per-op latency, work counts and check results into a :class:`Tally`.
Every step records the host intervals of its own work, which
:meth:`Kind.metrics` converts with the run's
:class:`~hostspeed.HostClock`, so steps of different kinds may be
interleaved without one kind's time leaking into another's metrics.

``campaign`` and ``fuzz`` are the workloads; each runs its own kind as
the *primary* (a seeded draw) and the other three as *side samples*, so
that every run reports every end-to-end metric.  ``compile`` and
``simulate`` only ever run as side samples.  A side sample is an input
set of fixed composition: a seeded choice of programs would put the
draw, not the code, into the run-to-run spread of its metrics.

Everything runs in this process on one thread: no ``TaskExecutor``
workers, no artifact cache, and campaign stores in fresh temporary
directories under the benchmark's work directory.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro import obs
from repro.compiler import compile_minic, format_asm_listing
from repro.frontend import compile_source
from repro.fuzz.generator import generate, trial_seed
from repro.fuzz.oracle import check_source
from repro.harness.incremental import OutcomeStore, incremental_campaign
from repro.interp import Interpreter
from repro.recovery.backends import BACKEND_NAMES, get_backend
from repro.sim import Simulator
from repro.sim.faults import FAULT_CONTROL, FAULT_VALUE
from repro.workloads import all_workloads, get_workload

#: Simulate side sample: 1.3-1.5 x 10^5 instructions per run of either flavour.
SIMULATE_PROGRAM = "blackscholes"

#: The campaign workload's program.  bzip2 and soplex, the other small
#: programs, inject 10% and 40% slower than blackscholes per trial, so a
#: seeded choice among them would dominate the spread of trials/s.
CAMPAIGN_PROGRAM = "blackscholes"
#: Trials per (backend, fault kind) in one campaign request.
CAMPAIGN_TRIALS = 2
FAULT_KINDS = (FAULT_VALUE, FAULT_CONTROL)
#: Campaign side sample: small generated programs (~0.3-1.6k instructions).
SIDE_CAMPAIGN_GEN_SEEDS = tuple(range(6))
#: Backends whose every injected trial must recover at latency 0.  The
#: checkpoint-and-log backend does not (see perfbench/README.md, *Known
#: defect*); its requests are checked against a reference campaign.
FULL_RECOVERY_BACKENDS = ("idempotent", "tmr")
REFERENCE_BACKENDS = tuple(b for b in BACKEND_NAMES if b not in FULL_RECOVERY_BACKENDS)

#: Forced-recovery points per oracle mode: 2 x 8 forced runs + 3 plain
#: runs per program, as the fuzz tests use.
FUZZ_MAX_FORCED = 8
#: Generated programs per pass of the fuzz workload.
FUZZ_PASS = 24
SIDE_FUZZ_GEN_SEEDS = tuple(range(100, 116))


#: (start, end) of a stretch of work, in ``time.perf_counter`` seconds
Interval = Tuple[float, float]


@dataclass
class Tally:
    """What one kind did during a phase of a run."""

    attempted: int = 0
    failed: int = 0
    #: input -> one entry per op: the intervals the op ran in
    latencies: Dict[object, List[List[Interval]]] = field(
        default_factory=lambda: defaultdict(list))
    #: name -> (interval, weight) pairs whose weighted sum is a time
    spent: Dict[str, List[Tuple[Interval, float]]] = field(
        default_factory=lambda: defaultdict(list))
    #: work counts, and host seconds reported only per layer
    work: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: (start_ns, end_ns) of each campaign request part, perf_counter_ns clock
    windows: List[Tuple[int, int]] = field(default_factory=list)

    def check(self, label: str, ok: bool) -> None:
        self.count(label, 1, 0 if ok else 1)

    def count(self, label: str, attempted: int, failed: int) -> None:
        """Record ``attempted`` checked ops, ``failed`` of them wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"perfbench: FAILED {failed} of {attempted}: {label}", file=sys.stderr)

    def error(self, label: str) -> None:
        """An op that raised: one attempted, one failed."""
        traceback.print_exc(file=sys.stderr)
        self.count(label, 1, 1)

    def absorb_checks(self, other: "Tally") -> None:
        """Count another tally's ops (a warm-up) without its timings."""
        self.attempted += other.attempted
        self.failed += other.failed


def advance(steps: Iterator[None], tally: Tally, label: str) -> bool:
    """Run the next step of a pass; False once the pass is over.

    A step that raises ends its pass and counts as one failed op.
    """
    try:
        next(steps)
        return True
    except StopIteration:
        return False
    except Exception:
        tally.error(label)
        return False


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method; exact for small samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _op_seconds(clock, op: List[Interval]) -> float:
    return sum(clock.seconds(start, end) for start, end in op)


def _spent(clock, tally: Tally, name: str) -> float:
    return sum(weight * clock.seconds(start, end) for (start, end), weight in tally.spent[name])


def _per_input(clock, tally: Tally) -> List[float]:
    """One latency per distinct input, the median of its repeats, so a
    percentile does not shift with how many passes a run completed."""
    return [statistics.median(_op_seconds(clock, op) for op in ops)
            for ops in tally.latencies.values()]


def _ops_per_s(clock, tally: Tally) -> float:
    ops = [op for ops in tally.latencies.values() for op in ops]
    return len(ops) / sum(_op_seconds(clock, op) for op in ops)


class Kind:
    """One kind of operation; subclasses define the inputs and the steps."""

    name = ""

    def __init__(self, rng, primary: bool, workdir: str, clock) -> None:
        self.primary = primary
        self.workdir = workdir
        self.clock = clock

    def setup(self) -> Iterator[None]:
        """Build compiled programs and reference results (timed set-up),
        yielding after each short step."""
        return iter(())

    def steps(self, tally: Tally) -> Iterator[None]:
        """One pass over the op list, yielding after each short step."""
        raise NotImplementedError

    def warmup(self, tally: Tally) -> None:
        """Run one whole pass untimed, so no timed op is a cold one."""
        self._untimed(self.steps, tally)

    def _untimed(self, steps_of, tally: Tally) -> None:
        """Drain ``steps_of(scratch)``, counting its checks but not its timings."""
        scratch = Tally()
        steps = steps_of(scratch)
        while advance(steps, scratch, f"{self.name} warm-up"):
            pass
        tally.absorb_checks(scratch)

    def metrics(self, tally: Tally) -> Dict[str, float]:
        raise NotImplementedError


class CompileKind(Kind):
    """All suite programs compiled from source in both flavours (no sim)."""

    name = "compile"

    def __init__(self, rng, primary, workdir, clock):
        super().__init__(rng, primary, workdir, clock)
        self.inputs = [(w.name, idem) for w in all_workloads() for idem in (False, True)]

    def setup(self):
        self.sources = {name: get_workload(name).source for name, _ in self.inputs}
        self.listings = {}
        for name, idem in self.inputs:
            self.listings[(name, idem)] = format_asm_listing(
                compile_minic(self.sources[name], idempotent=idem, name=name)
            )
            yield

    def steps(self, tally):
        for name, idem in self.inputs:
            start = time.perf_counter()
            result = compile_minic(self.sources[name], idempotent=idem, name=name)
            tally.latencies[(name, idem)].append([(start, time.perf_counter())])
            tally.check(f"compile {name} idempotent={idem}: listing repeats",
                        format_asm_listing(result) == self.listings[(name, idem)])
            yield

    def metrics(self, tally):
        lat = _per_input(self.clock, tally)
        return {
            "compile.programs_per_s": _ops_per_s(self.clock, tally),
            "compile.p50_ms": 1e3 * statistics.median(lat),
            "compile.p90_ms": 1e3 * _quantile(lat, 90),
        }


class SimulateKind(Kind):
    """Fault-free timed runs of original and idempotent binaries."""

    name = "simulate"

    def __init__(self, rng, primary, workdir, clock):
        super().__init__(rng, primary, workdir, clock)
        self.inputs = [(SIMULATE_PROGRAM, idem) for idem in (False, True)]
        #: (name, idempotent) -> (instructions, cycles, boundaries) first seen
        self.counts: Dict[Tuple[str, bool], Tuple[int, int, int]] = {}

    def setup(self):
        self.programs = {}
        self.references = {}
        for name, idem in self.inputs:
            workload = get_workload(name)
            self.programs[(name, idem)] = compile_minic(
                workload.source, idempotent=idem, name=name
            ).program
            yield
            if name not in self.references:
                interp = Interpreter(compile_source(workload.source, name))
                result = interp.run(workload.entry)
                self.references[name] = (result, list(interp.output))
                yield

    def steps(self, tally):
        for name, idem in self.inputs:
            start = time.perf_counter()
            sim = Simulator(self.programs[(name, idem)])
            result = sim.run(get_workload(name).entry)
            tally.spent["runs"].append(((start, time.perf_counter()), 1.0))
            tally.work["insns"] += sim.instructions
            counts = (sim.instructions, sim.cycles, sim.boundaries_crossed)
            first = self.counts.setdefault((name, idem), counts)
            reference, output = self.references[name]
            tally.check(f"simulate {name} idempotent={idem}: matches interp, counts repeat",
                        result == reference and sim.output == output and counts == first)
            yield

    def metrics(self, tally):
        return {"sim.insns_per_s": tally.work["insns"] / _spent(self.clock, tally, "runs")}


@dataclass
class _CampaignProgram:
    name: str
    original: object
    idempotent: object
    #: (backend, fault kind) -> campaign unit seed
    seeds: Dict[Tuple[str, str], int]


@dataclass
class _Request:
    buckets: Dict[Tuple[str, str], dict] = field(default_factory=dict)
    #: backend -> (interval, share of it) charged to the backend
    spent: Dict[str, List[Tuple[Interval, float]]] = field(
        default_factory=lambda: {b: [] for b in BACKEND_NAMES})
    injected: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(BACKEND_NAMES, 0))
    #: the intervals the whole request ran in
    parts: List[Interval] = field(default_factory=list)


class CampaignKind(Kind):
    """Store-backed campaigns requested twice: cold store, then read-back."""

    name = "campaign"

    #: (program, backend, fault kind, unit seed) -> buckets of the same
    #: campaign through ``backend.campaign`` (the monolithic path), filled
    #: by the untimed warm-up.  Shared by every instance in the process,
    #: so the passes of a ``--trace 1`` run reuse the warm-up's.
    expected: Dict[Tuple[str, str, str, int], dict] = {}

    def __init__(self, rng, primary, workdir, clock):
        super().__init__(rng, primary, workdir, clock)
        if primary:
            self.inputs = [(CAMPAIGN_PROGRAM, get_workload(CAMPAIGN_PROGRAM).source)]
        else:
            self.inputs = [(f"gen{s}", generate(s).source) for s in SIDE_CAMPAIGN_GEN_SEEDS]
        self.seeds = {
            name: {(b, k): rng.randrange(1 << 31) for b in BACKEND_NAMES for k in FAULT_KINDS}
            for name, _ in self.inputs
        }

    def setup(self):
        self.programs = []
        for name, source in self.inputs:
            original = compile_minic(source, idempotent=False, name=name).program
            yield
            idempotent = compile_minic(source, idempotent=True, name=name).program
            yield
            self.programs.append(_CampaignProgram(name, original, idempotent, self.seeds[name]))

    @staticmethod
    def _timed(tally: Tally, request: _Request, fn):
        """Run one part of a request; returns (interval, value)."""
        runs = obs.counter("sim.runs")
        runs_before = runs.total()
        start_ns = time.perf_counter_ns()
        value = fn()
        end_ns = time.perf_counter_ns()
        tally.windows.append((start_ns, end_ns))
        tally.work["request_sim_runs"] += runs.total() - runs_before
        interval = (start_ns / 1e9, end_ns / 1e9)
        request.parts.append(interval)
        return interval, value

    def warmup(self, tally):
        """Untimed: the reference campaigns of every program, then one
        whole pair on the first side-sample program, which runs every
        code path of a blackscholes pair in a fraction of the time."""
        source = generate(SIDE_CAMPAIGN_GEN_SEEDS[0]).source
        prog = _CampaignProgram(
            name="warm-up",
            original=compile_minic(source, idempotent=False, name="warm-up").program,
            idempotent=compile_minic(source, idempotent=True, name="warm-up").program,
            seeds={(b, k): 0 for b in BACKEND_NAMES for k in FAULT_KINDS},
        )
        for each in [prog] + self.programs:
            self._expect(each)
        self._untimed(lambda scratch: self._pair(scratch, prog), tally)

    def _expect(self, prog: _CampaignProgram) -> None:
        """Run the reference campaigns of ``prog`` not yet in :attr:`expected`."""
        reference, output = self._reference(prog)
        for backend in REFERENCE_BACKENDS:
            for kind in FAULT_KINDS:
                key = (prog.name, backend, kind, prog.seeds[(backend, kind)])
                if key not in self.expected:
                    self.expected[key] = vars(get_backend(backend).campaign(
                        prog.original, prog.idempotent, reference, output,
                        trials=CAMPAIGN_TRIALS, func="main", kind=kind,
                        seed=key[3], detection_latency=0,
                    )).copy()

    def _reference(self, prog: _CampaignProgram):
        sim = Simulator(prog.idempotent)
        return sim.run("main"), list(sim.output)

    def _request(self, tally: Tally, prog: _CampaignProgram, store: OutcomeStore):
        """One request, as ``serve`` and ``recovery compare --use-store``
        issue it: a reference run, then every backend x fault kind through
        the store-backed entry point.  Yields after each part."""
        request = _Request()
        part, (reference, output) = self._timed(tally, request, lambda: self._reference(prog))
        for backend in BACKEND_NAMES:
            request.spent[backend].append((part, 1 / len(BACKEND_NAMES)))
        yield
        for backend in BACKEND_NAMES:
            for kind in FAULT_KINDS:
                part, run = self._timed(tally, request, lambda: incremental_campaign(
                    prog.original, prog.idempotent, reference, output,
                    trials=CAMPAIGN_TRIALS, func="main", kind=kind,
                    seed=prog.seeds[(backend, kind)], detection_latency=0,
                    backend=get_backend(backend), name=prog.name, store=store,
                ))
                request.spent[backend].append((part, 1.0))
                request.injected[backend] += run.trials_injected
                request.buckets[(backend, kind)] = vars(run.result).copy()
                yield
        tally.work["requests"] += 1
        return request

    def _pair(self, tally: Tally, prog: _CampaignProgram):
        """First request into a fresh store, second one read back from it.

        Every injected trial of a full-recovery backend is an op of its
        own, checked for a correct recovery (latency 0).  Each campaign
        of the other backends is one op, checked for buckets equal to
        its reference campaign.  The read-back is one more op, checked
        for a second request that injects nothing and composes the same
        buckets.
        """
        root = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        try:
            store = OutcomeStore(root=root)
            first = yield from self._request(tally, prog, store)
            second = yield from self._request(tally, prog, store)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        for backend in BACKEND_NAMES:
            tally.work[f"trials.{backend}"] += first.injected[backend]
            tally.spent[backend].extend(first.spent[backend])
        tally.latencies[prog.name].append(second.parts)
        for (backend, kind), buckets in first.buckets.items():
            tally.work[f"injected.{backend}"] += buckets["injected"]
            tally.work[f"recovered.{backend}"] += buckets["recovered_correctly"]
            label = f"campaign {prog.name} {backend}/{kind}"
            lost = buckets["injected"] - buckets["recovered_correctly"]
            if backend in FULL_RECOVERY_BACKENDS:
                tally.count(f"{label}: injected trials recovered", buckets["injected"], lost)
                continue
            tally.check(f"{label}: buckets equal the reference campaign's",
                        buckets == self.expected[(prog.name, backend, kind,
                                                  prog.seeds[(backend, kind)])])
            if lost:
                print(f"perfbench: known defect: {label}: {lost} of {buckets['injected']} "
                      f"injected trials not recovered at latency 0", file=sys.stderr)
        tally.check(f"campaign {prog.name}: read-back injects nothing, same buckets",
                    not any(second.injected.values()) and second.buckets == first.buckets)

    def steps(self, tally):
        for prog in self.programs:
            yield from self._pair(tally, prog)

    def metrics(self, tally):
        out = {
            f"campaign.trials_per_s.{b}": tally.work[f"trials.{b}"] / _spent(self.clock, tally, b)
            for b in BACKEND_NAMES
        }
        out["campaign.compose_s"] = statistics.median(_per_input(self.clock, tally))
        return out


class FuzzKind(Kind):
    """Generated programs checked by the full ``check_source`` oracle stack."""

    name = "fuzz"

    def __init__(self, rng, primary, workdir, clock):
        super().__init__(rng, primary, workdir, clock)
        self.base = rng.randrange(1 << 31)
        self.next_index = 0

    def _seeds(self) -> List[int]:
        """The primary walks an endless seeded stream, a pass at a time."""
        if not self.primary:
            return list(SIDE_FUZZ_GEN_SEEDS)
        first = self.next_index
        self.next_index += FUZZ_PASS
        return [trial_seed(self.base, i) for i in range(first, self.next_index)]

    def steps(self, tally):
        for seed in self._seeds():
            start = time.perf_counter()
            source = generate(seed).source
            generated = time.perf_counter()
            report = check_source(source, max_forced=FUZZ_MAX_FORCED)
            end = time.perf_counter()
            tally.latencies[seed].append([(start, end)])
            tally.work["generate_s"] += generated - start
            tally.work["oracle_s"] += end - generated
            tally.work["forced_runs"] += report.forced_runs
            tally.check(f"fuzz generator seed {seed}: oracles agree", report.ok)
            yield

    def metrics(self, tally):
        return {
            "fuzz.programs_per_s": _ops_per_s(self.clock, tally),
            "fuzz.p90_ms": 1e3 * _quantile(_per_input(self.clock, tally), 90),
        }


KINDS = (CompileKind, SimulateKind, CampaignKind, FuzzKind)
