"""Benchmark of the idempotent-processing compiler, simulator and harness.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 40 --trace 0

The workloads are ``campaign`` and ``fuzz`` (see ``perfbench/README.md``).
Each is a closed loop on one thread: the next op starts when the
previous one has finished and been checked.

``--trace 0`` sets up once untimed and then several times timed
(``setup_s`` is the median), warms up with one whole pass of every
kind, then interleaves the workload's own op kind (three quarters of
the time) with side samples of the ``compile``, ``simulate`` and the
other workload's kind until ``--seconds`` have passed and every kind
has finished its pass, and reports the end-to-end metrics named in
``BENCHMARK.json``.
Set-up and op times are host intervals converted by a
:class:`hostspeed.HostClock` calibrated around every step.

``--trace 1`` warms up, then runs set-up plus one fixed pass of every
kind twice, step by step in alternation — untraced, and traced with an
enabled ``repro.obs`` Observer and the :mod:`layers` probes — and
reports the per-layer metrics of the traced pass.  The passes execute
the same ops, so every program counter must come out identical;
``obs.trace_overhead_frac`` is the traced pass's extra wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Timed set-up repetitions per ``--trace 0`` run, after an untimed
#: cold one; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of a ``--trace 0`` run's time given to the workload's own kind;
#: the side samples of the other three kinds split the rest.
PRIMARY_SHARE = 0.75


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_units(section: str):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


def _build_kinds(workload: str, seed: int, workdir: str, clock):
    """One instance of every kind, each drawing from its own sub-seed."""
    from kinds import KINDS

    rng = random.Random(seed)
    return [cls(random.Random(rng.randrange(1 << 63)), cls.name == workload, workdir, clock)
            for cls in KINDS]


def _setup(kinds) -> None:
    for kind in kinds:
        for _ in kind.setup():
            pass


def _timed_setup(kinds, clock) -> float:
    """Set up ``kinds``, calibrating ``clock`` around every step; returns
    the set-up time on it."""
    intervals = []
    clock.calibrate()
    for kind in kinds:
        start = time.perf_counter()
        for _ in kind.setup():
            intervals.append((start, time.perf_counter()))
            clock.calibrate()
            start = time.perf_counter()
        intervals.append((start, time.perf_counter()))
        clock.calibrate()
    return sum(clock.seconds(start, end) for start, end in intervals)


def _interleave(kinds, tallies, seconds: float, clock) -> None:
    """Closed loop over every kind, one step at a time, for ``seconds``.

    The next step goes to the kind furthest below its share of the time
    spent so far, so every metric is measured across the whole run and
    host speed drift hits all of them alike; ``clock`` is calibrated
    around every step.  After the deadline each
    kind finishes the pass it is in: a run covers whole passes only, and
    at least one of every kind.
    """
    from kinds import advance

    share = {k.name: PRIMARY_SHARE if k.primary else (1 - PRIMARY_SHARE) / (len(kinds) - 1)
             for k in kinds}
    spent = dict.fromkeys(share, 0.0)
    active = {k.name: (k, k.steps(tallies[k.name])) for k in kinds}
    start = time.perf_counter()
    while active:
        name = min(active, key=lambda n: spent[n] / share[n])
        kind, steps = active[name]
        clock.calibrate()
        began = time.perf_counter()
        running = advance(steps, tallies[name], f"{name} step")
        spent[name] += time.perf_counter() - began
        if not running:
            if time.perf_counter() - start < seconds:
                active[name] = (kind, kind.steps(tallies[name]))
            else:
                del active[name]
    clock.calibrate()


def _end_to_end(args, workdir: str):
    from hostspeed import HostClock
    from kinds import Tally

    clock = HostClock()
    _setup(_build_kinds(args.workload, args.seed, workdir, clock))
    setups = []
    for _ in range(SETUP_REPEATS):
        kinds = _build_kinds(args.workload, args.seed, workdir, clock)
        setups.append(_timed_setup(kinds, clock))
    tallies = {kind.name: Tally() for kind in kinds}
    for kind in kinds:
        kind.warmup(tallies[kind.name])
    _interleave(kinds, tallies, args.seconds, clock)

    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for kind in kinds:
        metrics.update(kind.metrics(tallies[kind.name]))
    return metrics, tallies, True


class _Pass:
    """Set-up plus one pass of every kind, under an Observer of its own."""

    def __init__(self, args, workdir: str, traced: bool) -> None:
        from hostspeed import HostClock
        from kinds import Tally
        from layers import Probe
        from repro.obs import Observer

        self.traced = traced
        self.observer = Observer(enabled=traced)
        self.probe = Probe()
        self.kinds = _build_kinds(args.workload, args.seed, workdir, HostClock())
        self.tallies = {kind.name: Tally() for kind in self.kinds}
        self.seconds = 0.0

    @contextlib.contextmanager
    def active(self):
        """Make this pass's Observer (and, traced, the probes) current, timed."""
        from repro.obs import set_observer

        previous = set_observer(self.observer)
        start = time.perf_counter()
        try:
            with self.probe if self.traced else contextlib.nullcontext():
                yield
        finally:
            self.seconds += time.perf_counter() - start
            set_observer(previous)


def _per_layer(args, workdir: str):
    from hostspeed import HostClock
    from kinds import Tally, advance
    from layers import counter_totals, layer_metrics

    warm = _build_kinds(args.workload, args.seed, workdir, HostClock())
    _setup(warm)
    scratch = {kind.name: Tally() for kind in warm}
    for kind in warm:
        kind.warmup(scratch[kind.name])

    # An untraced and a traced pass over the same ops, alternating step
    # by step (and which goes first), so host speed drift cancels out of
    # the tracing overhead; identical ops must leave identical counters.
    plain = _Pass(args, workdir, traced=False)
    traced = _Pass(args, workdir, traced=True)
    order = [plain, traced]
    for index, name in enumerate(kind.name for kind in warm):
        for run in order:
            with run.active():
                _setup([run.kinds[index]])
        order.reverse()
        steps = {run: run.kinds[index].steps(run.tallies[name]) for run in order}
        while steps:
            for run in [run for run in order if run in steps]:
                with run.active():
                    if not advance(steps[run], run.tallies[name], f"{name} step"):
                        del steps[run]
            order.reverse()

    counts = counter_totals(traced.observer)
    plain_counts = counter_totals(plain.observer)
    counts_repeat = plain_counts == counts
    if not counts_repeat:
        changed = sorted(k for k in set(plain_counts) | set(counts)
                         if plain_counts.get(k) != counts.get(k))
        print(f"perfbench: counters differ between passes: {changed}", file=sys.stderr)
    metrics = layer_metrics(traced.observer, traced.probe, counts, traced.tallies,
                            overhead=traced.seconds / plain.seconds - 1.0)
    for extra in (scratch, plain.tallies):
        for name, tally in extra.items():
            traced.tallies[name].absorb_checks(tally)
    return metrics, traced.tallies, counts_repeat


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    # Nothing may reach a shared on-disk cache: point the default cache
    # root into this run's directory and keep the outcome store enabled.
    os.environ["REPRO_CACHE_DIR"] = workdir
    os.environ.pop("REPRO_CACHE_DISABLE", None)
    try:
        if args.trace:
            section = "per_layer"
            metrics, tallies, counts_repeat = _per_layer(args, workdir)
        else:
            section = "end_to_end"
            metrics, tallies, counts_repeat = _end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    units = _metric_units(section)
    if set(units) != set(metrics):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        print(f"perfbench: metric set mismatch: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 1
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    for name in units:
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
