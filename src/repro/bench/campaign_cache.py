"""``BENCH_campaign_cache.json`` — the incremental-campaign benchmark.

Where ``repro.bench/1`` dumps record compiler phase wall-times, this
schema records what the incremental fault harness
(:mod:`repro.harness.incremental`) is for: the wall-time of one campaign
run **cold** (empty outcome store, every section injected), **warm**
(identical code, every section composed from the store), and after a
**one-function edit** (only the edited function's sections re-inject).
A monolithic :func:`repro.sim.faults.fault_campaign` run of the same
budget is timed alongside as the baseline.

The benchmark is self-verifying: the cold and warm composed results must
be bit-identical to the monolithic campaign, the warm run must inject
zero trials, and every section re-injected after the edit must belong to
the edited function — violations raise :class:`BenchError` rather than
producing a dump that silently overstates the cache.

The two program variants are fixed MiniC sources whose helpers exceed
the cross-function inliner's 40-instruction threshold (so each helper
keeps its own regions) and whose edit — a changed multiplier constant —
preserves the dynamic shape: same instruction counts, same branch
decisions, different machine code for exactly one function.  That makes
the edit the clean demonstration case: unchanged functions' sections
stay fully cached because trial plans and landing regions are identical.
"""

from __future__ import annotations

import json
import platform
import shutil
import tempfile
import time
from dataclasses import asdict
from typing import Dict, List

from repro.bench.runner import BenchError

#: Schema tag stamped into campaign-cache bench dumps.
CAMPAIGN_CACHE_SCHEMA = "repro.campaign.cache/1"

#: The scenarios every dump records, in run order.
_SCENARIOS = ("monolithic", "cold", "warm", "edited")

#: Integer accounting fields of each incremental scenario.
_SECTION_FIELDS = ("sections_total", "sections_reinjected",
                   "trials_injected", "trials_from_store")

#: The function the edited variant changes (everything else is identical).
EDITED_FUNCTION = "mix_b"

#: Stable name scoping the bench's outcome-store keys.  Deliberately the
#: same for the base and edited variants — code identity lives in the
#: per-function fingerprints, which is what makes the edit scenario
#: exercise selective staleness.
_BENCH_NAME = "bench-campaign-cache"

_COMMON_HEADER = """\
// campaign-cache bench: two heavy helpers plus a driver loop.  Each
// helper exceeds the inliner's 40-instruction threshold so it keeps its
// own idempotent regions (and therefore its own outcome-store sections).
int acc[16];

int mix_a(int s) {
  int i;
  int v = s;
  for (i = 0; i < 12; i = i + 1) {
    v = (v * 1103515245 + 12345) % 2147483648;
    v = v + (v >> 3) * 7 - (v >> 5) * 3;
    v = v ^ (v >> 7);
    v = v + i * 11;
    v = v % 65536;
    acc[i % 16] = acc[i % 16] + v % 97;
  }
  return v;
}
"""

_MIX_B = """\

int mix_b(int s) {
  int i;
  int v = s + 17;
  for (i = 0; i < 12; i = i + 1) {
    v = (v * 69069 + 1) % 2147483648;
    v = v + (v >> 2) * 5 - (v >> 6) * 9;
    v = v ^ (v >> 9);
    v = v + i * %MULT%;
    v = v % 65536;
    acc[(i + 8) % 16] = acc[(i + 8) % 16] + v % 89;
  }
  return v;
}
"""

_MAIN = """\

int main() {
  int round;
  int total = 0;
  for (round = 0; round < 6; round = round + 1) {
    total = total + mix_a(round * 3 + 1);
    total = total + mix_b(round * 5 + 2);
  }
  print_int(total);
  return total;
}
"""

#: Base program and its one-function edit (mix_b's multiplier changes;
#: instruction counts and branch decisions are identical).
BASE_SOURCE = _COMMON_HEADER + _MIX_B.replace("%MULT%", "13") + _MAIN
EDITED_SOURCE = _COMMON_HEADER + _MIX_B.replace("%MULT%", "29") + _MAIN


def _compile_pair(source: str):
    from repro.compiler import compile_minic

    original = compile_minic(source, idempotent=False)
    idempotent = compile_minic(source, idempotent=True)
    return original, idempotent


def run_campaign_cache_bench(
    trials: int = 48,
    seed: int = 20126,
    kind: str = "value",
    latency: int = 0,
    label: str = "campaign-cache",
) -> dict:
    """Time monolithic vs cold/warm/edited incremental campaigns.

    Uses a private temporary outcome store, so the run is hermetic: the
    machine's ``.repro-cache`` is neither read nor written.
    """
    from repro import repro_version
    from repro.harness.campaign import reference_run
    from repro.harness.incremental import (
        OutcomeStore,
        function_fingerprint,
        incremental_campaign,
        region_owner,
        trace_eligibility,
    )
    from repro.sim.faults import fault_campaign

    base_orig, base_idem = _compile_pair(BASE_SOURCE)
    edit_orig, edit_idem = _compile_pair(EDITED_SOURCE)
    for program in (base_idem.program, edit_idem.program):
        for name in ("mix_a", EDITED_FUNCTION, "main"):
            if name not in program.functions:
                raise BenchError(
                    f"bench program lost function {name!r} "
                    f"(inlined? raise its instruction count)"
                )
    for name in ("mix_a", "main"):
        if (function_fingerprint(base_idem.program, name)
                != function_fingerprint(edit_idem.program, name)):
            raise BenchError(
                f"edit leaked into {name!r}: the edited variant must "
                f"change only {EDITED_FUNCTION!r}"
            )
    if (function_fingerprint(base_idem.program, EDITED_FUNCTION)
            == function_fingerprint(edit_idem.program, EDITED_FUNCTION)):
        raise BenchError(f"edit did not change {EDITED_FUNCTION!r}")
    base_trace = trace_eligibility(base_idem.program)
    edit_trace = trace_eligibility(edit_idem.program)
    if (base_trace.span != edit_trace.span
            or base_trace.value_events != edit_trace.value_events):
        raise BenchError(
            "edit is not shape-preserving: trial plans differ between "
            "variants, so the edited scenario would top-up unchanged "
            "sections"
        )

    base_ref, base_out = reference_run(base_idem.program, _BENCH_NAME, "main")
    edit_ref, edit_out = reference_run(edit_idem.program, _BENCH_NAME, "main")

    scenarios: Dict[str, dict] = {}
    start = time.perf_counter()
    mono = fault_campaign(
        base_idem.program, base_ref, base_out, trials=trials,
        kind=kind, seed=seed, detection_latency=latency,
    )
    scenarios["monolithic"] = {
        "seconds": round(time.perf_counter() - start, 6),
    }

    store_dir = tempfile.mkdtemp(prefix="repro-campaign-cache-")
    try:
        store = OutcomeStore(root=store_dir)

        def _scenario(name, idem, orig, ref, out):
            start = time.perf_counter()
            run = incremental_campaign(
                orig.program, idem.program, ref, out, trials=trials,
                kind=kind, seed=seed, detection_latency=latency,
                flavour="idempotent", name=_BENCH_NAME, store=store,
            )
            seconds = time.perf_counter() - start
            scenarios[name] = {
                "seconds": round(seconds, 6),
                "sections_total": len(run.sections),
                "sections_reinjected": run.sections_reinjected,
                "trials_injected": run.trials_injected,
                "trials_from_store": run.trials_from_store,
            }
            return run

        cold = _scenario("cold", base_idem, base_orig, base_ref, base_out)
        if asdict(cold.result) != asdict(mono):
            raise BenchError(
                f"cold composed result diverged from the monolithic "
                f"campaign: {asdict(cold.result)} != {asdict(mono)}"
            )
        warm = _scenario("warm", base_idem, base_orig, base_ref, base_out)
        if warm.trials_injected or warm.sections_reinjected:
            raise BenchError(
                f"warm re-run injected {warm.trials_injected} trials over "
                f"{warm.sections_reinjected} sections (expected 0)"
            )
        if asdict(warm.result) != asdict(cold.result):
            raise BenchError("warm composed result diverged from cold")

        edited = _scenario("edited", edit_idem, edit_orig, edit_ref, edit_out)
        edited_regions: List[str] = []
        for status in edited.sections:
            if status.status == "cached":
                continue
            owner = region_owner(status.region, "main")
            if owner != EDITED_FUNCTION:
                raise BenchError(
                    f"edited scenario re-injected section {status.region!r} "
                    f"owned by unchanged function {owner!r} "
                    f"({status.reason})"
                )
            edited_regions.append(status.region)
        if not edited_regions:
            raise BenchError(
                f"edited scenario re-injected nothing: no faults landed "
                f"in {EDITED_FUNCTION!r} (raise trials)"
            )
        edit_mono = fault_campaign(
            edit_idem.program, edit_ref, edit_out, trials=trials,
            kind=kind, seed=seed, detection_latency=latency,
        )
        edited_bit_identical = asdict(edited.result) == asdict(edit_mono)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    cold_s = scenarios["cold"]["seconds"]
    warm_s = scenarios["warm"]["seconds"]
    return {
        "schema": CAMPAIGN_CACHE_SCHEMA,
        "label": label,
        "version": repro_version(),
        "trials": trials,
        "seed": seed,
        "kind": kind,
        "latency": latency,
        "edited_function": EDITED_FUNCTION,
        "edited_regions": sorted(edited_regions),
        "bit_identical": {
            "cold": True,   # hard-asserted above
            "warm": True,   # hard-asserted above
            "edited": bool(edited_bit_identical),
        },
        "warm_speedup": round(cold_s / warm_s, 3) if warm_s > 0 else None,
        "scenarios": scenarios,
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def write_campaign_cache_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_campaign_cache_file(path: str) -> dict:
    """Read and schema-validate a campaign-cache dump; returns it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(
            f"{path}: unreadable campaign-cache bench dump ({exc})"
        ) from exc
    if (not isinstance(payload, dict)
            or payload.get("schema") != CAMPAIGN_CACHE_SCHEMA):
        schema = payload.get("schema") if isinstance(payload, dict) else None
        raise BenchError(
            f"{path}: not a {CAMPAIGN_CACHE_SCHEMA} dump (schema={schema!r})"
        )
    for field in ("label", "version", "kind", "edited_function"):
        if not isinstance(payload.get(field), str):
            raise BenchError(f"{path}: missing string {field!r}")
    for field in ("trials", "seed", "latency"):
        if not isinstance(payload.get(field), int):
            raise BenchError(f"{path}: missing integer {field!r}")
    bits = payload.get("bit_identical")
    if not isinstance(bits, dict) or not all(
        isinstance(bits.get(name), bool) for name in ("cold", "warm", "edited")
    ):
        raise BenchError(f"{path}: missing bit_identical booleans")
    scenarios = payload.get("scenarios")
    if not isinstance(scenarios, dict):
        raise BenchError(f"{path}: missing scenarios section")
    for name in _SCENARIOS:
        scenario = scenarios.get(name)
        if not isinstance(scenario, dict):
            raise BenchError(f"{path}: missing scenario {name!r}")
        if not isinstance(scenario.get("seconds"), (int, float)):
            raise BenchError(f"{path}: scenario {name!r} lacks seconds")
        if name == "monolithic":
            continue
        for field in _SECTION_FIELDS:
            if not isinstance(scenario.get(field), int):
                raise BenchError(
                    f"{path}: scenario {name!r} lacks integer {field!r}"
                )
    if not isinstance(payload.get("edited_regions"), list):
        raise BenchError(f"{path}: missing edited_regions list")
    return payload


def validate_campaign_cache_file(path: str) -> int:
    """Schema-check a campaign-cache dump; returns its scenario count."""
    return len(load_campaign_cache_file(path)["scenarios"])


def summarize_campaign_cache(payload: dict) -> str:
    """Human rendering of a campaign-cache dump (``repro stats`` view)."""
    scenarios = payload["scenarios"]
    bits = payload["bit_identical"]
    lines = [
        f"label: {payload['label']}  version: {payload['version']}  "
        f"trials: {payload['trials']}  seed: {payload['seed']}  "
        f"kind: {payload['kind']}  latency: {payload['latency']}",
        f"  {'scenario':12s} {'seconds':>9s} {'sections':>9s} "
        f"{'re-inj':>7s} {'injected':>9s} {'cached':>7s}",
    ]
    for name in _SCENARIOS:
        scenario = scenarios[name]
        if name == "monolithic":
            lines.append(
                f"  {name:12s} {scenario['seconds']:9.3f} "
                f"{'-':>9s} {'-':>7s} {'-':>9s} {'-':>7s}"
            )
            continue
        lines.append(
            f"  {name:12s} {scenario['seconds']:9.3f} "
            f"{scenario['sections_total']:9d} "
            f"{scenario['sections_reinjected']:7d} "
            f"{scenario['trials_injected']:9d} "
            f"{scenario['trials_from_store']:7d}"
        )
    speedup = payload.get("warm_speedup")
    lines.append(
        f"  warm speedup {speedup:.1f}x over cold"
        if isinstance(speedup, (int, float)) else "  warm speedup n/a"
    )
    lines.append(
        f"  bit-identical: cold={bits['cold']} warm={bits['warm']} "
        f"edited={bits['edited']} "
        f"(edit re-injected {len(payload['edited_regions'])} sections of "
        f"{payload['edited_function']})"
    )
    return "\n".join(lines)
