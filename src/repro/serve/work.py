"""Server-side work-unit execution (pure, picklable, cache-backed).

:func:`execute_unit` is the module-level function the batching scheduler
maps over the shared :class:`~repro.harness.executor.TaskExecutor`.  It
must stay a pure function of its item dict — process pools pickle it by
qualified name, and the response payload for a given request must be
byte-identical to a one-shot CLI invocation of the same work (the
loadgen ``--check`` contract).

Shared state, by scope:

- **across processes and runs** — every build goes through
  :func:`repro.harness.cache.cached_compile`, so all workers (and the
  inline ``jobs=1`` path) share one content-addressed ``.repro-cache/``
  build cache on disk;
- **across requests within a worker process** — one long-lived
  :class:`~repro.analysis.manager.AnalysisManager` is shared by every
  construction phase of every build the worker executes (bounded by
  :data:`MANAGER_RETAIN_LIMIT` functions, then reset), and the worker
  process itself stays warm because the serve executor runs with
  ``persistent=True``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.manager import AnalysisManager
from repro.compiler import CompileResult, format_asm_listing
from repro.core.construction import ConstructionConfig
from repro.harness.cache import cache_key, cached_compile
from repro.ir import format_module
from repro.serve.protocol import config_from_wire

#: Functions retained by the shared per-process AnalysisManager before
#: it is reset (identity-keyed — old modules must not pin memory).
MANAGER_RETAIN_LIMIT = 512

_shared_manager: Optional[AnalysisManager] = None


def shared_manager() -> AnalysisManager:
    """This process's serve-scoped AnalysisManager (bounded retention)."""
    global _shared_manager
    if _shared_manager is None:
        _shared_manager = AnalysisManager()
    elif _shared_manager.retained() > MANAGER_RETAIN_LIMIT:
        _shared_manager.invalidate_all()
    return _shared_manager


def _build(
    source: str, flavour: str, config: ConstructionConfig
) -> CompileResult:
    idempotent = flavour == "idempotent"
    return cached_compile(
        source,
        idempotent=idempotent,
        config=config if idempotent else None,
        manager=shared_manager(),
    )


def execute_unit(item: Dict[str, object]) -> Dict[str, object]:
    """Execute one normalized work request; returns the response payload.

    Payloads are deterministic: no wall-clock, no process-specific
    material — the same request always yields the same payload bytes.
    """
    op = item["op"]
    config = config_from_wire(item.get("config"))
    source = item["source"]
    flavour = item["flavour"]

    if op == "compile":
        if item.get("emit") == "ir":
            return {"emit": "ir", "text": format_ir_oneshot(source, flavour, config)}
        result = _build(source, flavour, config)
        return {"emit": "asm", "text": format_asm_listing(result)}

    if op == "run":
        from repro.sim import Simulator

        result = _build(source, flavour, config)
        sim = Simulator(result.program)
        value = sim.run(item["entry"])
        return {
            "result": value,
            "output": list(sim.output),
            "instructions": sim.instructions,
            "cycles": sim.cycles,
            "boundaries": sim.boundaries_crossed,
        }

    if op == "faults":
        from repro.harness.incremental import (
            incremental_campaign,
            program_fingerprint,
        )
        from repro.sim import Simulator

        entry = item["entry"]
        scheme = item.get("scheme", "idempotent")
        idem = _build(source, "idempotent", config)
        orig = _build(source, "original", config)
        reference_sim = Simulator(idem.program)
        reference = reference_sim.run(entry)
        reference_output = list(reference_sim.output)
        # Campaigns run through the incremental harness: a repeated
        # faults request composes its per-region sections from the
        # content-addressed outcome store instead of re-injecting
        # (hit/miss counters land on the shared metrics registry as
        # ``campaign.store.*`` / ``campaign.trials``).  The store
        # namespace is scoped by the *whole program's* fingerprint so
        # two different sources can never share sections — the payload
        # stays byte-identical to a monolithic campaign of the same
        # request, warm or cold.
        namespace = (
            f"serve:{program_fingerprint(idem.program)[:16]}"
            f":{program_fingerprint(orig.program)[:16]}"
        )

        # Legacy shape: the idempotence scheme campaigns both flavours
        # so clients can see the recovery delta.
        if scheme == "idempotent":
            labels = (("idempotent", None), ("original", None))
        else:
            labels = ((None, scheme),)
        campaigns = {}
        for flavour, backend in labels:
            campaign = incremental_campaign(
                orig.program, idem.program, reference, reference_output,
                trials=item["trials"], func=entry, kind=item["kind"],
                seed=item["seed"], flavour=flavour, backend=backend,
                name=namespace,
            ).result
            campaigns[flavour or backend] = {
                "injected": campaign.injected,
                "recovered": campaign.recovered_correctly,
                "wrong": campaign.wrong_result,
                "crashed": campaign.crashed,
                "undetected": campaign.undetected,
            }
        return {"reference": reference, "scheme": scheme,
                "campaigns": campaigns}

    raise ValueError(f"not a work op: {op!r}")  # guarded by the protocol


def format_ir_oneshot(
    source: str, flavour: str, config: ConstructionConfig
) -> str:
    """Region-marked (or optimized-original) IR, exactly as ``repro
    compile --emit ir`` prints it.

    The CLI's IR path stops before codegen, so this recompiles from
    source rather than reusing a cached machine-code build; the module
    text is byte-stable (PR 4), so server and CLI agree bit for bit.
    """
    from repro.core import construct_module_regions
    from repro.frontend import compile_source
    from repro.transforms import optimize_module

    module = compile_source(source)
    if flavour == "original":
        optimize_module(module)
    else:
        construct_module_regions(module, config, manager=shared_manager())
    return format_module(module) + "\n"


def unit_cache_key(item: Dict[str, object]) -> str:
    """The build-cache key a work item's compile resolves to (for
    observability/tests; mirrors :func:`_build`)."""
    idempotent = item["flavour"] == "idempotent"
    config = config_from_wire(item.get("config")) if idempotent else None
    return cache_key(item["source"], idempotent=idempotent, config=config)
