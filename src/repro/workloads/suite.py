"""The benchmark suite: target registry wiring, scaling, trace caching.

The suite is no longer a closed dict: every workload is a
:class:`~repro.workloads.targets.WorkloadTarget` in the shared
registry — the synthetic kernels register here at import, the stock
scenario families (``repro.workloads.scenarios``) right after, and
trace-file targets whenever a user imports one
(:func:`~repro.workloads.targets.add_trace_target`).  ``SUITE`` remains
as a compatibility view over the synthetic kernels.

This module owns two things the registry deliberately doesn't:

* the bounded trace LRU (:func:`fetch_trace`) keyed on target identity
  ``(name, scale)``, shared by in-process sweeps and every worker
  process;
* suite-level enumeration (:func:`build_suite`, :func:`sweep_names`) —
  default sweeps cover *every* sweep-eligible registered target, so a
  newly registered target automatically joins the figures, the bench,
  and the characterisation table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..envutil import env_int
from ..isa import Program, Trace
from . import kernels
from .targets import (SyntheticTarget, get_target, register_target,
                      scale_params)
from .targets import sweep_names as _registry_sweep_names

#: (name, factory, size params, per-kernel scaling minimums) — names
#: carry the SPEC CPU2017 application each kernel stands in for.
#: ``blender.matmul``'s dim floors at 4, not the default 8: a dim-12
#: kernel floored at 8 would ignore every scale below 0.7.
_KERNEL_SPECS = (
    ("mcf.chase", kernels.pointer_chase, {"steps": 600}, None),
    ("lbm.stream", kernels.stream_triad, {"n": 700}, None),
    ("cactu.stencil", kernels.stencil, {"n": 600}, None),
    ("nab.reduce", kernels.fp_reduction, {"n": 900}, None),
    ("perl.branchy", kernels.branchy, {"n": 800}, None),
    ("xalanc.hash", kernels.hash_probe, {"n": 1000}, None),
    ("gcc.mix", kernels.gcc_mix, {"n": 700}, None),
    ("blender.matmul", kernels.matmul, {"dim": 12}, {"dim": 4}),
    ("sjeng.listupd", kernels.list_update, {"steps": 700}, None),
    ("x264.divint", kernels.div_chain, {"n": 500}, None),
    ("omnet.tree", kernels.tree_search, {"queries": 60}, None),
    ("leela.chains", kernels.mixed_chains, {"iters": 600}, None),
    ("fotonik.strided", kernels.strided_fp, {"n": 900}, None),
    ("mcf.multichase", kernels.multi_chase, {"steps": 400}, None),
)


def _suite_entry(target: SyntheticTarget) -> Callable[[float], Program]:
    def build(scale: float = 1.0) -> Program:
        return target.build_program(scale)
    build.size_params = dict(target.size_params)
    build.target = target
    return build


#: compatibility view: kernel name -> builder taking a ``scale`` factor
SUITE: Dict[str, Callable[[float], Program]] = {}
for _name, _factory, _size, _mins in _KERNEL_SPECS:
    _target = register_target(
        SyntheticTarget(_name, _factory, _size, minimums=_mins),
        replace=True)
    SUITE[_name] = _suite_entry(_target)
del _name, _factory, _size, _mins, _target

# stock scenario families compose the kernels registered above, so
# their registration must come second
from . import scenarios as _scenarios          # noqa: E402
_scenarios.register_default_scenarios()


# traces are megabytes of DynInstr, so the cache is a bounded LRU:
# harness dispatch keeps a worker on the workload it last ran, which
# keeps the working set small and the hit rate high even with a
# handful of slots.  ``$REPRO_TRACE_CACHE`` overrides the bound.
_trace_cache: "OrderedDict[tuple, Trace]" = OrderedDict()
_trace_hits = 0
_trace_misses = 0


def trace_cache_cap() -> int:
    """Trace-LRU bound from ``$REPRO_TRACE_CACHE`` (entries, min 1)."""
    return max(1, env_int("REPRO_TRACE_CACHE", 16))


def trace_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters for this process's trace LRU."""
    return {"hits": _trace_hits, "misses": _trace_misses,
            "entries": len(_trace_cache)}


def clear_trace_cache() -> None:
    """Drop every cached trace and re-arm the counters (test hook)."""
    global _trace_hits, _trace_misses
    _trace_cache.clear()
    _trace_hits = 0
    _trace_misses = 0


def kernel_names() -> List[str]:
    """The synthetic kernel names (the classic suite view)."""
    return list(SUITE)


def sweep_names() -> List[str]:
    """Every registered target a default sweep covers (all kinds)."""
    return _registry_sweep_names()


def generation_params(name: str, scale: float = 1.0) -> Dict[str, int]:
    """The scaled size parameters a synthetic kernel is built with.

    Reflects the *actual* built size (per-kernel minimums included).
    Only synthetic targets have generation parameters; other kinds
    raise ``ValueError`` (their cache identity is the target
    fingerprint instead).
    """
    target = get_target(name)
    if not isinstance(target, SyntheticTarget):
        raise ValueError(f"target {name!r} is {target.kind}; only "
                         f"synthetic kernels have generation parameters")
    return target.params(scale)


def build_program(name: str, scale: float = 1.0) -> Program:
    target = get_target(name)
    if not isinstance(target, SyntheticTarget):
        raise ValueError(f"target {name!r} is {target.kind}; only "
                         f"synthetic kernels build a Program")
    return target.build_program(scale)


def _stamped(trace: Trace, name: str, scale: float) -> Trace:
    """Stamp suite bookkeeping onto a freshly built trace.

    ``name``/``scale`` are what the harness keys on (job construction,
    cache keys, worker rebuilds) — every trace the suite hands out must
    carry them, whichever path built it.
    """
    trace.name = name
    trace.scale = scale
    return trace


def fetch_trace(name: str, scale: float = 1.0) -> Tuple[Trace, bool]:
    """``(trace, was_cache_hit)`` through the bounded LRU.

    The hit flag feeds the harness's per-cell trace-cache accounting
    (``SuiteResult.trace_hits``); callers that don't care use
    :func:`build_trace`.
    """
    global _trace_hits, _trace_misses
    key = (name, scale)
    trace = _trace_cache.get(key)
    if trace is not None:
        _trace_cache.move_to_end(key)
        _trace_hits += 1
        return trace, True
    _trace_misses += 1
    trace = _stamped(get_target(name).build_trace(scale), name, scale)
    _trace_cache[key] = trace
    cap = trace_cache_cap()
    while len(_trace_cache) > cap:
        _trace_cache.popitem(last=False)
    return trace, False


def build_trace(name: str, scale: float = 1.0,
                use_cache: bool = True) -> Trace:
    """Build any registered target's trace (LRU-cached by default).

    Traces are shared objects; runs that mutate per-instruction tags
    (criticality) must clear them afterwards
    (:func:`repro.criticality.clear_tags`).
    """
    if not use_cache:
        return _stamped(get_target(name).build_trace(scale), name, scale)
    return fetch_trace(name, scale)[0]


def build_suite(scale: float = 1.0,
                names: Optional[List[str]] = None) -> Dict[str, Trace]:
    """Traces for every sweep-eligible target (or an explicit subset)."""
    selected = names if names is not None else sweep_names()
    return {name: build_trace(name, scale) for name in selected}
