"""Fixed-input probes of two layers, run by every traced pass.

* ``core_probe`` — median nanoseconds per call to the public matrix
  primitives (``AgeMatrix``, ``MergedCommitMatrix``, ``WakeupMatrix``,
  ``BitMatrix``) on half-full matrices of base (IQ 97 / ROB 224) and
  ultra (IQ 224 / ROB 512) size, filled from a fixed NumPy seed.  State
  changes between calls happen outside the timed call.
* ``saturated_lane_probe`` — ``repro.profiling.profile_lanes`` on eight
  copies of gcc.mix and of mcf.chase: the split of a full lane batch
  between per-lane scalar stage ticks and the fused vector kernels.

Both measure the layer alone, so they read the same on every workload.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SAMPLES = 2000


def _median_ns(call, prepare=None, samples: int = SAMPLES) -> float:
    times = []
    clock = time.perf_counter_ns
    for _ in range(samples):
        if prepare is not None:
            prepare()
        start = clock()
        call()
        times.append(clock() - start)
    return float(statistics.median(times))


def _half(rng, size: int):
    return [int(e) for e in rng.permutation(size)[:size // 2]]


def _select_oldest_ns(config, rng) -> float:
    from repro.core import AgeMatrix
    age = AgeMatrix(config.iq_size)
    for entry in _half(rng, config.iq_size):
        age.dispatch(entry)
    request = age.valid & (rng.random(config.iq_size) < 0.5)
    out = np.empty(config.iq_size, dtype=bool)
    return _median_ns(lambda: age.select_oldest(request, config.issue_width,
                                                out=out))


def _select_commit_ns(config, rng) -> float:
    from repro.core import MergedCommitMatrix
    merged = MergedCommitMatrix(config.rob_size)
    entries = _half(rng, config.rob_size)
    for entry in entries:
        merged.dispatch(entry, bool(rng.random() < 0.3))
    completed = rng.random(config.rob_size) < 0.5
    cycle = iter(entries * (SAMPLES // len(entries) + 1))

    def churn():
        # retire and re-dispatch one entry: the eligibility cache is
        # dirty on every timed call, as it is after a pipeline cycle
        entry = next(cycle)
        merged.remove(entry)
        merged.dispatch(entry, False)

    return _median_ns(lambda: merged.select_commit(completed,
                                                   config.commit_width),
                      churn)


def _wakeup(config, rng):
    from repro.core import WakeupMatrix
    wakeup = WakeupMatrix(config.iq_size)
    valid = []
    for entry in _half(rng, config.iq_size):
        producers = [valid[i] for i in rng.integers(0, len(valid), 2)] \
            if valid else []
        wakeup.dispatch(entry, producers)
        valid.append(entry)
    return wakeup


def _wakeup_issue_ns(config, rng) -> float:
    wakeup = _wakeup(config, rng)
    width = config.issue_width
    group = []

    def refill():
        # re-dispatch the previous group (ready), pick the next one
        for entry in group:
            wakeup.dispatch(entry, [])
        valid = np.flatnonzero(wakeup.valid)
        group[:] = [int(e) for e in rng.choice(valid, width, replace=False)]

    return _median_ns(lambda: wakeup.issue(group), refill)


def _wakeup_ready_ns(config, rng) -> float:
    wakeup = _wakeup(config, rng)
    valid = [int(e) for e in np.flatnonzero(wakeup.valid)]
    cycle = iter(valid * (SAMPLES // len(valid) + 1))

    def dirty():
        entry = next(cycle)
        wakeup.issue([entry])
        wakeup.dispatch(entry, [])

    return _median_ns(wakeup.ready, dirty)


def _age_dispatch_group_ns(config, rng) -> float:
    from repro.core import AgeMatrix
    age = AgeMatrix(config.iq_size)
    for entry in _half(rng, config.iq_size):
        age.dispatch(entry)
    group = []

    def make_room():
        if group:
            age.remove_group(group)
        free = np.flatnonzero(~age.valid)
        group[:] = [int(e) for e in
                    rng.choice(free, config.dispatch_width, replace=False)]

    return _median_ns(lambda: age.dispatch_group(group), make_room)


def _clear_columns_ns(config, rng) -> float:
    from repro.core import BitMatrix
    matrix = BitMatrix(config.iq_size, config.iq_size)
    matrix.bits[...] = rng.random((config.iq_size, config.iq_size)) < 0.5
    cols = [int(c) for c in rng.choice(config.iq_size, config.issue_width,
                                       replace=False)]
    return _median_ns(lambda: matrix.clear_columns(cols))


def core_probe() -> dict:
    """``core.*`` metrics: median ns per primitive call."""
    from repro.pipeline import make_config
    presets = {"base": make_config("base"), "ultra": make_config("ultra")}
    probes = (
        ("select_oldest_ns", _select_oldest_ns, ("base", "ultra")),
        ("select_commit_ns", _select_commit_ns, ("base", "ultra")),
        ("wakeup_issue_ns", _wakeup_issue_ns, ("base",)),
        ("wakeup_ready_ns", _wakeup_ready_ns, ("base",)),
        ("age_dispatch_group_ns", _age_dispatch_group_ns, ("base",)),
        ("clear_columns_ns", _clear_columns_ns, ("base",)),
    )
    out = {}
    for name, probe, sizes in probes:
        for size in sizes:
            rng = np.random.default_rng(0)
            out[f"core.{name}.{size}"] = probe(presets[size], rng)
    return out


#: kernels and scale of the saturated lane probe
SATURATED = (("gcc.mix", 0.05), ("mcf.chase", 0.05))


def saturated_lane_probe() -> dict:
    """``lanes.sat.*`` metrics: shares of a full 8-lane batch's wall."""
    from repro.profiling import profile_lanes
    wall = vec = land = scalar = 0.0
    for kernel, scale in SATURATED:
        report = profile_lanes(kernel, scale, lanes=8)
        wall += report.wall_seconds
        for bucket in report.buckets:
            if bucket.name.startswith("vec:"):
                vec += bucket.seconds
                if bucket.name == "vec:land-groups":
                    land += bucket.seconds
            else:
                scalar += bucket.seconds
    return {"lanes.sat.vec_share": vec / wall,
            "lanes.sat.land_groups_share": land / wall,
            "lanes.sat.scalar_share": scalar / wall}
