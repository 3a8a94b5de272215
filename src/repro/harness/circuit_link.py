"""Pipeline → circuit model link (paper §6.3).

"To accurately estimate the power consumption, we collect statistics
from the simulated pipeline and feed them into the SPICE simulation."
This module does exactly that: run the suite on an Orinoco core,
average the matrix schedulers' per-cycle operation counts, and build
the Table 2 power figures from *measured* activities instead of the
nominal ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..circuit import MatrixSpec, Table2Row, table2
from ..pipeline import make_config
from ..workloads import build_suite
from .runner import run_config


def measured_activities(scale: float = 1.0,
                        names: Optional[List[str]] = None,
                        preset: str = "base", **execution
                        ) -> Dict[str, float]:
    """Cycle-weighted mean matrix activities over the suite."""
    traces = build_suite(scale, names)
    config = make_config(preset, scheduler="orinoco", commit="orinoco")
    result = run_config("activity", config, traces, **execution)
    totals: Dict[str, float] = {}
    cycles = 0
    for stats in result.stats.values():
        cycles += stats.cycles
        for key, value in stats.matrix_activity().items():
            totals[key] = totals.get(key, 0.0) + value * stats.cycles
    return {key: value / cycles for key, value in totals.items()} \
        if cycles else totals


def table2_measured(scale: float = 1.0,
                    names: Optional[List[str]] = None,
                    preset: str = "base", **execution) -> List[Table2Row]:
    """Table 2 with powers computed from simulated activities."""
    activity = measured_activities(scale, names, preset, **execution)
    config = make_config(preset)
    rob_rows = max(1, int(round(activity.get("rob_rows", 8.0))))

    def dim(size: int, banks: int = 4) -> int:
        """Array dimension: the largest bank-aligned size (97 -> 96,
        matching the paper's 96x96 IQ array for the 97-entry IQ)."""
        return size - size % banks

    matrices = [
        MatrixSpec("Age Matrix (IQ)", dim(config.iq_size),
                   dim(config.iq_size), 4,
                   ops_per_cycle=activity.get("iq_ops", 1.0),
                   writes_per_cycle=activity.get("iq_writes", 2.0)),
        MatrixSpec("Age Matrix (ROB)", dim(config.rob_size),
                   dim(config.rob_size), 4,
                   ops_per_cycle=activity.get("rob_ops", 1.0),
                   writes_per_cycle=activity.get("rob_writes", 2.0),
                   active_rows=rob_rows),
        MatrixSpec("Memory Disambiguation Matrix", dim(config.lq_size),
                   dim(config.sq_size), 4,
                   ops_per_cycle=activity.get("mdm_ops", 1.0)
                   + activity.get("mdm_writes", 1.0),
                   writes_per_cycle=activity.get("mdm_writes", 1.0)),
        MatrixSpec("Wakeup Matrix", dim(config.iq_size),
                   dim(config.iq_size), 4,
                   ops_per_cycle=activity.get("wakeup_ops", 1.0),
                   writes_per_cycle=activity.get("wakeup_writes", 2.0)),
    ]
    return table2(matrices)
