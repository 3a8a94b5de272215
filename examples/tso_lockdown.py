"""TSO load-load reordering with the lockdown matrix (paper §3.3).

Under TSO a load may not appear to pass an older load.  Orinoco commits
loads out of order anyway and keeps the reordering invisible: the
committed load's address is locked down (invalidations/evictions
withheld) until every older load has performed.

This example drives a core in TSO mode, shows lockdowns being taken and
released, and demonstrates the coherence-visible invariant.

Run:  python examples/tso_lockdown.py
"""

import numpy as np

from repro.core import LockdownMatrix
from repro.isa import ProgramBuilder, trace_program
from repro.pipeline import O3Core, base_config


def direct_demo():
    """The mechanism in isolation (Figure 7)."""
    print("Lockdown matrix (direct):")
    ldm = LockdownMatrix(ldt_size=4, lq_size=8)
    older = np.zeros(8, dtype=bool)
    older[[2, 5]] = True          # two older loads not yet performed
    ldm.lockdown(address=0x1000, load_seq=30, older_nonperformed=older)
    print(f"  load #30 committed early; 0x1000 locked: "
          f"{ldm.is_locked(0x1000)}")
    ldm.load_performed(2)
    print(f"  older load in LQ[2] performed; still locked: "
          f"{ldm.is_locked(0x1000)}")
    released = ldm.load_performed(5)
    print(f"  older load in LQ[5] performed; released addresses: "
          f"{[hex(a) for a in released]}")


def pipeline_demo():
    """A TSO-mode core committing a fast load past a slow one."""
    b = ProgramBuilder("tso")
    b.li("x1", 0x100000)          # slow: large-footprint address
    b.li("x2", 0x1000)            # fast: small address, L1 after warmup
    b.ld("x9", "x2", 0)           # warm the fast line
    b.ld("x3", "x1", 0)           # load A: DRAM miss (slow)
    b.ld("x4", "x2", 0)           # load B: L1 hit (fast, younger)
    b.add("x5", "x3", "x4")
    b.halt()
    trace = trace_program(b.build())
    core = O3Core(trace, base_config(commit="orinoco", tso=True))
    stats = core.run()
    print("\nTSO pipeline run:")
    print(f"  committed {stats.committed} instructions in "
          f"{stats.cycles} cycles")
    print(f"  lockdowns taken: {stats.lockdowns}")
    print("  (the younger load committed before the older one "
          "performed, with its line locked until ordering was safe)")


def litmus_demo():
    """Exhaustive message-passing litmus (§3.3's TSO argument)."""
    from repro.lsq.litmus import enumerate_outcomes, tso_holds
    print("\nMessage-passing litmus (writer: data=1; flag=1 /"
          " reader: r1=flag; r2=data):")
    for use_lockdown in (False, True):
        outcomes = enumerate_outcomes(use_lockdown)
        label = "with lockdown" if use_lockdown else "without lockdown"
        forbidden = [o for o in outcomes if o.forbidden_under_tso]
        print(f"  {label}: outcomes "
              f"{sorted((o.r_flag, o.r_data) for o in outcomes)}; "
              f"TSO holds: {tso_holds(outcomes)}"
              + (f" (forbidden r1=1,r2=0 observable!)" if forbidden
                 else ""))


if __name__ == "__main__":
    direct_demo()
    pipeline_demo()
    litmus_demo()
