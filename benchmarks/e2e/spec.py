"""Workload definitions shared by the runner, the child pass and tests.

Standard library only: ``run.py`` imports this before anything from
``repro``, so a checkout without ``src/`` still parses its arguments
and fails in the child, not here.
"""

from __future__ import annotations

import json
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "reference" / "seed0.json"

WORKLOADS = ("fig15-serial", "fig15-lanes8", "figs-jobs2", "verify-campaign")

#: workload -> how its pass executes (figure set, workers, lanes)
EXECUTION = {
    "fig15-serial": {"figures": ("fig15",), "workers": 1, "lanes": 1},
    "fig15-lanes8": {"figures": ("fig15",), "workers": 1, "lanes": 8},
    "figs-jobs2": {"figures": ("fig14", "fig16"), "workers": 2, "lanes": 1},
    "verify-campaign": {"figures": (), "workers": 1, "lanes": 4},
}

#: input sizes.  ``full`` is what BENCHMARK.json measures: scale 0.1,
#: whose per-layer split is within a few points of the scale 1.0 users
#: run (scale 0.02 triples the weight of per-cell fixed costs; see the
#: README), on a grid cut down to five targets so a pass takes ~5 s.
#: The two scenario families are rebuilt from the seed.  ``micro`` is
#: the smoke-test size.
SIZES = {
    "full": {"scale": 0.1, "kernels": ("gcc.mix", "mcf.chase", "x264.divint"),
             "scenarios": ("sys.drain", "smt.memfp"), "programs": 24},
    "micro": {"scale": 0.02, "kernels": ("gcc.mix", "mcf.chase"),
              "scenarios": ("sys.drain",), "programs": 3},
}

#: warm passes figs-jobs2 resolves from its cache after the cold pass
WARM_PASSES = 5

#: timed passes per run never drop below this, however short --seconds
MIN_PASSES = 2
#: set-up samples per run (the measured children plus set-up-only ones)
SETUP_SAMPLES = 5
#: seconds of back-to-back host-speed samples taken right after set-up
SETUP_SPEED_SECONDS = 0.2

#: workload -> its set of reference pins.  fig15-serial and fig15-lanes8
#: run the same cells, so they share one set: the lane engine must
#: reproduce serial stats exactly.
PIN_GROUP = {"fig15-serial": "fig15", "fig15-lanes8": "fig15",
             "figs-jobs2": "figs14_16", "verify-campaign": "verify"}


def load_benchmark() -> dict:
    """The contract: workloads, metrics, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
