"""Bit-identity matrix: one SimStats digest per (configuration, target).

Runs every sweep target of the registry at scale 0.05 under a fixed set
of core configurations and writes sorted JSON ``{cell: digest}``.  The
digest is the SHA-256 of the cell's SimStats as sorted-key JSON; a cell
that raises records ``"raises <Type>: <message>"`` instead.  An engine
change that must not move stats is checked by diffing the file written
before it against the one written after it::

    PYTHONPATH=src python benchmarks/identity_matrix.py --out matrix.json
    cmp matrix.json tests/data/identity_matrix.json

The configurations cover every commit policy on the base and ultra
cores, every Figure 14 scheduler under in-order and Orinoco commit, a
limited commit depth, the circular IQ, conservative memory dependence,
no wrong-path modelling, the pro core, and TSO under every commit
policy that does not commit loads early (plus VB, which does).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.pipeline import O3Core                          # noqa: E402
from repro.pipeline.config import (COMMITS, CoreConfig,    # noqa: E402
                                   make_config)
from repro.workloads.targets import get_target, sweep_names  # noqa: E402

SCALE = 0.05

#: commit policies that never commit a load before it performs
NON_ECL_COMMITS = ("ioc", "orinoco", "vb_noecl", "br_noecl", "spec",
                   "spec_norob", "rob")


def configurations() -> dict:
    """Label -> CoreConfig, in a fixed order."""
    configs = {}
    for preset in ("base", "ultra"):
        for commit in COMMITS:
            configs[f"{preset} age+{commit}"] = make_config(
                preset, scheduler="age", commit=commit)
    for scheduler in ("rand", "mult", "orinoco", "ideal", "shift"):
        for commit in ("ioc", "orinoco"):
            configs[f"base {scheduler}+{commit}"] = make_config(
                "base", scheduler=scheduler, commit=commit)
    configs["base orinoco+orinoco depth=32"] = make_config(
        "base", scheduler="orinoco", commit="orinoco", commit_depth=32)
    configs["base age+orinoco circ-iq"] = make_config(
        "base", commit="orinoco", iq_org="circ")
    configs["base age+orinoco conservative"] = make_config(
        "base", commit="orinoco", mem_dep_policy="conservative")
    configs["base age+orinoco no-wrong-path"] = make_config(
        "base", commit="orinoco", model_wrong_path=False)
    configs["pro age+orinoco"] = make_config("pro", commit="orinoco")
    for commit in NON_ECL_COMMITS + ("vb",):
        configs[f"base age+{commit} tso"] = make_config(
            "base", commit=commit, tso=True)
    return configs


def cell_digest(trace, config: CoreConfig) -> str:
    try:
        stats = O3Core(trace, config).run()
    except Exception as exc:           # recorded, so the diff shows it
        return f"raises {type(exc).__name__}: {exc}"
    blob = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute(targets=None, labels=None) -> dict:
    """``{"<config label>/<target>": digest}`` for the chosen subset
    (default: every target and configuration)."""
    configs = configurations()
    cells = {}
    for name in targets if targets is not None else sweep_names():
        trace = get_target(name).build_trace(SCALE)
        for label in labels if labels is not None else configs:
            cells[f"{label}/{name}"] = cell_digest(trace, configs[label])
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="where to write the JSON matrix")
    args = parser.parse_args(argv)
    cells = compute()
    Path(args.out).write_text(json.dumps(cells, sort_keys=True, indent=1)
                              + "\n")
    raised = sum(digest.startswith("raises ") for digest in cells.values())
    print(f"{len(cells)} cells, {raised} raised -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
