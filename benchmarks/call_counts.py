"""Python-level call count of one in-process Figure 15 or verify pass.

Counts ``sys.setprofile`` "call" events (Python functions only; C
builtins raise "c_call", which is not counted) over the second of two
in-process passes of a workload.  ``fig15-serial`` (the default) is
Figure 15 at scale 0.1 on five targets, ten commit policies,
``workers=1``, no result cache, ``lanes=1``; the first pass warms
imports and the trace LRU, so the second counts the simulation and the
harness around it.  ``verify-campaign`` is the seed-0, 24-program
``repro verify`` campaign at ``jobs=1``, ``lanes=1``; the oracle's memo
is cleared before the counted pass, so it pays the cold oracle as a
fresh process does.

The count repeats exactly on one interpreter (a pass draws nothing from
the clock), so it compares across commits where shared-runner timings
cannot.  It is a measurement of where the cycle loop spends Python
calls, not a benchmark metric.  Besides the total and the busiest
functions it reports the split by ``repro`` subpackage (a function's
module, so a dataclass's generated ``__init__`` counts where the class
lives; code outside ``repro`` is grouped by top-level package) and the
number of ``InflightOp`` records built, one per fetched op::

    PYTHONPATH=src python benchmarks/call_counts.py --top 25 --json calls.json
    PYTHONPATH=src python benchmarks/call_counts.py --workload verify-campaign
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.harness.experiments import fig15                # noqa: E402
from repro.pipeline.stages.state import InflightOp          # noqa: E402
from repro.verify import oracle                             # noqa: E402
from repro.verify.campaign import run_campaign              # noqa: E402

SCALE = 0.1
TARGETS = ["gcc.mix", "mcf.chase", "x264.divint", "sys.drain", "smt.memfp"]
VERIFY_SEED = 0
VERIFY_PROGRAMS = 24

#: workload -> what a pass runs, as written to the JSON
WORKLOADS = {
    "fig15-serial": {"figure": "fig15", "scale": SCALE, "targets": TARGETS,
                     "workers": 1, "lanes": 1, "use_cache": False},
    "verify-campaign": {"campaign": "verify", "seed": VERIFY_SEED,
                        "programs": VERIFY_PROGRAMS, "jobs": 1, "lanes": 1},
}


def _pass(workload: str, tmp: Path):
    """The pass to run twice: a function of no arguments."""
    if workload == "fig15-serial":
        return lambda: fig15(SCALE, list(TARGETS), workers=1,
                             use_cache=False, lanes=1)

    def verify_pass() -> None:
        oracle._allowed_cached.cache_clear()
        run_campaign(VERIFY_SEED, VERIFY_PROGRAMS, jobs=1, lanes=1,
                     checkpoint=tmp / "campaign.jsonl", fresh=True)
    return verify_pass


def count_calls(workload: str = "fig15-serial") -> Counter:
    """``Counter`` of "call" events per ``(file, line, function,
    module)``."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename, code.co_firstlineno, code.co_name,
                   frame.f_globals.get("__name__", "?"))] += 1

    with tempfile.TemporaryDirectory() as tmp:
        run_pass = _pass(workload, Path(tmp))
        run_pass()                         # warm-up: imports, trace LRU
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            run_pass()
        finally:
            sys.setprofile(previous)
    return calls


def _subpackage(module: str) -> str:
    """``repro.pipeline`` for ``repro.pipeline.stages.state``, ``repro.cli``
    for ``repro.cli``; outside ``repro`` the top-level package."""
    parts = module.split(".")
    return ".".join(parts[:2]) if parts[0] == "repro" else parts[0]


def _label(key) -> str:
    filename, line, name = key
    path = Path(filename)
    parts = path.parts
    if "repro" in parts:
        short = "/".join(parts[parts.index("repro"):])
    else:
        short = path.name
    return f"{short}:{line} {name}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="fig15-serial",
                        help="which pass to count (default fig15-serial)")
    parser.add_argument("--top", type=int, default=20,
                        help="how many functions to list (default 20)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the total and the top list here")
    args = parser.parse_args(argv)
    calls = count_calls(args.workload)
    total = sum(calls.values())
    functions: Counter = Counter()
    subpackages: Counter = Counter()
    for (filename, line, name, module), count in calls.items():
        functions[(filename, line, name)] += count
        subpackages[_subpackage(module)] += count
    init = InflightOp.__init__.__code__
    inflight_ops = functions[(init.co_filename, init.co_firstlineno,
                              init.co_name)]
    top = [(_label(key), count)
           for key, count in functions.most_common(args.top)]
    by_subpackage = dict(subpackages.most_common())
    print(f"python-level calls per {args.workload} pass: {total:,}")
    print(f"InflightOp records built: {inflight_ops:,}")
    print("calls by subpackage:")
    for package, count in by_subpackage.items():
        print(f"{count:>10,}  {package}")
    print("busiest functions:")
    for label, count in top:
        print(f"{count:>10,}  {label}")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "workload": dict(WORKLOADS[args.workload], name=args.workload),
            "python": sys.version.split()[0],
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "total_calls": total,
            "inflight_ops": inflight_ops,
            "by_subpackage": by_subpackage,
            "top": [{"function": label, "calls": count}
                    for label, count in top],
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
