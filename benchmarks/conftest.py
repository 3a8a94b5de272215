"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures and
prints the same rows/series the paper reports.  Results are also
written to ``benchmarks/out/`` so they survive pytest's capture.

``REPRO_SCALE`` (default 1.0) scales workload sizes for quick runs.
``REPRO_JOBS`` (default 1) fans simulation cells out over that many
worker processes, and benchmarks cache results under
``benchmarks/.cache/`` by default (``REPRO_CACHE=0`` disables), so a
rerun of an unchanged figure is near-instant.
"""

import os
import pathlib
import time

import pytest

# benchmarks opt into the result cache unless the environment says no
os.environ.setdefault("REPRO_CACHE", "1")

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: benchmark node name -> elapsed wall-clock seconds (via run_once)
_ELAPSED = {}


def scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def jobs() -> int:
    """Parallel simulation workers (``$REPRO_JOBS``, default 1)."""
    # imported on use: pytest also loads this conftest for
    # benchmarks/e2e, whose tests never import the program
    from repro.harness import RunOptions
    return RunOptions.resolve().workers


def publish(name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/out/."""
    elapsed = _ELAPSED.pop("__last__", None)
    if elapsed is not None:
        text += (f"\n\n[{name}: elapsed {elapsed:.2f}s, "
                 f"jobs={jobs()}, scale={scale()}]")
    # parents=True: out/ may be missing entirely on fresh clones
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")


@pytest.fixture
def run_once(benchmark, request):
    """Run the experiment exactly once under pytest-benchmark timing."""
    def runner(func, *args, **kwargs):
        start = time.perf_counter()
        result = benchmark.pedantic(func, args=args, kwargs=kwargs,
                                    rounds=1, iterations=1,
                                    warmup_rounds=0)
        elapsed = time.perf_counter() - start
        _ELAPSED[request.node.name] = elapsed
        _ELAPSED["__last__"] = elapsed
        return result
    return runner
