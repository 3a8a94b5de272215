"""REPRO_CHECK: self-verification mode for the lane engine.

``REPRO_CHECK=1`` turns on cross-checks that recompute a fused answer
from first principles and compare, raising :class:`CheckError` on the
first divergence:

* the lane engine's cross-lane select kernel against each lane's
  scalar ready set, every cycle
  (:mod:`repro.pipeline.vectorstages`);
* a sampled lane-batched cell against a full serial re-run
  (:func:`repro.pipeline.lanes.crosscheck`, called by the harness).

The flag is read once and latched (the lane engine captures it at
construction), so the steady-state cost of an unchecked run is a single
``bool`` attribute.  Tests use :func:`reset` + :func:`set_enabled` to
flip the mode without re-importing.
"""

from __future__ import annotations

from typing import Optional

_enabled: Optional[bool] = None


class CheckError(AssertionError):
    """A fused answer diverged from the full recomputation."""


def check_enabled() -> bool:
    """True when ``REPRO_CHECK`` is set truthy (see ``repro.envutil``)."""
    global _enabled
    if _enabled is None:
        from ..envutil import env_flag
        _enabled = env_flag("REPRO_CHECK", default=False)
    return _enabled


def set_enabled(value: bool) -> None:
    """Force the mode (tests); overrides the environment."""
    global _enabled
    _enabled = bool(value)


def reset() -> None:
    """Forget the latched value; next query re-reads ``REPRO_CHECK``."""
    global _enabled
    _enabled = None
