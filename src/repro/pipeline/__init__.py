"""Cycle-level out-of-order core: configs, resources, stats, the core."""

from .config import (COMMITS, CONFIG_PRESETS, SCHEDULERS, CoreConfig,
                     base_config, make_config, pro_config, ultra_config)
from .core import (ENGINE_VERSION, DeadlockError, InflightOp, O3Core,
                   simulate)
from .events import (EventBus, EventRecorder, EventTail, EventType,
                     StatsSubscriber)
from .lanes import LaneBatch, LaneCell, LaneOutcome, LaneReport
from .pipeview import Timeline, TimelineEntry
from .resources import FUPool, FUType, fu_type_for
from .stages import PipelineState
from .stats import SimStats

__all__ = ["COMMITS", "CONFIG_PRESETS", "SCHEDULERS", "CoreConfig",
           "base_config", "make_config", "pro_config", "ultra_config",
           "Timeline", "TimelineEntry",
           "EventBus", "EventRecorder", "EventTail", "EventType",
           "StatsSubscriber",
           "LaneBatch", "LaneCell", "LaneOutcome", "LaneReport",
           "PipelineState",
           "ENGINE_VERSION",
           "DeadlockError", "InflightOp", "O3Core", "simulate", "FUPool",
           "FUType", "fu_type_for", "SimStats"]
