"""Test-support machinery shipped with the package (fault injection)."""

from .faults import (FAULT_ENV, CRASH_EXIT_CODE, FaultSpec, InjectedFault,
                     corrupt_file, explode_subscriber, parse_fault_specs,
                     preflight)

__all__ = ["FAULT_ENV", "CRASH_EXIT_CODE", "FaultSpec", "InjectedFault",
           "corrupt_file", "explode_subscriber", "parse_fault_specs",
           "preflight"]
