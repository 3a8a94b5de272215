"""Violation minimisation and replayable violation bundles.

When the campaign flags a program, the raw reproducer is rarely the
smallest one: random programs carry ops that play no part in the
ordering violation.  :func:`minimise_violation` is a greedy
delta-debugger — repeatedly try removing one op (then one whole
thread) and keep the candidate iff the *same* (model, policy) combo
still produces a disallowed outcome, looping to a fixpoint.  Each
probe is a full re-simulation through :func:`~repro.verify.campaign
.verify_program`, so the minimised program is verified-failing by
construction.

The result ships as a *violation bundle* — the crash-bundle format
(:mod:`repro.harness.diagnostics`) extended with a ``"verify"``
section holding the original and minimised programs, the witnessed
orderings, the disallowed outcomes and a ready-to-paste regression
test snippet.  ``repro replay <bundle>`` routes bundles with a
``"verify"`` section here: :func:`replay_violation` re-runs the
minimised program from the bundle alone and reports REPRODUCED /
NOT-REPRODUCED on a grep-able ``verdict:`` line.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..harness.cache import config_fingerprint
from ..harness.diagnostics import write_bundle
from ..pipeline import ENGINE_VERSION
from ..testing import faults
from .generator import MemOp, VerifyProgram, program_sha

__all__ = ["VerifyReplayReport", "minimise_and_bundle",
           "minimise_violation", "regression_snippet", "replay_violation"]

#: violation-bundle schema revision (within the crash-bundle format)
VERIFY_BUNDLE_FORMAT = 1


def _still_fails(program: VerifyProgram, model: str, policy: str,
                 fault_specs) -> bool:
    """Does ``program`` still violate under exactly this combo?"""
    from .campaign import verify_program
    if not program.threads or not any(program.threads):
        return False
    result = verify_program(program, fault_specs=fault_specs,
                            grid=[(model, policy)])
    return bool(result["violations"])


def _with_threads(program: VerifyProgram,
                  threads: List[tuple]) -> VerifyProgram:
    """A candidate with the same *name* (fault patterns key on the cell
    id, so renaming would decouple the probes from the failure)."""
    addrs = tuple(sorted({op.addr for ops in threads
                          for op in ops if op.addr is not None}))
    return VerifyProgram(program.name, tuple(threads),
                         addrs or program.addrs)


def minimise_violation(program: VerifyProgram, model: str, policy: str,
                       fault_specs=()) -> Tuple[VerifyProgram, int]:
    """Greedy ddmin: drop ops, then threads, to a 1-minimal failing
    program.  Returns ``(minimised, probes)``; the minimised program is
    re-verified failing on the last accepted candidate.
    """
    current = program
    probes = 0
    changed = True
    while changed:
        changed = False
        # try removing each single op (skip if it empties the program)
        for t in range(len(current.threads)):
            i = 0
            while i < len(current.threads[t]):
                threads = list(current.threads)
                ops = list(threads[t])
                del ops[i]
                threads[t] = tuple(ops)
                candidate = _with_threads(program, threads)
                probes += 1
                if _still_fails(candidate, model, policy, fault_specs):
                    current = candidate
                    changed = True
                else:
                    i += 1
        # try removing whole threads
        t = 0
        while t < len(current.threads) and len(current.threads) > 1:
            threads = list(current.threads)
            del threads[t]
            candidate = _with_threads(program, threads)
            probes += 1
            if _still_fails(candidate, model, policy, fault_specs):
                current = candidate
                changed = True
            else:
                t += 1
    return current, probes


# -- the bundle --------------------------------------------------------------

def regression_snippet(program: VerifyProgram, model: str,
                       policy: str, faults_text: str = "") -> str:
    """A ready-to-paste pytest regression test for this violation."""
    ops = ",\n            ".join(
        "[" + ", ".join(
            f"MemOp({op.kind!r}, {op.addr!r}, {op.value!r}, {op.delay!r})"
            for op in thread) + "]"
        for thread in program.threads)
    fault_line = ""
    if faults_text:
        fault_line = (f"    specs = parse_fault_specs({faults_text!r})\n")
    specs_arg = "fault_specs=specs" if faults_text else "fault_specs=()"
    return f'''\
def test_verify_regression_{program.name.replace(".", "_").replace("-", "_")}():
    """Minimised consistency violation: {model}/{policy}."""
    from repro.testing.faults import parse_fault_specs
    from repro.verify.campaign import verify_program
    from repro.verify.generator import MemOp, VerifyProgram

    program = VerifyProgram(
        name={program.name!r},
        threads=tuple(tuple(ops) for ops in [
            {ops},
        ]),
        addrs={program.addrs!r})
{fault_line}    result = verify_program(program, grid=[({model!r}, {policy!r})],
                            {specs_arg})
    assert not result["violations"], result["violations"]
'''


def minimise_and_bundle(program: VerifyProgram, violation: dict,
                        faults_text: str = "",
                        crash_dir: Optional[os.PathLike] = None
                        ) -> pathlib.Path:
    """Minimise one campaign violation and persist its bundle."""
    from .campaign import _combo_config
    model = violation["model"]
    policy = violation["policy"]
    specs = faults.parse_fault_specs(faults_text)
    minimised, probes = minimise_violation(program, model, policy,
                                           fault_specs=specs)
    config = _combo_config(model, policy)
    bundle = {
        "format": VERIFY_BUNDLE_FORMAT,
        "cell": violation["cell"],
        "label": "verify",
        "workload": program.name,
        "scale": 1.0,
        "params": {},
        "seed": config.seed,
        "engine": ENGINE_VERSION,
        "config": config_fingerprint(config),
        "profile_config": None,
        "faults": faults_text,
        "attempt": 1,
        "error": {
            "type": "ConsistencyViolation",
            "message": f"{model}/{policy}: outcomes outside the oracle "
                       f"set: " + "; ".join(violation["outcomes"]),
            "traceback": "",
        },
        "diagnostic": None,
        "verify": {
            "model": model,
            "policy": policy,
            "program": program.to_dict(),
            "program_sha": program_sha(program),
            "minimised": minimised.to_dict(),
            "minimised_sha": program_sha(minimised),
            "probes": probes,
            "outcomes": violation["outcomes"],
            "witnesses": violation.get("witnesses", []),
            "regression": regression_snippet(minimised, model, policy,
                                             faults_text),
        },
    }
    return write_bundle(bundle, crash_dir)


# -- replay ------------------------------------------------------------------

@dataclass
class VerifyReplayReport:
    """Outcome of re-running a violation bundle's minimised program."""

    cell: str
    expected: List[str]
    observed: List[str] = field(default_factory=list)
    reproduced: bool = False
    regression: str = ""

    def format(self, events: int = 12) -> str:
        lines = [f"replay {self.cell}",
                 f"  expected: {len(self.expected)} disallowed outcome(s)"]
        lines.extend(f"    {o}" for o in self.expected)
        lines.append(f"  observed: {len(self.observed)} disallowed "
                     f"outcome(s)")
        lines.extend(f"    {o}" for o in self.observed)
        lines.append("  verdict:  " + ("REPRODUCED" if self.reproduced
                                       else "NOT-REPRODUCED"))
        if self.regression and self.reproduced:
            lines.append("  regression test:")
            lines.extend(f"    {line}"
                         for line in self.regression.splitlines())
        return "\n".join(lines)


def replay_violation(bundle: dict) -> VerifyReplayReport:
    """Re-run a violation bundle's minimised program from the bundle
    alone; REPRODUCED iff the same combo still yields any outcome the
    oracle forbids.  A ``"lanes"`` field, which older bundles carry,
    is ignored."""
    from .campaign import verify_program
    verify = bundle["verify"]
    program = VerifyProgram.from_dict(verify["minimised"])
    specs = faults.parse_fault_specs(bundle.get("faults", ""))
    result = verify_program(program, fault_specs=specs,
                            grid=[(verify["model"], verify["policy"])])
    observed = [o for violation in result["violations"]
                for o in violation["outcomes"]]
    return VerifyReplayReport(
        cell=bundle.get("cell", "verify/?"),
        expected=list(verify.get("outcomes", [])),
        observed=observed,
        reproduced=bool(observed),
        regression=verify.get("regression", ""))
