"""Commit dependency tracking (paper §3.2).

Two implementations with identical semantics:

* :class:`CommitDependencyMatrix` — the explicit ROB-sized matrix of
  Figure 5: at dispatch an instruction sets its row for every older
  instruction that may still raise misspeculation or an exception; a
  resolving instruction clears its column; a completed instruction may
  commit when its row reduction-NORs to zero.

* :class:`MergedCommitMatrix` — the merged design the paper actually
  builds (Figure 4): the ROB's age matrix plus a **SPEC vector**.  The
  bit for an instruction is set in SPEC at dispatch if it may raise
  misspeculation/exceptions and cleared once it is safe; the commit
  check for a completed instruction is ``NOR(age_row & SPEC)``.  The
  merge exploits that "older speculative instructions" is exactly
  "age_row AND SPEC", cutting the area of a second ROB-sized matrix
  (40% for the paper's configuration — reproduced by the circuit
  model's report).

``tests/test_commit_matrix.py`` proves the two stay bit-identical under
random operation streams (hypothesis).

The pipeline answers the commit check from dispatch stamps instead
(:meth:`repro.pipeline.stages.PipelineState.commit_safe`: no older
speculative op still in the ROB) and builds no commit matrix; the same
test module holds that rule to :class:`MergedCommitMatrix`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .age_matrix import AgeMatrix
from .bitmatrix import BitMatrix


class CommitDependencyMatrix:
    """Explicit commit dependency matrix (Figure 5)."""

    def __init__(self, size: int):
        self.size = size
        self.matrix = BitMatrix(size, size)
        self.valid = np.zeros(size, dtype=bool)
        self._speculative = np.zeros(size, dtype=bool)

    def dispatch(self, entry: int, speculative: bool) -> None:
        """Install an instruction; its row marks older speculative ones."""
        if self.valid[entry]:
            raise ValueError(f"entry {entry} already valid")
        self.matrix.set_row(entry, self._speculative & self.valid)
        self.matrix.clear_column(entry)
        self.valid[entry] = True
        self._speculative[entry] = speculative

    def resolve(self, entry: int) -> None:
        """The instruction in ``entry`` is now guaranteed safe."""
        if not self.valid[entry]:
            raise ValueError(f"entry {entry} not valid")
        self._speculative[entry] = False
        self.matrix.clear_column(entry)

    def remove(self, entry: int) -> None:
        if not self.valid[entry]:
            raise ValueError(f"entry {entry} not valid")
        self.valid[entry] = False
        self._speculative[entry] = False
        self.matrix.clear_column(entry)

    def can_commit(self, completed: np.ndarray) -> np.ndarray:
        """Grant vector: completed instructions whose row is all zero."""
        clear = self.matrix.and_reduce_nor(np.ones(self.size, dtype=bool))
        return clear & completed & self.valid

    def is_speculative(self, entry: int) -> bool:
        return bool(self._speculative[entry])


class MergedCommitMatrix:
    """ROB age matrix merged with the SPEC vector (Figure 4).

    Owns the ROB's age matrix so callers get both temporal ordering
    (squash sets, oldest-exception location, oldest-first commit
    selection) and commit dependency checks from one structure.
    """

    def __init__(self, size: int):
        self.size = size
        self.age = AgeMatrix(size)
        #: SPEC — entries that may still raise misspeculation.
        self.spec = np.zeros(size, dtype=bool)

    @property
    def valid(self) -> np.ndarray:
        return self.age.valid

    def dispatch(self, entry: int, speculative: bool) -> None:
        self.age.dispatch(entry)
        self.spec[entry] = speculative

    def resolve(self, entry: int) -> None:
        """Clear the SPEC bit: the instruction is now non-speculative."""
        if not self.age.valid[entry]:
            raise ValueError(f"entry {entry} not valid")
        self.spec[entry] = False

    def remove(self, entry: int) -> None:
        self.age.remove(entry)
        self.spec[entry] = False

    def can_commit(self, completed: np.ndarray) -> np.ndarray:
        """Grant vector: completed entries with no older speculative one,
        one AND + reduction NOR of the age rows against SPEC (Figure 4)."""
        clear = self.age.matrix.and_reduce_nor(self.spec)
        return clear & completed & self.age.valid

    def select_commit(self, completed: np.ndarray, width: int) -> np.ndarray:
        """Up to ``width`` oldest commit-eligible entries this cycle."""
        return self.age.select_oldest(self.can_commit(completed), width)

    def oldest_blocker(self) -> Optional[int]:
        """Oldest instruction left in the ROB.

        When nothing can commit, this is the instruction that either has
        not resolved its speculation or has raised an exception — the
        precise-exception location of §3.2.
        """
        return self.age.oldest()

    def squash_set(self, entry: int) -> np.ndarray:
        """Entries younger than a delinquent instruction (column read)."""
        return self.age.younger_than(entry)
