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

from typing import List, Optional

import numpy as np

from . import check
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

    Commit eligibility is tracked *incrementally*: ``_blockers`` holds,
    for every valid entry, ``popcount(age_row & SPEC)`` — the number of
    older still-speculative instructions.  Dispatch seeds it with the
    current speculative population (every speculative entry is older
    than the newcomer); resolving or removing a speculative entry
    subtracts its age column from the counters.  The "safe" vector
    (``_blockers == 0`` among valid entries) is a dirty-flagged cache.
    The counters stay exact against this non-collapsible structure's
    stale bits because SPEC ⊆ valid at all times (freed entries drop
    their SPEC bit before the column can go stale) and dispatch both
    clears the newcomer's age column and reseeds its counter.
    ``REPRO_CHECK=1`` re-derives everything from the matrix and
    compares (see :mod:`repro.core.check`).
    """

    def __init__(self, size: int):
        self.size = size
        self.age = AgeMatrix(size)
        #: SPEC — entries that may still raise misspeculation.
        self.spec = np.zeros(size, dtype=bool)
        #: per-entry count of older speculative entries (valid rows)
        self._blockers = np.zeros(size, dtype=np.intp)
        #: cached safe-and-valid vector, re-derived when dirty
        self._safe = np.zeros(size, dtype=bool)
        self._n_spec = 0
        self._dirty = True
        self._eligible = np.empty(size, dtype=bool)
        self._check = check.check_enabled()

    @property
    def valid(self) -> np.ndarray:
        return self.age.valid

    def dispatch(self, entry: int, speculative: bool) -> None:
        self.age.dispatch(entry)
        self.spec[entry] = speculative
        # the newcomer's age row is exactly the valid vector, so its
        # blocker count is the whole speculative population
        self._blockers[entry] = self._n_spec
        if speculative:
            self._n_spec += 1
        self._dirty = True
        if self._check:
            self._verify(f"dispatch({entry})")

    def dispatch_group(self, entries: List[int],
                       speculative: List[bool]) -> None:
        """Install a dispatch group, oldest first (batched age write)."""
        k = len(entries)
        if k == 0:
            return
        self.age.dispatch_group(entries)
        n = self._n_spec
        for entry, flag in zip(entries, speculative):
            self.spec[entry] = flag
            self._blockers[entry] = n
            if flag:
                n += 1
        self._n_spec = n
        self._dirty = True
        if self._check:
            self._verify(f"dispatch_group({list(entries)})")

    def resolve(self, entry: int) -> None:
        """Clear the SPEC bit: the instruction is now non-speculative."""
        if not self.age.valid[entry]:
            raise ValueError(f"entry {entry} not valid")
        if self.spec[entry]:
            self.spec[entry] = False
            self._n_spec -= 1
            np.subtract(self._blockers, self.age.matrix.bits[:, entry],
                        out=self._blockers)
            self._dirty = True
        if self._check:
            self._verify(f"resolve({entry})")

    def remove(self, entry: int) -> None:
        if self.spec[entry]:
            # removed while still speculative (squash, or commit past
            # its own unresolved-but-harmless SPEC bit): younger valid
            # entries stop counting it
            self.spec[entry] = False
            self._n_spec -= 1
            np.subtract(self._blockers, self.age.matrix.bits[:, entry],
                        out=self._blockers)
        self.age.remove(entry)
        self._dirty = True
        if self._check:
            self._verify(f"remove({entry})")

    def _refresh(self) -> None:
        if self._dirty:
            np.equal(self._blockers, 0, out=self._safe)
            np.logical_and(self._safe, self.age.valid, out=self._safe)
            self._dirty = False

    def can_commit(self, completed: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        """Grant vector: completed entries with no older speculative one.

        One AND + reduction NOR against the SPEC vector (Figure 4) —
        served from the incremental blocker counters.  Callers must
        not mutate the returned array unless they passed ``out``.
        """
        self._refresh()
        if self._check:
            self._verify("can_commit()")
        result = out if out is not None else np.empty(self.size, dtype=bool)
        np.logical_and(self._safe, completed, out=result)
        return result

    def select_commit(self, completed: np.ndarray, width: int) -> np.ndarray:
        """Up to ``width`` oldest commit-eligible entries this cycle.

        Returns a matrix-owned scratch vector that the next call
        overwrites.
        """
        eligible = self.can_commit(completed, out=self._eligible)
        if not eligible.any():
            return eligible
        return self.age.select_oldest(eligible, width, out=eligible)

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

    # -- self-verification (REPRO_CHECK=1) ------------------------------

    def _verify(self, where: str) -> None:
        valid = self.age.valid
        n_spec = int(np.count_nonzero(self.spec))
        if n_spec != self._n_spec:
            raise check.CheckError(
                f"merged SPEC population diverged after {where}: "
                f"cached={self._n_spec} actual={n_spec}")
        if np.any(self.spec & ~valid):
            raise check.CheckError(
                f"SPEC bit on invalid entry after {where}")
        counts = (self.age.matrix.bits & self.spec).sum(axis=1)
        bad = np.flatnonzero(valid & (counts != self._blockers))
        if bad.size:
            e = int(bad[0])
            raise check.CheckError(
                f"merged blockers diverged after {where}: entry {e} "
                f"cached={int(self._blockers[e])} matrix={int(counts[e])}")
        if not self._dirty:
            full = (self.age.matrix.and_reduce_nor(self.spec & valid)
                    & valid)
            if not np.array_equal(full, self._safe):
                raise check.CheckError(
                    f"merged safe cache diverged after {where}: "
                    f"cached={np.flatnonzero(self._safe).tolist()} "
                    f"full={np.flatnonzero(full).tolist()}")
