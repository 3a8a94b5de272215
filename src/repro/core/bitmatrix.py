"""Dense bit matrix with the operations the PIM arrays provide.

The paper implements every matrix scheduler as an 8T SRAM array whose
primitive operations are (§4):

* **row write** — a dispatched instruction writes its whole row at once;
* **column clear** — a resolving/issuing instruction clears its column
  (dual-supply-voltage column-wise write; multiple columns per cycle);
* **AND + reduction NOR** — apply a vector to the read word lines and
  sense whether any activated cell in a row holds a one;
* **AND + bit count** — same activation, but the bit line voltage drop
  is compared against a threshold, yielding ``popcount(row & vec) < k``;
* **column read** — one-hot activation of a single column.

:class:`BitMatrix` exposes exactly these primitives (vectorised over all
rows with numpy, mirroring the hardware's all-rows-in-parallel nature)
so the scheduler classes above it read like the paper's figures.
Every read returns a fresh array: the pipeline runs none of these
classes, so they stay the simplest code that states the operation.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np


class BitMatrix:
    """A rows × cols matrix of bits supporting PIM-style operations."""

    def __init__(self, rows: int, cols: Optional[int] = None):
        if cols is None:
            cols = rows
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.bits = np.zeros((rows, cols), dtype=bool)

    # -- row / column writes (dispatch, resolve) -----------------------

    def set_row(self, row: int, mask: Optional[np.ndarray] = None) -> None:
        """Write a full row: all ones, or ``mask`` where given."""
        if mask is None:
            self.bits[row, :] = True
        else:
            self.bits[row, :] = mask

    def clear_row(self, row: int) -> None:
        self.bits[row, :] = False

    def set_column(self, col: int, mask: Optional[np.ndarray] = None) -> None:
        """Write a full column: all ones, or ``mask`` where given.

        The real array only supports column *clear*; column set with a
        mask models the dispatch-time write of the newcomer's column,
        which the hardware folds into the same row-write cycle (§4.3).
        """
        if mask is None:
            self.bits[:, col] = True
        else:
            self.bits[:, col] = mask

    def clear_column(self, col: int) -> None:
        self.bits[:, col] = False

    def clear_columns(self, cols: Iterable[int]) -> None:
        """Clear several columns in one cycle (§4.2 allows this): the
        hardware's all-columns-at-once dual-supply-voltage clear."""
        self.bits[:, list(cols)] = False

    def set_bit(self, row: int, col: int, value: bool = True) -> None:
        self.bits[row, col] = value

    def get_bit(self, row: int, col: int) -> bool:
        return bool(self.bits[row, col])

    # -- PIM read operations -------------------------------------------

    def row(self, row: int) -> np.ndarray:
        """Copy of one row vector."""
        return self.bits[row].copy()

    def column(self, col: int) -> np.ndarray:
        """Column read: one-hot column select on the RWLs (§4.2)."""
        return self.bits[:, col].copy()

    def and_reduce_nor(self, vec: np.ndarray) -> np.ndarray:
        """Per-row ``NOR(row & vec)``: True where no activated bit is set.

        This is the grant computation of the classic age matrix and of
        the commit dependency check: precharge the RBLs of every row,
        activate the RWLs selected by ``vec``, and sense.
        """
        return ~(self.bits & vec).any(axis=1)

    def and_popcount(self, vec: np.ndarray) -> np.ndarray:
        """Per-row ``popcount(row & vec)``.

        In hardware the count is not produced digitally — the voltage
        drop on the RBL is proportional to it and a thresholded sense
        amplifier yields the comparison (§4.1).  The model exposes the
        count; callers compare against a threshold exactly once, which
        is the single sensing the hardware performs.
        """
        return (self.bits & vec).sum(axis=1)

    def and_popcount_below(self, vec: np.ndarray,
                           threshold: int) -> np.ndarray:
        """Per-row ``popcount(row & vec) < threshold`` — the bit count
        encoding sensed against a reference voltage."""
        return self.and_popcount(vec) < threshold

    # -- bookkeeping ------------------------------------------------------

    def any_set(self) -> bool:
        return bool(self.bits.any())

    def density(self) -> float:
        """Fraction of set bits (used by the power model)."""
        return float(self.bits.mean())

    def copy(self) -> "BitMatrix":
        clone = BitMatrix(self.rows, self.cols)
        clone.bits = self.bits.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and bool(np.array_equal(self.bits, other.bits)))

    def __repr__(self) -> str:
        return f"<BitMatrix {self.rows}x{self.cols} density={self.density():.3f}>"
