"""Register renaming: RAT, free list, and the Register Status Table."""

from .freelist import PhysRegFreeList
from .rename import RenameRecord, RenameUnit

__all__ = ["PhysRegFreeList", "RenameRecord", "RenameUnit"]
