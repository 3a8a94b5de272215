"""Register renaming: RAT, free list, and the Register Status Table."""

from .freelist import PhysRegFreeList
from .rename import RenameUnit

__all__ = ["PhysRegFreeList", "RenameUnit"]
