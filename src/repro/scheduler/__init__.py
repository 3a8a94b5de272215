"""Issue selection policies ranked by per-entry order keys."""

from .policies import (AgeSelect, IdealSelect, MultSelect, OrinocoSelect,
                       RandomSelect, SelectContext, SelectPolicy,
                       grant_age, make_select_policy, order_key)

__all__ = ["AgeSelect", "IdealSelect", "MultSelect", "OrinocoSelect",
           "RandomSelect", "SelectContext", "SelectPolicy", "grant_age",
           "make_select_policy", "order_key"]
