"""Branch prediction (Table 1: 2-bit counters for both machines)."""

from repro.branch.predictors import BranchPredictor, TwoBitCounterPredictor

__all__ = [
    "BranchPredictor",
    "TwoBitCounterPredictor",
]
