"""Experiment definitions: canonical scenarios plus one module per
table/figure of the reproduced evaluation (see DESIGN.md's index), and
:data:`ARTIFACTS`, the one producer of each committed artifact."""

from . import (
    ablations,
    artifacts,
    comparison,
    extensions,
    figures,
    fleet,
    robustness,
    scenarios,
    table1,
)
from .artifacts import ARTIFACTS

__all__ = [
    "ARTIFACTS",
    "ablations",
    "artifacts",
    "comparison",
    "extensions",
    "figures",
    "fleet",
    "robustness",
    "scenarios",
    "table1",
]
