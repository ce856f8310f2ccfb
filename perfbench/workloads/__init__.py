"""The workloads, by name."""

from .match_cold import MatchCold
from .nway_registry import NwayRegistry
from .refine_decide import RefineDecide
from .refine_loop import RefineLoop
from .serve_open import ServeOpen

WORKLOADS = {
    cls.name: cls
    for cls in (MatchCold, RefineDecide, RefineLoop, NwayRegistry, ServeOpen)
}
