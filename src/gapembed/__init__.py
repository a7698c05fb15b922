"""Bounded-gap embedding of random binary sequences.

Solver (bitset reachability), base-level structure analysis (walls, holes,
hops), renormalization parameter calculus, and a reproducible
Monte Carlo harness.
"""

__version__ = "0.1.0"

from .engine import (
    EmbeddingPath,
    ReachFrontier,
    brute_force_reachable,
    check_embedding,
    embeddable_prefix,
    extract_embedding,
    rect_reachable,
)
from .experiments import (
    EstimateRow,
    TrialPlan,
    estimate_embed_prob,
    hole_frequency_check,
    sweep,
    wall_frequency_check,
)
from .params import (
    DEFAULT_EXPONENTS,
    ExponentTuple,
    LevelParams,
    base_params,
    level_table,
    rank_prob,
    verify_exponents,
)
from .renorm import (
    CompoundWall,
    LevelStructures,
    compound_walls,
    detect_missing_hole_event,
    estimate_missing_hole_trap,
    finish_step,
)
from .sequences import BinarySequence, load_sequence_file
from .walls import (
    Interval,
    WallValue,
    construct_base_path,
    find_dominant_walls,
    find_fitting_hole,
    find_walls,
    hop_check,
    slope_condition,
    spanning_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
