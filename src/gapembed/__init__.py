"""Bounded-gap embedding of random binary sequences.

Solver (bitset reachability), base-level structure analysis (walls, holes,
hops, cleanness), renormalization parameter calculus, and a reproducible
Monte Carlo harness.
"""

__version__ = "0.1.0"

from .engine import (
    EmbeddingPath,
    ReachFrontier,
    brute_force_reachable,
    check_embedding,
    compose_embeddings,
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
    emerging_rank,
    hole_prob,
    level_params,
    level_table,
    rank_bound,
    rank_prob,
    verify_exponents,
)
from .renorm import (
    CompoundWall,
    LevelStructures,
    compound_walls,
    designate_emerging_walls,
    detect_emerging_barrier,
    detect_missing_hole_event,
    estimate_missing_hole_trap,
    finish_step,
    promote_cleanness,
)
from .sequences import BinarySequence, load_sequence_file, save_sequence_file
from .walls import (
    CleannessReport,
    Hole,
    Interval,
    WallValue,
    construct_base_path,
    find_dominant_walls,
    find_fitting_hole,
    find_walls,
    hop_check,
    is_external,
    level1_cleanness,
    slope_condition,
    spanning_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
