"""Bounded-gap embedding of random binary sequences.

Solver (bitset reachability), level-1 structure analysis (walls, holes,
spanning covers, base paths), compound walls, the renormalization parameter
calculus, and a reproducible Monte Carlo harness.  The harness is imported
from `gapembed.experiments` and is not re-exported here: it needs numpy,
which `import gapembed` does not load.
"""

__version__ = "0.1.0"
# The generator behind every stream of `gapembed.rng`, named in the
# metadata of every output.
RNG_ID = "numpy-philox4x64-10"

from .engine import (
    EmbeddingPath,
    ReachFrontier,
    brute_force_reachable,
    check_embedding,
    embeddable_prefix,
    extract_embedding,
    rect_reachable,
)
from .params import (
    DEFAULT_EXPONENTS,
    ExponentTuple,
    LevelParams,
    base_params,
    level_table,
    verify_exponents,
)
from .renorm import (
    CompoundWall,
    compound_walls,
)
from .sequences import BinarySequence, load_sequence_file
from .walls import (
    Interval,
    WallValue,
    construct_base_path,
    find_fitting_hole,
    find_walls,
    slope_condition,
    spanning_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
