"""Distance-feedback cat-and-mouse localization games on connected graphs.

A cat repeatedly tests vertices and learns one bit per step: whether its
distance to a hidden, lazily moving mouse has not increased.  This package
simulates the game with exact belief-set tracking, implements cat strategies
with provable localization bounds, an adversarial spider-tree mouse that
defeats sub-sqrt(n) localization, and exhaustive oracles to check all of it
at desk scale.
"""

from .cats import (
    BallCoverCat,
    ScriptedCat,
    SeededRandomCat,
    SphereWalkCat,
    StayCat,
    SweepCat,
    auto_thin_K,
    parse_cat_spec,
    sqrt_cat,
)
from .engine import (
    CatStrategy,
    GameError,
    GameView,
    IllegalFeedbackError,
    LocalizationReport,
    MouseStrategy,
    RuleViolationError,
    Transcript,
    feedback_bit,
    localization_report,
    run_game,
)
from .experiment import (
    ExperimentConfig,
    Report,
    derive_seed,
    parse_config_text,
    run_experiment,
)
from .graphs import (
    BallCover,
    DistanceOracle,
    Graph,
    GraphError,
    ParseError,
    SpiderSpec,
    bfs_distances,
    ceil_sqrt,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_tree,
    gen_spider,
    parse_graph,
    parse_graph_spec,
    scattered_cover,
    sphere,
    write_graph,
)
from .mice import (
    GreedyAwayMouse,
    RandomWalkMouse,
    ScriptedMouse,
    SpiderMouse,
    StationaryMouse,
    parse_mouse_spec,
)
from .solver import (
    GameSolver,
    SizeGuardError,
    brute_force_beliefs,
    consistent_trajectory,
    exhaustive_game_value,
)
from .verify import CriterionResult, verify_suite

__version__ = "0.1.0"
