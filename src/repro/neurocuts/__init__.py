"""NeuroCuts: the paper's core contribution, built on the RL and tree substrates."""

from repro.neurocuts.config import (
    NeuroCutsConfig,
    PARTITION_MODES,
    REWARD_MODES,
    REWARD_SCALING,
)
from repro.neurocuts.action_space import (
    ActionSpec,
    NeuroCutsActionSpace,
    SIMPLE_PARTITION_THRESHOLDS,
)
from repro.neurocuts.observation import (
    NUM_EFFICUTS_CATEGORIES,
    ObservationEncoder,
    binary_encode,
    one_hot,
)
from repro.neurocuts.reward import (
    RewardCalculator,
    RewardComponents,
    SCALING_FUNCTIONS,
    floor_discount,
    linear_scaling,
    log_scaling,
    space_excess,
)
from repro.neurocuts.env import NeuroCutsEnv, RolloutResult
from repro.neurocuts.workers import (
    ROLLOUT_BACKENDS,
    RolloutShard,
    RolloutSummary,
    RolloutWorker,
    ShardRequest,
    make_rollout_executor,
    shard_budgets,
    shard_seeds,
)
from repro.neurocuts.trainer import (
    IterationStats,
    NeuroCutsBuilder,
    NeuroCutsTrainer,
    TrainingResult,
)
from repro.neurocuts.service import (
    RetrainRequest,
    RetrainResponse,
    default_retrain_config,
    run_retrain,
)
from repro.neurocuts.updates import IncrementalUpdater, UpdateStats
from repro.neurocuts.visualize import (
    LevelProfile,
    TreeProfile,
    compare_profiles,
    profile_tree,
    render_profile,
)

__all__ = [
    "NeuroCutsConfig",
    "PARTITION_MODES",
    "REWARD_MODES",
    "REWARD_SCALING",
    "ActionSpec",
    "NeuroCutsActionSpace",
    "SIMPLE_PARTITION_THRESHOLDS",
    "NUM_EFFICUTS_CATEGORIES",
    "ObservationEncoder",
    "binary_encode",
    "one_hot",
    "RewardCalculator",
    "RewardComponents",
    "SCALING_FUNCTIONS",
    "linear_scaling",
    "floor_discount",
    "log_scaling",
    "space_excess",
    "NeuroCutsEnv",
    "RolloutResult",
    "ROLLOUT_BACKENDS",
    "RolloutShard",
    "RolloutSummary",
    "RolloutWorker",
    "ShardRequest",
    "make_rollout_executor",
    "shard_budgets",
    "shard_seeds",
    "IterationStats",
    "NeuroCutsBuilder",
    "NeuroCutsTrainer",
    "TrainingResult",
    "RetrainRequest",
    "RetrainResponse",
    "default_retrain_config",
    "run_retrain",
    "IncrementalUpdater",
    "UpdateStats",
    "LevelProfile",
    "TreeProfile",
    "compare_profiles",
    "profile_tree",
    "render_profile",
]
