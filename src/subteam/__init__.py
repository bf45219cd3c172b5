"""Clustering-based subteam replacement in attributed social networks."""

from .encoder import (
    ClusterModel,
    EncoderParams,
    build_containers,
    default_cluster_count,
    encode,
    hard_assign,
    init_params,
    load_checkpoint,
    row_softmax,
    save_checkpoint,
)
from .errors import (
    ConvergenceError,
    NonFiniteLossError,
    ParseError,
    RefusalError,
    ValidationError,
)
from .evaluate import (
    EvalCaps,
    EvalReport,
    evaluate_case_metrics,
    feature_subsample,
    run_comparison,
)
from .graph import (
    LabeledGraph,
    SocialNetwork,
    Team,
    generate_synthetic,
    induced_subgraph,
    load_network,
    load_teams,
    normalize_adjacency,
    planted_blocks,
    save_network,
    save_teams,
)
from .kernels import (
    KernelConfig,
    graph_edit_distance,
    kernel_baseline_replace,
    marginalized_kernel,
    random_walk_kernel,
    shortest_path_kernel,
)
from .objectives import (
    LossWeights,
    clustering_loss,
    contrastive_loss,
    cosine,
    cosine_rows,
    skill_loss,
    structural_loss,
    team_embedding,
    total_loss,
)
from .recommender import ReplacementResult, recommend
from .trainer import (
    TrainConfig,
    sample_subteam,
    split_teams,
    train,
    write_train_log,
)

__version__ = "0.1.0"
