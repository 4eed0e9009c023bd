"""Solvers and experiment harness for embedding path- and cycle-shaped
virtual network requests onto capacitated substrate networks."""

from .baseline import generic_batch, generic_embed, node_scores
from .cycle_embedding import (
    CycleView,
    SimplexEmbedding,
    Wdag,
    build_wdag,
    c2ce,
    feasible_sets,
    greedy_revenue,
    min_weight_cycle,
)
from .experiment import ExperimentConfig, ExperimentResult, run_experiment
from .generators import (
    RequestSpec,
    SubstrateSpec,
    gen_ddkp_reduction,
    gen_edp_reduction,
    gen_requests,
    gen_substrate,
)
from .knapsack import (
    KpItem,
    MdkpInstance,
    MkpInstance,
    solve_mdkp,
    solve_mkp,
)
from .model import (
    CommitError,
    Embedding,
    EmbeddingBatch,
    MalformedEmbeddingError,
    ModelError,
    Shape,
    SubstrateNetwork,
    VirtualRequest,
    batch_metrics,
    commit,
    release,
    validate_embedding,
)
from .path_embedding import (
    PathPlacement,
    SubstratePath,
    assign_mdkp,
    decompose_paths,
    pack_mkp,
    path_items,
    procedure_pe,
)
from .theory import (
    Graph,
    UniformInstance,
    brute_force_path_embed,
    brute_force_simplex_cycle,
    has_spanning_trail,
    is_supereulerian,
    sg_to_sset_instance,
    sset_to_sg_instances,
)

__version__ = "0.1.0"
