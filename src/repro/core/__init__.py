"""The paper's contributions: SCT*-Index, SCTL family, sampling, exact."""

from .batch import batch_update
from .exact import sctl_star_exact
from .extraction import PrefixResult, best_prefix_from_cliques, best_prefix_from_paths
from .reductions import (
    KCliquePartition,
    engagement_threshold,
    kp_computation,
    partition_density_bounds,
)
from .multi import top_dense_subgraphs
from .profile import DensityProfile, density_profile
from .sampling import sample_k_cliques, sctl_star_sample
from .sct import HOLD, PIVOT, SCTIndex, SCTPath
from .update import DirtyRegion, apply_edge_updates, compute_update
from .validation import VerificationReport, verify_result
from .sctl import empty_result, sctl
from .sctl_star import IterationStats, sctl_plus, sctl_star

__all__ = [
    "SCTIndex",
    "SCTPath",
    "HOLD",
    "PIVOT",
    "DirtyRegion",
    "apply_edge_updates",
    "compute_update",
    "PrefixResult",
    "best_prefix_from_paths",
    "best_prefix_from_cliques",
    "batch_update",
    "KCliquePartition",
    "kp_computation",
    "partition_density_bounds",
    "engagement_threshold",
    "sctl",
    "sctl_plus",
    "sctl_star",
    "sctl_star_sample",
    "sample_k_cliques",
    "sctl_star_exact",
    "empty_result",
    "IterationStats",
    "DensityProfile",
    "density_profile",
    "top_dense_subgraphs",
    "verify_result",
    "VerificationReport",
]
