"""clusternets: chain-distance clustering, cluster networks, and p-adic
lattice verification with exact rational arithmetic.

The pipeline: distance matrices -> chain distance (the largest ultrametric
below a dissimilarity) -> dendrograms -> fused cluster networks over metric
families -> simplicial structure and dimension. The padic module checks the
correspondence between maximal lattice chains and weighted-max-norm ball
chains at small (p, d) by exhaustive enumeration.
"""

from .dendrogram import Cluster, Dendrogram, build_dendrogram, sup_cluster
from .errors import StructuralError
from .metric import DistanceMatrix, as_fraction, chain_distance
from .network import (
    ClusterNetwork,
    NetworkEdge,
    NetworkVertex,
    chain_to_superball,
    is_r_ball,
    merge_dendrograms,
    minimal_common_superball,
    to_dot,
    to_json,
    to_json_dict,
    undirected_cycles,
)
from .padic import (
    Lattice,
    LatticeChain,
    LatticeClass,
    NormSpec,
    ball_network,
    ball_of_radius,
    basis_from_chain,
    check_norm_axioms,
    enumerate_subspaces,
    flag_count,
    intermediary_balls,
    is_adjacent,
    lattices_between,
    maximal_chains,
    norm_from_chain,
    verify_correspondence,
)
from .phylo import MarkerSet, SweepGrid, combine, sweep
from .simplicial import (
    CompatibilityReport,
    DimensionReport,
    Simplex,
    SimplicialComplex,
    build_complex,
    check_compatibility,
    network_dimension,
)

__version__ = "0.1.0"
