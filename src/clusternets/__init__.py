"""clusternets: chain-distance clustering, cluster networks, and p-adic
lattice verification with exact rational arithmetic.

The pipeline: distance matrices -> chain distance (the largest ultrametric
below a dissimilarity) -> dendrograms -> fused cluster networks over metric
families -> simplicial structure and dimension. The padic module checks the
correspondence between maximal lattice chains and weighted-max-norm ball
chains at small (p, d) by exhaustive enumeration.

Importing the package loads none of its modules: each name is imported
from its module on first use (PEP 562), so code that never uses `padic`
never loads it.
"""

from importlib import import_module

_EXPORTS = {
    "dendrogram": ("Cluster", "Dendrogram", "build_dendrogram"),
    "errors": ("StructuralError",),
    "metric": ("DistanceMatrix", "as_fraction", "chain_distance"),
    "network": (
        "ClusterNetwork", "NetworkEdge", "NetworkVertex", "chain_to_superball",
        "merge_dendrograms", "to_dot", "to_json", "to_json_dict",
    ),
    "padic": (
        "Lattice", "LatticeChain", "NormSpec", "ball_network", "enumerate_subspaces",
        "flag_count", "intermediary_balls", "maximal_chains", "norm_from_chain",
        "verify_correspondence",
    ),
    "phylo": ("MarkerSet", "SweepGrid", "combine", "sweep"),
    "simplicial": (
        "CompatibilityReport", "DimensionReport", "Simplex", "SimplicialComplex",
        "build_complex", "check_compatibility", "network_dimension",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
