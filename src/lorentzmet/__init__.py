"""Finite and sampled bounded Lorentzian metric spaces.

Causets (finite Lorentzian distance matrices), axiom validation, the
distinction metric, causal structure and time functions, Gromov-Hausdorff
distances, epsilon-nets, rationalization, limits, a flat diamond sampler,
and flat-model curvature comparison.

Public names are loaded on first access (PEP 562), so a process imports
only the submodules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# the kinds of `experiments.ExperimentConfig`, here so that the command
# line can list them without loading the experiment runners
EXPERIMENT_KINDS = ("convergence", "gamma-scaling", "curvature", "limit")

# the one list of public names, by submodule; each submodule's __all__ is
# its entry
_PUBLIC = {
    "causal": ("CausalRelation", "Chain", "TimeFunction", "causal_relation",
               "chain_length", "is_chain", "is_maximal", "longest_chain",
               "time_function"),
    "causet": ("BoundaryError", "Causet", "ValidationReport", "Violation",
               "adjoin_boundary", "chronological_relation", "diameter",
               "distance_quotient", "dump_causet", "find_isometries",
               "induced", "load_causet", "reverse_triangle_slack",
               "strip_boundary", "validate"),
    "curvature": ("CheckRecord", "CurvatureReport", "SideParams", "SidePoint",
                  "TriangleRecord", "check_curvature_bound",
                  "comparison_distance_m0", "comparison_triangle_m0",
                  "realizable"),
    "diamond": ("DiamondSpace", "SampleSpec", "causet_from_points",
                "diamond_distance", "diamond_gamma", "gamma_scaling_exponent",
                "sample_causet"),
    "distinction": ("GammaMatrix", "gamma", "gamma_ball", "hausdorff_gamma"),
    "gh": ("Correspondence", "GHResult", "distortion", "gh_exact",
           "gh_lower_bounds", "gh_upper_greedy", "gh_zero_is_isometry"),
    "nets": ("EpsilonNet", "FamilyReport", "MemberCheck",
             "TotallyBoundedParams", "check_uniformly_totally_bounded",
             "extract_net", "limit_causet", "net_correspondence",
             "net_to_causet", "rationalize"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule defining a public name, once, and bind it;
    `lorentzmet.<submodule>` imports that submodule, as an eager package
    would have."""
    if name in _PUBLIC:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
