"""The public API of lorentzmet, pinned.

Removing or renaming a public name is a deliberate edit of this list,
recorded in CHANGES.md, never a side effect of a refactor.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import lorentzmet

PUBLIC_NAMES = [
    "CausalRelation",
    "Causet",
    "Chain",
    "CheckRecord",
    "Correspondence",
    "CurvatureReport",
    "DiamondSpace",
    "EpsilonNet",
    "FamilyReport",
    "GHResult",
    "GammaMatrix",
    "KuratowskiVector",
    "MemberCheck",
    "SampleSpec",
    "SideParams",
    "SidePoint",
    "TimeFunction",
    "TimelikeTriangle",
    "TotallyBoundedParams",
    "TriangleRecord",
    "ValidationReport",
    "Violation",
    "adjoin_boundary",
    "causal_relation",
    "causet_from_points",
    "chain_length",
    "check_curvature_bound",
    "check_uniformly_totally_bounded",
    "chronological_relation",
    "comparison_distance_m0",
    "comparison_triangle_m0",
    "compose",
    "diameter",
    "diamond_distance",
    "diamond_gamma",
    "distance_quotient",
    "distortion",
    "dump_causet",
    "epsilon_isometry_from",
    "extract_net",
    "find_isometries",
    "gamma",
    "gamma_ball",
    "gamma_scaling_exponent",
    "gh_exact",
    "gh_lower_bounds",
    "gh_upper_greedy",
    "gh_zero_is_isometry",
    "hausdorff_gamma",
    "induced",
    "is_chain",
    "is_maximal",
    "kuratowski_distance",
    "kuratowski_embed",
    "limit_causet",
    "load_causet",
    "longest_chain",
    "map_distortion",
    "net_correspondence",
    "net_to_causet",
    "rationalize",
    "realizable",
    "reverse_triangle_slack",
    "sample_causet",
    "simplest_rational_between",
    "strip_boundary",
    "time_function",
    "time_function_normalized",
    "validate",
]


def test_public_names_are_pinned():
    assert sorted(lorentzmet.__all__) == PUBLIC_NAMES


SCIPY_FREE = textwrap.dedent("""
    import sys
    from lorentzmet import *
    c = sample_causet(DiamondSpace(), SampleSpec(count=40, seed=1))
    s = sample_causet(DiamondSpace(), SampleSpec(count=5, seed=2))
    validate(c)
    validate(c.d, tol=0.5)
    causal_relation(c)
    time_function(c)
    check_curvature_bound(c, max_triangles=5)
    gh_exact(s, induced(c, range(5)))
    gh_upper_greedy(c, s)
    assert "scipy" not in sys.modules, "scipy loaded"
    gamma(c)
    assert "scipy" in sys.modules, "gamma without scipy"
""")


def test_scipy_loads_only_for_sup_norm_gaps():
    # a fresh interpreter: a top-level scipy import anywhere in the package
    # would put it back on every command-line start
    src = str(Path(lorentzmet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
