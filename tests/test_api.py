"""The public API of lorentzmet, pinned.

Removing or renaming a public name is a deliberate edit of this list,
recorded in CHANGES.md, never a side effect of a refactor.
"""

import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lorentzmet

PUBLIC_NAMES = [
    "BoundaryError",
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
    "MemberCheck",
    "SampleSpec",
    "SideParams",
    "SidePoint",
    "TimeFunction",
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
    "diameter",
    "diamond_distance",
    "diamond_gamma",
    "distance_quotient",
    "distortion",
    "dump_causet",
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
    "limit_causet",
    "load_causet",
    "longest_chain",
    "net_correspondence",
    "net_to_causet",
    "rationalize",
    "realizable",
    "reverse_triangle_slack",
    "sample_causet",
    "strip_boundary",
    "time_function",
    "validate",
]


def test_public_names_are_pinned():
    assert sorted(lorentzmet.__all__) == PUBLIC_NAMES


def test_each_submodule_exports_its_table_entry():
    # each submodule reads its __all__ from the package's table, so
    # `from lorentzmet.<m> import *` and `lorentzmet.<name>` reach one
    # public surface: the star import binds exactly the entry, and every
    # name is defined in that submodule
    for module, names in lorentzmet._PUBLIC.items():
        namespace = {}
        exec(f"from lorentzmet.{module} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(names), module
        for name, value in namespace.items():
            assert value.__module__ == f"lorentzmet.{module}", name


def test_every_public_tol_refuses_nan():
    # every comparison with NaN is False, so a NaN tol would pass or fail
    # each check silently; is_maximal said True on the non-additive chain
    # below, find_isometries found no self-isometry and
    # gh_zero_is_isometry said False, before they checked tol
    c = lorentzmet.Causet.from_matrix([[0, 1, 3], [0, 0, 1], [0, 0, 0]])
    args = {"c": c, "m": c, "host": c, "a": c, "b": c, "points": [0, 1, 2],
            "chain": [0, 1, 2], "seq": [c, c]}
    checked = []
    for name in lorentzmet.__all__:
        fn = getattr(lorentzmet, name)
        if not inspect.isfunction(fn):
            continue
        params = inspect.signature(fn).parameters
        if "tol" not in params:
            continue
        need = [p for p in params if p != "tol"
                and params[p].default is inspect.Parameter.empty]
        with pytest.raises(ValueError, match="NaN"):
            fn(**{p: args[p] for p in need}, tol=float("nan"))
        checked.append(name)
    assert {"is_maximal", "find_isometries", "gh_zero_is_isometry",
            "causal_relation", "validate"} <= set(checked)


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
    gamma(c)
    edge = sample_causet(DiamondSpace(), SampleSpec(count=128, seed=1))
    assert edge.n == 128
    gamma(edge)
    assert "scipy" not in sys.modules, "scipy loaded"
    big = sample_causet(DiamondSpace(), SampleSpec(count=129, seed=1))
    assert big.n == 129
    gamma(big)
    assert "scipy" in sys.modules, "gamma on 129 points without scipy"
""")

VALIDATE_ONLY = textwrap.dedent("""
    import sys
    from lorentzmet.cli import main
    assert main(["validate", sys.argv[1]]) == 0
    for name in ("lorentzmet.gh", "lorentzmet.nets", "lorentzmet.curvature",
                 "lorentzmet.experiments", "scipy"):
        assert name not in sys.modules, name + " loaded"
    import lorentzmet
    namespace = {}
    exec("from lorentzmet import *", namespace)
    for name in lorentzmet.__all__:
        assert namespace[name] is getattr(lorentzmet, name), name
""")


def _run_fresh(code: str, *args: str) -> None:
    # a fresh interpreter: a top-level import anywhere in the package
    # would put it back on every command-line start
    src = str(Path(lorentzmet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_loads_only_for_sup_norm_gaps():
    _run_fresh(SCIPY_FREE)


def test_validate_command_imports_only_its_modules(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"n": 2, "d": [[0, 1], [0, 0]]}')
    _run_fresh(VALIDATE_ONLY, str(path))
