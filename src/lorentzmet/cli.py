"""Command-line front door: JSON in, JSON or CSV out.

Exit codes: 0 on success, 1 on a domain error (valid input, impossible
request), 2 on a usage error (bad flags, malformed files).  A reader that
closes stdout early (`| head`) ends the command quietly with exit code 1,
as in the Python documentation's recipe for SIGPIPE.  NaN and infinite
values are written as JSON null; a value past float64 is a domain error.

Each subcommand imports its own module when it runs, so a process loads
only what its command uses; scipy loads only for the sup-norm gaps of more
than `causet.SUP_GAPS_NUMPY_MAX` points.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import EXPERIMENT_KINDS
from .causet import BoundaryError, Causet, load_causet, validate


class UsageError(Exception):
    pass


def _read_causet(path: str) -> Causet:
    try:
        return load_causet(sys.stdin if path == "-" else path)
    except BoundaryError:
        raise  # well-formed, but the space has no such boundary: exit 1
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed JSON in '{path}': {e}") from e
    except OSError as e:
        raise UsageError(f"cannot read '{path}': {e}") from e
    except (KeyError, ValueError, TypeError) as e:
        raise UsageError(f"bad causet in '{path}': {e}") from e


def _finite_float(text: str) -> float:
    """argparse type of --tol, --eps and --k: a float that is not NaN or inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: '{text}'")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: '{text}'")
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(obj: dict, out: str | None) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # JSON has no NaN or Infinity: write null instead
        obj = json.loads(json.dumps(obj), parse_constant=lambda _: None)
        text = json.dumps(obj, indent=2, sort_keys=True)
    _emit(text, out)


def cmd_validate(args) -> None:
    c = _read_causet(args.causet)
    report = validate(c, tol=args.tol)
    _emit_json({"valid": True} if report.valid else report.to_json(), args.out)


def cmd_gamma(args) -> None:
    from .distinction import gamma
    _emit_json(gamma(_read_causet(args.causet)).to_json(), args.out)


def cmd_tau(args) -> None:
    from .causal import time_function
    c = _read_causet(args.causet)
    _emit_json({"kind": "time-function",
                "values": time_function(c).as_dict(c.labels)}, args.out)


def cmd_gh(args) -> None:
    from .gh import gh_exact, gh_upper_greedy
    a = _read_causet(args.a)
    b = _read_causet(args.b)
    if args.exact:
        res = gh_exact(a, b, max_exact_size=args.max_exact_size)
    else:
        res = gh_upper_greedy(a, b, seed=args.seed)
    _emit_json(res.to_json(), args.out)


def cmd_net(args) -> None:
    from .nets import extract_net
    c = _read_causet(args.causet)
    net = extract_net(c, args.eps)
    _emit_json({"kind": "net", "eps": net.eps, "host_n": c.n,
                "members": list(net.members)}, args.out)


def cmd_rationalize(args) -> None:
    from .nets import rationalize
    c = _read_causet(args.causet)
    _emit_json(rationalize(c, args.eps).to_json(), args.out)


def cmd_sample(args) -> None:
    from .diamond import DiamondSpace, SampleSpec, sample_causet
    if args.space != "diamond":
        raise UsageError(f"unknown space '{args.space}'")
    spec = SampleSpec(count=args.n, seed=args.seed, mode=args.mode,
                      include_boundary_point=args.boundary)
    _emit_json(sample_causet(DiamondSpace(), spec).to_json(), args.out)


def cmd_curvature(args) -> None:
    from .curvature import check_curvature_bound
    c = _read_causet(args.causet)
    rep = check_curvature_bound(c, k=args.k, bound=args.bound, tol=args.tol,
                                max_triangles=args.max_triangles,
                                seed=args.seed)
    _emit_json(rep.to_json(), args.out)


def cmd_limit(args) -> None:
    from .nets import limit_causet
    seq = [_read_causet(p) for p in args.causets]
    _emit_json(limit_causet(seq, tol=args.tol).to_json(), args.out)


def cmd_experiment(args) -> None:
    from .experiments import ExperimentConfig, run_experiment
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        cfg = ExperimentConfig(kind=args.kind, sizes=sizes, seed=args.seed,
                               eps=args.eps, tol=args.tol)
    except ValueError as e:
        raise UsageError(f"bad experiment config: {e}") from e
    csv_text = run_experiment(cfg)
    config = {"kind": cfg.kind, "sizes": list(sizes), "seed": cfg.seed,
              "eps": cfg.eps, "tol": cfg.tol}
    if args.out is None:
        print(json.dumps({"config": config}), file=sys.stderr)
        sys.stdout.write(csv_text)
    else:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        _emit_json({"config": config, "out": args.out}, None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzmet",
        description="Finite bounded Lorentzian metric spaces: validation, "
                    "metrics, causal structure, GH distances, nets, sampling,"
                    " curvature checks, and experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms of a causet file")
    p.add_argument("causet", help="causet JSON path, or - for stdin")
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gamma", help="distinction metric matrix")
    p.add_argument("causet")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("tau", help="time function values")
    p.add_argument("causet")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("gh", help="Gromov-Hausdorff distance between causets")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--max-exact-size", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gh)

    p = sub.add_parser("net", help="greedy epsilon-net of a causet")
    p.add_argument("causet")
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("rationalize",
                       help="perturb to rational, strict distances")
    p.add_argument("causet")
    p.add_argument("--eps", type=_finite_float, default=1e-3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rationalize)

    p = sub.add_parser("sample", help="sample a causet from a continuum space")
    p.add_argument("space", help="currently only 'diamond'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("uniform", "grid"), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boundary", action="store_true",
                   help="adjoin the spacelike boundary point")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("curvature", help="flat comparison bound check")
    p.add_argument("causet")
    p.add_argument("--k", type=_finite_float, default=0.0)
    p.add_argument("--bound", choices=("lower", "upper"), default="lower")
    p.add_argument("--tol", type=_finite_float, default=0.05)
    p.add_argument("--max-triangles", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("limit", help="entrywise limit of aligned causets")
    p.add_argument("causets", nargs="+")
    p.add_argument("--tol", type=_finite_float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("experiment", help="run a seeded experiment, emit CSV")
    p.add_argument("kind", choices=EXPERIMENT_KINDS)
    p.add_argument("--sizes", default="25,50,100,200")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=_finite_float, default=0.2)
    p.add_argument("--tol", type=_finite_float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # stdout is gone: point it at devnull so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as e:  # OverflowError: past float64
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
