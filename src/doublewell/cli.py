"""Command-line interface.

Subcommands: solve, verify, oracle, report.  Exit codes: 0 ok,
2 configuration error, 3 solver failure, 4 verification residual
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import config as configmod, oracles, pipeline
from .errors import (ConfigurationError, ContractViolation, SolverError,
                     VerificationError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _cmd_solve(args):
    cfg = configmod.parse_config(args.config)
    result = pipeline.run_and_emit(cfg, args.outdir)
    rep = result.report
    print(f"alpha_scheme = {rep['final']['alpha_scheme']!r}")
    print(f"theta_coeff1 = {rep['relaxation']['theta_coeff1']!r}")
    print(f"outputs in   {args.outdir}")
    return EXIT_OK


def _cmd_verify(args):
    checks = pipeline.verify_run(args.run_dir)
    for key, val in checks.items():
        print(f"{key} = {val!r}")
    return EXIT_OK


def _parse_oracle_params(tokens):
    """The oracle's parameters from key=value tokens, each key at most
    once, over the defaults."""
    vals = {"a": 1.0, "b": 1.0, "c": 0.0, "d": 0.0, "volume": 1.0}
    seen = set()
    for tok in tokens:
        key, sep, val = tok.partition("=")
        if not sep or key not in vals:
            raise ConfigurationError(
                f"oracle parameters are key=value with keys {sorted(vals)};"
                f" got {tok!r}")
        if key in seen:
            raise ConfigurationError(f"oracle parameter {key!r} is set twice")
        seen.add(key)
        try:
            vals[key] = float(val)
        except ValueError:
            raise ConfigurationError(f"bad numeric value in {tok!r}")
        if not np.isfinite(vals[key]):
            raise ConfigurationError(f"non-finite value in {tok!r}")
    if not vals["volume"] > 0:
        raise ConfigurationError(
            f"volume must be positive, got {vals['volume']}")
    return vals


def _cmd_oracle(args):
    vals = _parse_oracle_params(args.params)
    env = oracles.envelope_1d(vals["a"], vals["c"], vals["b"], vals["d"])
    out = {
        "parabolas": {"a": env.a, "c": env.c, "b": env.b, "d": env.d},
        "pieces": [
            {k: (None if isinstance(v, float) and not np.isfinite(v)
                 else v) for k, v in piece.items()}
            for piece in env.pieces
        ],
        "f_star_star_at_0": env(0.0),
        "exact_alpha": vals["volume"] * env(0.0),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_report(args):
    report = pipeline.load_report(args.run_dir)
    lines = [
        ("alpha_scheme", "final.alpha_scheme", float),
        ("duality_gap", "final.duality.gap", float),
        ("ker_residual", "final.duality.ker_residual", float),
        ("d", "relaxation.d", float),
        ("denominator", "relaxation.denominator", float),
        ("theta_coeff1", "relaxation.theta_coeff1", float),
        ("alpha_formula_coeff1", "relaxation.alpha_formula_coefficient_1",
         float),
        ("lower_bound", "relaxation.lower_bound.bound", float),
        ("stuck_suspected", "relaxation.stuck_suspected", bool),
        ("ym_energy_residual", "young_measure.energy.residual", float),
        ("dirac_all_passed", "young_measure.dirac.all_passed", bool),
    ]
    print("\n".join(f"{key} = {pipeline.report_leaf(report, path, kind)!r}"
                    for key, path, kind in lines))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="doublewell",
        description="Numerical laboratory for a nonconvex double-well "
                    "variational problem: alternating convex descent, "
                    "duality checks, relaxation formulas, Young measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run an experiment from a config file")
    p.add_argument("config")
    p.add_argument("--outdir", default="runs/out",
                   help="the run directory to write (default: runs/out)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify",
                       help="re-evaluate reported numbers from the dumps")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle",
                       help="1D envelope oracle; params like a=1 c=1 b=1 "
                            "d=-1 volume=1")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("report", help="print a run summary")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ContractViolation) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
