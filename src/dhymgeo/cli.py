"""Command-line front end: angle evaluation, fuzz suites, field and geodesic runs.

Reports are line-oriented ``key=value`` pairs so CI can diff them; exit
codes are 0 for success, 1 for a failed validation or fuzz assertion,
and 2 for configuration or precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .angles import (
    EPS_SINGULAR,
    classify_singular,
    modulus_r,
    phi_lifted_lsc,
    phi_lifted_usc,
    phi_regular,
    slice_angle_gap,
    theta,
    DegenerateAngleError,
)
from .config import load_dhym_potential, load_geometry, load_problem
from .errors import PreconditionError, ValidationError
from .geometry import (
    angle_field,
    dhym_residual,
    h_membership,
    hat_theta,
    select_branch,
    write_grid,
    z_integral,
)
from .geodesic import solve
from .linalg import format_matrix_literal, parse_matrix_literal
from .subequations import (
    Branch,
    SubeqSpec,
    SPACETIME,
    convexity_fuzz,
    duality_fuzz,
    positivity_fuzz,
)

DEFAULT_SEED = 123456789


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


class Report:
    def __init__(self):
        self.lines = []

    def add(self, key, value):
        self.lines.append(f"{key}={_fmt(value)}")

    def block(self, header, text):
        self.lines.append(header + ":")
        self.lines.extend("  " + ln for ln in text.splitlines())

    def emit(self, out_dir=None, name="report.txt"):
        text = "\n".join(self.lines) + "\n"
        sys.stdout.write(text)
        if out_dir:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            (Path(out_dir) / name).write_text(text)


def _check_eps_singular(args):
    if not args.eps_singular >= 0.0:
        raise PreconditionError(f"--eps-singular must be >= 0, got {args.eps_singular!r}")


def cmd_angles(args):
    _check_eps_singular(args)
    if args.matrix == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.matrix).read_text()
    M = parse_matrix_literal(text)
    rep = Report()
    rep.add("matrix_dim", M.shape[0])
    rep.add("theta", theta(M))
    rep.add("modulus_r", modulus_r(M))
    sing = classify_singular(M, args.eps_singular)
    rep.add("in_S", sing.in_S)
    rep.add("a11", sing.a11)
    rep.add("a1_norm", sing.a1_norm)
    rep.add("threshold", sing.threshold)
    if not sing.in_S:
        try:
            rep.add("phi", phi_regular(M))
        except DegenerateAngleError:
            rep.add("phi", "degenerate")
    usc = phi_lifted_usc(M, args.eps_singular)
    lsc = phi_lifted_lsc(M, args.eps_singular)
    rep.add("phi_usc", usc.value)
    rep.add("phi_usc_tag", usc.tag)
    rep.add("phi_lsc", lsc.value)
    rep.add("phi_lsc_tag", lsc.tag)
    rep.add("slice_gap", slice_angle_gap(M, args.eps_singular))
    rep.emit(args.out, "angles.txt")
    return 0


def _default_c(n):
    return (n - 0.5) * math.pi / 2


def cmd_fuzz(args):
    _check_eps_singular(args)
    rep = Report()
    negative = args.suite == "convexity-negative"
    n = args.n if args.n is not None else (2 if negative else 1)
    if args.suite == "duality":
        result = duality_fuzz(
            n, args.trials, args.seed, eps=args.eps_singular, threads=args.threads
        )
        passed = result.violations == 0
    elif args.suite == "positivity":
        c = args.c if args.c is not None else _default_c(n)
        spec = SubeqSpec(space=SPACETIME, branch=Branch(c=c, n=n))
        result = positivity_fuzz(
            spec, args.trials, args.seed, eps=args.eps_singular, threads=args.threads
        )
        passed = result.violations == 0
    elif args.suite in ("convexity", "convexity-negative"):
        default_c = -0.75 * math.pi if negative else _default_c(n)
        c = args.c if args.c is not None else default_c
        result = convexity_fuzz(
            Branch(c=c, n=n),
            args.trials,
            args.seed,
            eps=args.eps_singular,
            allow_out_of_regime=negative,
            threads=args.threads,
        )
        passed = (result.violations > 0) if negative else (result.violations == 0)
    else:
        raise PreconditionError(f"unknown suite {args.suite!r}")

    rep.add("suite", args.suite)
    rep.add("trials", result.trials)
    rep.add("seed", result.seed)
    rep.add("violations", result.violations)
    rep.add("worst", result.worst)
    for key, value in sorted(result.details.items()):
        rep.add(key, value)
    rep.add("status", "pass" if passed else "fail")
    for i, wit in enumerate(result.witnesses[:2]):
        rep.block(f"witness_{i}", format_matrix_literal(np.atleast_2d(wit[0])))
    rep.emit(args.out, "fuzz.txt")
    return 0 if passed else 1


def cmd_dhym(args):
    geom = load_geometry(args.config)
    phi = load_dhym_potential(args.config, geom)
    rep = Report()
    Z = z_integral(geom, phi)
    th = hat_theta(geom, phi)
    branch = select_branch(geom, phi)
    ok, delta = h_membership(geom, phi, branch.c)
    fld = angle_field(geom, phi)
    res = dhym_residual(geom, phi, branch.c)
    rep.add("n", geom.n)
    rep.add("grid", " ".join(str(g) for g in geom.grid))
    rep.add("Z_re", Z.real)
    rep.add("Z_im", Z.imag)
    rep.add("hat_theta", th)
    rep.add("c", branch.c)
    rep.add("in_regime", branch.in_convexity_regime)
    rep.add("h_member", ok)
    rep.add("h_margin", delta)
    rep.add("theta_min", fld.vmin)
    rep.add("theta_max", fld.vmax)
    rep.add("theta_osc", fld.oscillation)
    rep.add("residual_sup", float(np.max(np.abs(res))))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_grid(out / "theta.grid", fld.values)
        write_grid(out / "residual.grid", res)
    rep.emit(args.out, "dhym.txt")
    return 0


def cmd_geodesic(args):
    problem, residual_tol = load_problem(args.config)
    U, report = solve(problem)
    rep = Report()
    rep.add("nt", problem.nt)
    rep.add("grid", " ".join(str(g) for g in problem.geom.grid))
    rep.add("c", problem.branch.c)
    rep.add("margin_phi1", problem.margins[0])
    rep.add("margin_phi2", problem.margins[1])
    rep.add("iterations", report.iterations)
    rep.add("krylov_iterations", report.krylov_iterations)
    rep.add("final_max_update", report.final_max_update)
    rep.add("floor", report.floor)
    rep.add("converged", report.converged)
    rep.add("stop_reason", report.stop_reason)
    rep.add("perron_check", report.perron_check)
    rep.add("n_regular", report.n_regular)
    rep.add("n_singular", report.n_singular)
    rep.add("residual_regular_max", report.residual_regular_max)
    rep.add("singular_usc_gap_min", report.singular_usc_gap_min)
    rep.add("sandwich_low_worst", report.sandwich_low_worst)
    rep.add("sandwich_high_worst", report.sandwich_high_worst)
    rep.add("sandwich_ok", report.sandwich_ok)
    rep.add("slice_ok", report.slice_ok)
    if report.two_init_discrepancy is not None:
        rep.add("two_init_discrepancy", report.two_init_discrepancy)
        rep.add("two_init_iterations", len(report.details["two_init_newton_steps"]))
    print(f"runtime_seconds={report.runtime_seconds:.3f}", file=sys.stderr)
    if report.stop_reason == "max_iters":
        print(
            f"note: the Newton steps hit max_iters={problem.max_iters} before the "
            "projected distance met sweep_tol",
            file=sys.stderr,
        )

    checks = {
        "converged": report.converged,
        "finite": report.all_finite(),
        "sandwich": report.sandwich_ok,
        "slices": report.slice_ok,
        "residual": report.residual_regular_max <= residual_tol,
        "singular_gap": report.singular_usc_gap_min >= -residual_tol
        or report.n_singular == 0,
    }
    sweep_bound = max(10.0 * problem.sweep_tol, 1e-9)
    checks["perron"] = report.perron_check <= sweep_bound
    if report.two_init_discrepancy is not None:
        checks["two_init"] = report.two_init_discrepancy <= sweep_bound
    for name, ok in checks.items():
        rep.add(f"check_{name}", "pass" if ok else "fail")
    status = all(checks.values())
    rep.add("status", "pass" if status else "fail")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_grid(out / "solution.grid", U)
        with open(out / "slices.csv", "w") as fh:
            fh.write("t_index,t,theta_min,theta_max\n")
            t_grid = problem.t_grid
            for i, (lo, hi) in enumerate(report.slice_ranges, start=1):
                fh.write(f"{i},{t_grid[i]:.12g},{lo:.12g},{hi:.12g}\n")
    rep.emit(args.out, "geodesic.txt")
    return 0 if status else 1


@functools.cache
def build_parser():
    # built once per process: the parser binds the cmd_* functions it was
    # built with, so patching one after the first call does not reach main
    parser = argparse.ArgumentParser(
        prog="dhymgeo",
        description="Angle calculus and weak geodesics for positive (1,1)-potentials on flat tori.",
    )
    parser.add_argument("--version", action="version", version=f"dhymgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angles", help="evaluate the angle operators on a matrix literal")
    p.add_argument("--matrix", required=True, help="matrix literal file, or - for stdin")
    p.add_argument("--eps-singular", type=float, default=EPS_SINGULAR)
    p.add_argument("--out", default=None, help="directory for the report copy")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("fuzz", help="run a property fuzz suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=["duality", "positivity", "convexity", "convexity-negative"],
    )
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--c", type=float, default=None, help="branch constant (radians)")
    p.add_argument(
        "--n",
        type=int,
        default=None,
        help="spatial complex dimension (default 1, or 2 for convexity-negative)",
    )
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--eps-singular", type=float, default=EPS_SINGULAR)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("dhym", help="evaluate background fields for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dhym)

    p = sub.add_parser("geodesic", help="solve the boundary problem for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_geodesic)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
