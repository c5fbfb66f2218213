"""INI-style configuration files for the field and geodesic commands.

Layout::

    [geometry]
    n = 1
    grid = 32 32            ; axis sizes (x1..xn then y1..yn)
    reduced = false         ; n = 1 only: single x axis, y-invariant data
    alpha0 = 3              ; matrix literal, rows as indented lines
    psi_alpha = 0.1*cos(2*pi*x1)   ; expression or @relative/path.grid

    [dhym]
    phi = 0.1*sin(2*pi*x1)          ; dhym command only: potential, or none

    [problem]
    phi1 = 0.3*cos(2*pi*x1)
    phi2 = 0.2*sin(2*pi*x1)

    [solver]
    nt = 33
    sweep_tol = 1e-12       ; Newton stops when an unshifted step moves less
    max_iters = 100000      ; Newton steps
    two_init = true         ; second run from the upper envelope, report agreement
    residual_tol = 1e-5

Potential values starting with ``@`` are grid files (header line with the
axis sizes, then little-endian float64), resolved relative to the config
file.  A key these sections do not define (a misspelling, say), a
repeated key, and a boolean other than 1/yes/true/on or 0/no/false/off
are refused with PreconditionError (exit 2).
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .errors import PreconditionError
from .geodesic import GeodesicProblem
from .geometry import TorusGeometry, eval_field_expr, read_grid, select_branch
from .linalg import parse_matrix_literal


def _read(path):
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        found = cp.read(path)
    except configparser.Error as exc:
        raise PreconditionError(f"bad config: {exc}") from None
    if not found:
        raise PreconditionError(f"config file {path} not found")
    return cp


def _section(cp, name, keys):
    """Section ``name`` of ``cp`` ({} if absent), refused if it holds a key
    outside ``keys``."""
    if not cp.has_section(name):
        return {}
    sec = cp[name]
    for key in sec:
        if key not in keys:
            raise PreconditionError(f"unknown key {key!r} in [{name}]")
    return sec


def _field(geom, value, base_dir):
    value = value.strip()
    if value.startswith("@"):
        arr = read_grid(Path(base_dir) / value[1:])
        if arr.shape != geom.grid:
            raise PreconditionError(
                f"grid file shape {arr.shape} does not match geometry grid {geom.grid}"
            )
        return arr
    return eval_field_expr(value, geom)


def load_geometry(path):
    return _geometry(_read(path), path)


def _geometry(cp, path):
    """The geometry of the parsed config ``cp`` read from ``path``."""
    if not cp.has_section("geometry"):
        raise PreconditionError("config is missing a [geometry] section")
    sec = _section(cp, "geometry", ("n", "grid", "reduced", "alpha0", "psi_alpha"))
    try:
        n = sec.getint("n", 1)
        reduced = sec.getboolean("reduced", False)
        grid = tuple(int(tok) for tok in sec.get("grid", "").split())
        alpha0 = parse_matrix_literal(sec.get("alpha0", "0"))
    except (ValueError, PreconditionError) as exc:
        raise PreconditionError(f"bad [geometry] section: {exc}") from None
    geom = TorusGeometry(n=n, grid=grid, alpha0=alpha0, reduced=reduced)
    psi = sec.get("psi_alpha", "").strip()
    if psi:
        geom.psi_alpha = _field(geom, psi, Path(path).parent)
    return geom


def load_dhym_potential(path, geom):
    phi = _section(_read(path), "dhym", ("phi",)).get("phi", "").strip()
    if phi:
        return _field(geom, phi, Path(path).parent)
    return None


def load_problem(path):
    cp = _read(path)
    geom = _geometry(cp, path)
    if not cp.has_section("problem"):
        raise PreconditionError("config is missing a [problem] section")
    base = Path(path).parent
    sec = _section(cp, "problem", ("phi1", "phi2"))
    for key in ("phi1", "phi2"):
        if not sec.get(key, "").strip():
            raise PreconditionError(f"[problem] must define {key}")
    phi1 = _field(geom, sec["phi1"], base)
    phi2 = _field(geom, sec["phi2"], base)
    branch = select_branch(geom, require_regime=True)

    sol = _section(cp, "solver", ("nt", "sweep_tol", "max_iters", "two_init", "residual_tol"))

    def get(key, cast, default):
        raw = (sol.get(key) or "").strip()
        if not raw:
            return default
        try:
            if cast is bool:
                return cp.BOOLEAN_STATES[raw.lower()]
            return cast(raw)
        except (KeyError, ValueError):
            raise PreconditionError(f"bad [solver] value for {key}: {raw!r}") from None

    problem = GeodesicProblem(
        geom=geom,
        phi1=phi1,
        phi2=phi2,
        branch=branch,
        nt=get("nt", int, 33),
        sweep_tol=get("sweep_tol", float, 1e-8),
        max_iters=get("max_iters", int, 100000),
        check_two_init=get("two_init", bool, True),
    )
    residual_tol = get("residual_tol", float, 1e-5)
    return problem, residual_tol
