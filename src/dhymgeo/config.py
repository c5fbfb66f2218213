"""INI-style configuration files for the field and geodesic commands.

Layout::

    [geometry]
    n = 1
    grid = 32 32            ; axis sizes (x1..xn then y1..yn)
    reduced = false         ; n = 1 only: single x axis, y-invariant data
    alpha0 = 3              ; matrix literal, rows as indented lines
    psi_alpha = 0.1*cos(2*pi*x1)   ; expression or @relative/path.grid

    [problem]
    phi1 = 0.3*cos(2*pi*x1)
    phi2 = 0.2*sin(2*pi*x1)

    [solver]
    nt = 33
    mode = jacobi           ; the only sweep (Jacobi); may be left out
    sweep_tol = 1e-12
    bisect_tol = 1e-10
    max_iters = 100000
    two_init = true         ; second run from the lower envelope, report agreement
    residual_tol = 1e-5

Potential values starting with ``@`` are grid files (header line with the
axis sizes, then little-endian float64), resolved relative to the config
file.  A config that names the removed ``gauss-seidel`` mode is refused
(PreconditionError, exit 2) rather than run with another solver.
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
    found = cp.read(path)
    if not found:
        raise PreconditionError(f"config file {path} not found")
    return cp


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
    sec = cp["geometry"]
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
    cp = _read(path)
    if cp.has_section("dhym") and cp["dhym"].get("phi", "").strip():
        return _field(geom, cp["dhym"]["phi"], Path(path).parent)
    return None


def load_problem(path):
    cp = _read(path)
    geom = _geometry(cp, path)
    if not cp.has_section("problem"):
        raise PreconditionError("config is missing a [problem] section")
    base = Path(path).parent
    sec = cp["problem"]
    for key in ("phi1", "phi2"):
        if not sec.get(key, "").strip():
            raise PreconditionError(f"[problem] must define {key}")
    phi1 = _field(geom, sec["phi1"], base)
    phi2 = _field(geom, sec["phi2"], base)
    branch = select_branch(geom, require_regime=True)

    sol = cp["solver"] if cp.has_section("solver") else {}

    def get(key, cast, default):
        raw = sol.get(key, "") if hasattr(sol, "get") else ""
        raw = (raw or "").strip()
        if not raw:
            return default
        try:
            if cast is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except ValueError:
            raise PreconditionError(f"bad [solver] value for {key}: {raw!r}") from None

    problem = GeodesicProblem(
        geom=geom,
        phi1=phi1,
        phi2=phi2,
        branch=branch,
        nt=get("nt", int, 33),
        sweep_tol=get("sweep_tol", float, 1e-8),
        bisect_tol=get("bisect_tol", float, 1e-10),
        max_iters=get("max_iters", int, 100000),
        mode=get("mode", str, "jacobi"),
        check_two_init=get("two_init", bool, True),
    )
    residual_tol = get("residual_tol", float, 1e-5)
    return problem, residual_tol
