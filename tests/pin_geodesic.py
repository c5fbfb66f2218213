"""Pins of ``dhymgeo geodesic`` on configs/geodesic_{sample,generic,full}.cfg
and of the library solves of set A.

Rewrite tests/golden/geodesic_pins.txt and tests/golden/set_a_pins.txt from
the repository root with

    PYTHONPATH=src python tests/pin_geodesic.py

Per config geodesic_pins.txt holds a ``[name]`` header, the integer report
lines and every check_ and status line as printed, then ``grid=`` with the
shape of solution.grid and its values as hex floats, one row of the last
axis a line.  ``tests/test_cli.py::TestGeodesicPins`` compares the lines
exactly and the grid within 1e-13.

Set A is the 40 problems of ``tests/test_geodesic.py::generic_problems(40)``.
Per problem set_a_pins.txt holds a ``[set_a/k]`` header, the Newton step
counts of both starts and the interior rows of the solution in the same
layout; ``tests/test_geodesic.py::TestSetAPins`` compares the counts exactly
and the grid within 1e-13.

A change to the pins is a change to a check: record it with its reason.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np

from dhymgeo.cli import main
from dhymgeo.geodesic import solve
from dhymgeo.geometry import read_grid

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
PINS = HERE / "golden" / "geodesic_pins.txt"
SET_A_PINS = HERE / "golden" / "set_a_pins.txt"
NAMES = ("geodesic_sample", "geodesic_generic", "geodesic_full")
INTEGERS = ("iterations", "krylov_iterations", "two_init_iterations", "n_regular", "n_singular")


def pinned_lines(report):
    """The report lines the pins hold, in report order."""
    return [
        line
        for line in report.splitlines()
        if line.split("=", 1)[0] in INTEGERS or line.startswith(("check_", "status="))
    ]


def grid_lines(grid):
    """``grid=`` with the shape of ``grid``, then its rows as hex floats."""
    rows = grid.reshape(-1, grid.shape[-1]).tolist()
    return ["grid=" + " ".join(map(str, grid.shape))] + [" ".join(v.hex() for v in row) for row in rows]


def pin_text(name):
    """The pin file's lines for one config, from a run of the CLI."""
    with tempfile.TemporaryDirectory() as out:
        report = io.StringIO()
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
            main(["geodesic", "--config", str(CONFIGS / f"{name}.cfg"), "--out", out])
        grid = read_grid(Path(out) / "solution.grid")
    return [f"[{name}]", *pinned_lines(report.getvalue())] + grid_lines(grid)


def set_a_lines(problem):
    """(pinned lines, interior rows) of one set-A problem from a library
    solve: the lines hold both starts' Newton step counts."""
    U, report = solve(problem)
    return [
        f"newton_steps={len(report.details['newton_steps'])}",
        f"two_init_newton_steps={len(report.details['two_init_newton_steps'])}",
    ], U[1:-1]


def set_a_text():
    """The set-A pin file's lines."""
    from test_geodesic import generic_problems  # here: test_geodesic imports this module

    text = []
    for k, problem in enumerate(generic_problems(40)):
        lines, interior = set_a_lines(problem)
        text += [f"[set_a/{k}]", *lines] + grid_lines(interior)
    return text


def read_pins(path=PINS):
    """{name: (pinned lines, grid)} from a pin file."""
    pins = {}
    for line in path.read_text().splitlines():
        if line.startswith("["):
            pin = pins[line[1:-1]] = {"lines": [], "values": []}
        elif line.startswith("grid="):
            pin["shape"] = tuple(int(s) for s in line[len("grid=") :].split())
        elif "=" in line:
            pin["lines"].append(line)
        else:
            pin["values"].extend(float.fromhex(v) for v in line.split())
    return {name: (pin["lines"], np.reshape(pin["values"], pin["shape"])) for name, pin in pins.items()}


if __name__ == "__main__":
    PINS.write_text("\n".join(line for name in NAMES for line in pin_text(name)) + "\n")
    SET_A_PINS.write_text("\n".join(set_a_text()) + "\n")
