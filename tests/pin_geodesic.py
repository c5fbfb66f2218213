"""Pins of ``dhymgeo geodesic`` on configs/geodesic_{sample,generic,full}.cfg.

Rewrite tests/golden/geodesic_pins.txt from the repository root with

    PYTHONPATH=src python tests/pin_geodesic.py

Per config the file holds a ``[name]`` header, the integer report lines and
every check_ and status line as printed, then ``grid=`` with the shape of
solution.grid and its values as hex floats, one row of the last axis a line.
``tests/test_cli.py::TestGeodesicPins`` compares the lines exactly and the
grid within 1e-13.  A change to the pins is a change to a check: record it
with its reason.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np

from dhymgeo.cli import main
from dhymgeo.geometry import read_grid

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
PINS = HERE / "golden" / "geodesic_pins.txt"
NAMES = ("geodesic_sample", "geodesic_generic", "geodesic_full")
INTEGERS = ("iterations", "krylov_iterations", "two_init_iterations", "n_regular", "n_singular")


def pinned_lines(report):
    """The report lines the pins hold, in report order."""
    return [
        line
        for line in report.splitlines()
        if line.split("=", 1)[0] in INTEGERS or line.startswith(("check_", "status="))
    ]


def pin_text(name):
    """The pin file's lines for one config, from a run of the CLI."""
    with tempfile.TemporaryDirectory() as out:
        report = io.StringIO()
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
            main(["geodesic", "--config", str(CONFIGS / f"{name}.cfg"), "--out", out])
        grid = read_grid(Path(out) / "solution.grid")
    rows = grid.reshape(-1, grid.shape[-1]).tolist()
    header = [f"[{name}]", *pinned_lines(report.getvalue()), "grid=" + " ".join(map(str, grid.shape))]
    return header + [" ".join(v.hex() for v in row) for row in rows]


def read_pins():
    """{config name: (report lines, grid)} from the pin file."""
    pins = {}
    for line in PINS.read_text().splitlines():
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
