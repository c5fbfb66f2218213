"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: they start subprocesses and patch module attributes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import dhymgeo  # noqa: E402
from dhymgeo import angles, geodesic  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# --- inputs -----------------------------------------------------------------


def _inputs(w):
    if isinstance(w, workloads.GeodesicGrid):
        return [w.problem.phi1, w.problem.phi2]
    if isinstance(w, workloads.GeodesicCli):
        return [path.read_text() for path, _, _ in w.configs]
    if isinstance(w, workloads.AngleFuzz):
        return [w.suite_seed(r, k) for r in range(3) for k in range(len(w.SUITES))]
    return [w.U, np.array([it for it, _ in w.points]), np.array([ix for _, ix in w.points]), w.matrices]


def _same(a, b):
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    ) and len(a) == len(b)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a = cls(7, scratch=tmp_path / "a")
    b = cls(7, scratch=tmp_path / "b")
    c = cls(8, scratch=tmp_path / "c")
    assert _same(_inputs(a), _inputs(b))
    assert not _same(_inputs(a), _inputs(c))


# --- self time ----------------------------------------------------------------


def test_self_time_nested_and_siblings():
    # parent [0, 10] with children [1, 3] and [4, 8]; the second child
    # holds a grandchild [5, 7] that must not be subtracted from the parent.
    clock = FakeClock([0.0, 1.0, 3.0, 4.0, 5.0, 7.0, 8.0, 10.0])
    tr = tracing.Tracer(clock=clock)
    p = tr.open("parent")
    c1 = tr.open("child")
    tr.close(c1)
    c2 = tr.open("child")
    g = tr.open("grandchild")
    tr.close(g)
    tr.close(c2)
    tr.close(p)
    self_t = tr.self_times()
    assert self_t[p] == pytest.approx(10.0 - 2.0 - 4.0)
    assert self_t[c1] == pytest.approx(2.0)
    assert self_t[c2] == pytest.approx(4.0 - 2.0)
    assert self_t[g] == pytest.approx(2.0)
    assert tr.parent[g] == c2 and tr.parent[c2] == p and tr.parent[p] == -1


def test_self_time_counts_overlapping_children_once():
    clock = FakeClock([0.0, 1.0, 5.0, 3.0, 7.0, 8.0, 12.0, 10.0])
    tr = tracing.Tracer(clock=clock)
    p = tr.open("parent")  # [0, 10]
    a = tr.open("child")  # [1, 5]
    tr.close(a)
    # siblings recorded by other threads can overlap each other and stick
    # out of the parent's interval: [3, 7] and [8, 12]
    b = tr.open("child")
    tr.close(b)
    c = tr.open("child")
    tr.close(c)
    tr.close(p)
    # covered inside [0, 10]: [1, 7] and [8, 10]
    assert tr.self_times()[p] == pytest.approx(10.0 - 6.0 - 2.0)


# --- wrapping -----------------------------------------------------------------


def _tiny_problem():
    geom = dhymgeo.TorusGeometry(n=1, grid=(8,), alpha0=[[3.0]], reduced=True)
    x = geom.coordinates()["x1"]
    return dhymgeo.GeodesicProblem(
        geom=geom,
        phi1=0.1 * np.cos(2 * math.pi * x),
        phi2=0.1 * np.sin(2 * math.pi * x),
        branch=dhymgeo.select_branch(geom),
        nt=5,
        sweep_tol=1e-10,
        mode="jacobi",
    )


def test_wrapping_catches_from_imports_and_restores():
    original = angles.phi_lifted_usc_batch
    assert geodesic.phi_lifted_usc_batch is original
    sweep_cls = geodesic._SweepN1
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        assert geodesic.phi_lifted_usc_batch is not original
        assert geodesic.phi_lifted_usc_batch is angles.phi_lifted_usc_batch
        assert dhymgeo.solve is geodesic.solve
        assert geodesic._SweepN1 is sweep_cls
        dhymgeo.solve(_tiny_problem())
    assert geodesic.phi_lifted_usc_batch is original
    agg = tracing.Aggregate(tr)
    assert agg.calls("geodesic.solve") == 1
    assert agg.under("angles.phi_lifted_usc_batch", "geodesic.solve")
    assert 0 < agg.work("angles.phi_lifted_usc_batch") <= 3 * 8
    assert not any(name.split(".")[1].startswith("_") for name in tr.names)


# --- smoke run of every workload's gates, at minimal size -------------------------


class TinyGrid(workloads.GeodesicGrid):
    NT = 7
    N = 8


class TinyCli(workloads.GeodesicCli):
    CELLS = ((7, 8, False), (7, 8, True))


class TinyFuzz(workloads.AngleFuzz):
    SUITES = tuple(
        (label, kind, n, c, 1000 if kind == "negative" else 300)
        for label, kind, n, c, _ in workloads.AngleFuzz.SUITES
    )


class TinyPointwise(workloads.PointwiseN2):
    POINTS = 4


@pytest.mark.parametrize("cls", [TinyGrid, TinyCli, TinyFuzz, TinyPointwise])
def test_minimal_workload_passes_its_gates(cls, tmp_path):
    w = cls(3, scratch=tmp_path)
    for i in range(2):
        work, ok = w.op(i)
        assert ok and work >= 1
    assert w.finish() == []


def test_failing_gate_is_reported(tmp_path):
    w = TinyGrid(3, scratch=tmp_path)
    w.op(0)
    U, _ = w.solutions[0]
    U[1:-1:2] += 1e-3  # no longer the Perron solution
    assert any("Perron oracle" in msg for msg in w.finish())


# --- the command ----------------------------------------------------------------


def _run(cwd, *args, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        env=env,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_declared_metrics(trace):
    proc = _run(ROOT, "--workload", "pointwise-n2", "--seed", "1", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_allocator_tunables():
    env = dict(os.environ, MALLOC_ARENA_MAX="2")
    proc = _run(ROOT, "--workload", "pointwise-n2", "--seed", "1", "--seconds", "1", env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "MALLOC_ARENA_MAX" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run(tmp_path, "--workload", "angle-fuzz", "--seed", "1", "--seconds", "1", env=env)
    assert proc.returncode != 0 and proc.stdout == ""


def test_metric_map_covers_per_layer_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    moves = json.loads((HERE / "metric_map.json").read_text())
    assert set(moves) == {m["name"] for m in declared["per_layer"]}
    e2e = {m["name"] for m in declared["end_to_end"]}
    names = {w["name"] for w in declared["workloads"]}
    for targets in moves.values():
        for t in targets:
            assert t["metric"] in e2e and t["workload"] in names
