"""dhymgeo benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload geodesic-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in fresh worker processes (``worker.py``),
so allocator state never carries over from one solve to the next.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it carries the per-layer metrics of a traced run, and the lines before
it hold a per-layer self-time table.  Every output is checked; the exit
code is 1 when any check fails and 2 when the benchmark cannot run
(no ``src/dhymgeo``, or a ``MALLOC_*`` allocator tunable is set, which
would remove the page-fault cost that geodesic-grid measures).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("geodesic-grid", "geodesic-cli", "angle-fuzz", "pointwise-n2")
# Fresh-process set-ups per run; setup_s is their median.
SETUP_SAMPLES = 7
# geodesic-grid runs one solve per process; a run makes at least this many.
GRID_MIN_SOLVES = 3
# Every worker must end this long after the run started.
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_", "OPENBLAS_", "MKL_")

# Workload-specific names an end-to-end metric is also printed under:
# (printed name, metric, factor, unit).
ALIASES = {
    "geodesic-grid": [("solve_s", "op_p50_ms", 1e-3, "s")],
    "geodesic-cli": [],
    "angle-fuzz": [],
    "pointwise-n2": [
        ("update_p50_ms", "op_p50_ms", 1.0, "ms"),
        ("update_tail_ms", "op_tail_ms", 1.0, "ms"),
    ],
}
# Work units per second of busy time, printed with the metrics.  It is no
# end-to-end metric: as a mean it follows the host's slow bursts about
# twice as much as the median operation time does.
THROUGHPUT = {
    "geodesic-grid": "solves_per_s",
    "geodesic-cli": "solves_per_s",
    "angle-fuzz": "trials_per_s",
    "pointwise-n2": "updates_per_s",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def tail_rank(n):
    """Highest percentile with at least ten of n samples beyond it (p50 floor)."""
    return max(50, math.floor(100.0 * (n - 10) / n)) if n else 50


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[k - 1]


def allocator_tunables(env):
    names = sorted(k for k in env if k.startswith("MALLOC_"))
    if "malloc" in env.get("GLIBC_TUNABLES", ""):
        names.append("GLIBC_TUNABLES")
    return names


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_record():
    """The machine, libraries and environment a result was measured with."""
    model = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in range(6):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        level, size = _read(base / "level").strip(), _read(base / "size").strip()
        if level in ("2", "3") and size:
            caches[f"l{level}"] = size
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_per_core": caches.get("l2"),
        "l3": caches.get("l3"),
        "glibc": os.confstr("CS_GNU_LIBC_VERSION"),
        "git_commit": commit,
        "env": {
            k: v
            for k, v in sorted(os.environ.items())
            if k.startswith(THREAD_VARS) or k.startswith("MALLOC_") or k == "GLIBC_TUNABLES"
        },
    }


class Runner:
    def __init__(self, workload, seed, scratch):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.t0 = time.monotonic()
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, mode, *extra):
        """Run one worker to completion; returns (spawn time, its JSON result)."""
        self.count += 1
        out = self.scratch / f"worker{self.count}.json"
        argv = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--scratch", str(self.scratch / f"w{self.count}"),
            "--out", str(out),
            *extra,
        ]
        budget = RUN_DEADLINE_S - (time.monotonic() - self.t0)
        if budget <= 1.0:
            raise RuntimeError("run deadline reached before every worker ran")
        spawned = time.monotonic()
        proc = subprocess.run(
            argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=budget, check=False
        )
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return spawned, json.loads(out.read_text())

    def setup_seconds(self):
        samples = []
        for _ in range(SETUP_SAMPLES):
            spawned, res = self.spawn("setup")
            samples.append(res["setup_done"] - spawned)
        return samples

    def measure(self, seconds, trace):
        """Worker results whose phases hold every operation of this run."""
        if self.workload == "geodesic-grid":
            # One solve per fresh process, as a script calling solve() runs it.
            if trace:
                return [
                    self.spawn("measure", "--ops", "1", "--sweeps")[1],
                    self.spawn("measure", "--ops", "1", "--phases", "traced", *self.spans_arg())[1],
                ]
            results = []
            start = time.monotonic()
            while True:
                results.append(self.spawn("measure", "--ops", "1")[1])
                elapsed = time.monotonic() - start
                # start another solve only if it should end within the run
                if len(results) >= GRID_MIN_SOLVES and elapsed * (1 + 1 / len(results)) > seconds:
                    return results
        extra = ["--phases", "both", "--sweeps", *self.spans_arg()] if trace else []
        return [self.spawn("measure", "--seconds", str(seconds), *extra)[1]]

    def spans_arg(self):
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        return ["--spans", str(traces / f"{self.workload}-seed{self.seed}.jsonl")]


def summarize(results, phase):
    """Concatenate one phase's per-operation lists over every worker."""
    out = {}
    for res in results:
        for key, values in res["phases"].get(phase, {}).items():
            out.setdefault(key, []).extend(values)
    return out


def summarize_fuzz(results):
    """Trials per second on 1 and on 2 threads, over every worker of the run."""
    fuzz = [r["fuzz"] for r in results]
    return {
        t: statistics.median(f[f"subequations.trials_per_s_{t}"] for f in fuzz) for t in ("1t", "2t")
    }


def end_to_end(results, setup):
    """(end-to-end metrics, work units per second, sample note) of a run."""
    plain = summarize(results, "plain")
    lat, work = plain["lat"], plain["work"]
    p = tail_rank(len(lat))
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_tail_ms": percentile(lat, p) * 1e3,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results if "peak_rss_kb" in r) / 1024.0,
    }
    note = f"n={len(lat)} operations, tail = p{p}, setup samples={len(setup)}"
    return metrics, sum(work) / sum(lat), note


def per_layer(results):
    traced = next(r for r in results if "layers" in r)
    metrics = dict(traced["layers"])
    plain = summarize(results, "plain")
    sweeps = sum(plain["sweeps"])
    faults = sum(f for f, s in zip(plain["faults"], plain["sweeps"]) if s)
    metrics["geodesic.minor_faults_per_sweep"] = faults / sweeps if sweeps else 0.0
    traced_p50 = percentile(summarize(results, "traced")["lat"], 50)
    metrics["trace.overhead_frac"] = traced_p50 / percentile(plain["lat"], 50) - 1.0
    return metrics, traced["table"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "dhymgeo" / "__init__.py").is_file():
            raise BenchError(f"no dhymgeo sources under {ROOT / 'src'}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        tunables = allocator_tunables(os.environ)
        if tunables:
            raise BenchError(
                f"allocator tunables set ({', '.join(tunables)}); they remove the page-fault "
                "cost geodesic-grid measures -- unset them"
            )
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    machine = machine_record()
    scratch = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, scratch)
    problems = []
    try:
        setup = [] if args.trace else runner.setup_seconds()
        results = runner.measure(args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        problems.append(str(exc))
        results = []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    src = str((ROOT / "src").resolve())
    for res in results:
        if not str(Path(res["dhymgeo_file"]).resolve()).startswith(src):
            problems.append(f"dhymgeo was imported from {res['dhymgeo_file']}, not from {src}")
        problems += res["failures"]
    phases = ("plain", "traced") if args.trace else ("plain",)
    lat, ok, errors = [], [], []
    for phase in phases:
        ph = summarize(results, phase)
        lat, ok, errors = lat + ph.get("lat", []), ok + ph.get("ok", []), errors + ph.get("errors", [])
    attempted = max(1, len(lat))
    failed = min(attempted, ok.count(False) + len(problems) + (0 if lat else 1))
    correct = failed == 0

    metrics, note = {}, ""
    if correct:
        if args.trace:
            metrics, table = per_layer(results)
        else:
            metrics, work_per_s, note = end_to_end(results, setup)
        missing = set(units) ^ set(metrics)
        if missing:
            raise SystemExit(f"perfbench: metrics out of step with BENCHMARK.json: {sorted(missing)}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    if results:
        print("versions " + json.dumps(results[0]["versions"], sort_keys=True))
    for msg in problems + errors:
        print("FAILED " + msg.rstrip().replace("\n", "\n       "))
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    if correct and args.trace:
        print(f"{'span':44s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
        for name, calls, self_s, share in table:
            print(f"{name:44s} {calls:9d} {self_s:10.4f} {share:7.1%}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    if note:
        print(note)
    if correct and not args.trace:
        print(f"  {THROUGHPUT[args.workload]} {work_per_s:.6g} 1/s")
        for alias, name, factor, unit in ALIASES[args.workload]:
            print(f"  {alias} {metrics[name] * factor:.6g} {unit}")
        if args.workload == "angle-fuzz":
            fuzz = summarize_fuzz(results)
            for threads in ("1t", "2t"):
                print(f"  trials_per_s_{threads} {fuzz[threads]:.6g} 1/s")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "versions": results[0]["versions"] if results else None,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
    }
    saved = ROOT / ".perfbench" / "results"
    saved.mkdir(parents=True, exist_ok=True)
    (saved / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
