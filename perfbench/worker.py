"""One benchmark process: set up a workload, run its closed loop, check it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; writes one JSON document to ``--out``.

``--mode setup`` only builds the inputs and records the monotonic clock
when they are ready, which ``run.py`` turns into a set-up time measured
from the process spawn.  ``--mode measure`` runs operations back to back
until ``--seconds`` have passed (or ``--ops`` operations are done), then
checks every output.  ``--phases`` picks the plain loop, the traced
loop (every public dhymgeo function wrapped in spans), or both in turn,
each for half the time; a traced loop reports its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import dhymgeo
from layers import fuzz_metrics, layer_metrics
from tracing import Tracer, instrument
from workloads import WORKLOADS


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _version(module):
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def run_loop(workload, seconds, max_ops, tracer=None):
    """Closed loop: the next operation starts when the previous one returns."""
    lat, work, ok, faults, errors = [], [], [], [], []
    start = time.perf_counter()
    i = 0
    # start another operation only if it should end within ``seconds``
    while i < max_ops and (i == 0 or (time.perf_counter() - start) * (1 + 1 / i) <= seconds):
        if tracer is not None:
            tracer.current_op = i
        f0 = _minflt()
        t0 = time.perf_counter()
        try:
            w, good = workload.op(i)
        except Exception:  # a failed operation is counted, and the loop goes on
            w, good = 0, False
            errors.append(traceback.format_exc(limit=3))
        lat.append(time.perf_counter() - t0)
        faults.append(_minflt() - f0)
        work.append(w)
        ok.append(bool(good))
        i += 1
    if tracer is not None:
        tracer.current_op = -1
    return {"lat": lat, "work": work, "ok": ok, "faults": faults, "errors": errors}


def finish(workload):
    try:
        return workload.finish()
    except Exception:
        return ["checks raised:\n" + traceback.format_exc(limit=3)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--ops", type=int, default=1 << 30)
    ap.add_argument(
        "--phases",
        choices=("plain", "traced", "both"),
        default="plain",
        help="run the loop untraced, traced, or untraced then traced",
    )
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None, help="file for the traced spans (JSON lines)")
    ap.add_argument(
        "--sweeps", action="store_true", help="record the sweeps of every plain operation"
    )
    args = ap.parse_args(argv)

    cls = WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    if args.mode == "setup":
        cls(args.seed, scratch=scratch / "setup")
        Path(args.out).write_text(json.dumps({"setup_done": time.monotonic()}))
        return 0

    result = {
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": _version("scipy"),
            "dhymgeo": dhymgeo.__version__,
        },
        "dhymgeo_file": dhymgeo.__file__,
    }
    seconds = args.seconds / 2 if args.phases == "both" else args.seconds
    phases, failures, plain = {}, [], None
    if args.phases != "traced":
        plain = cls(args.seed, scratch=scratch / "plain")
        phases["plain"] = run_loop(plain, seconds, args.ops)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures += finish(plain)
        result["fuzz"] = fuzz_metrics(plain)
        if args.sweeps:
            ops = len(phases["plain"]["lat"])
            phases["plain"]["sweeps"] = [plain.sweep_work(i)[1] for i in range(ops)]
    if args.phases != "plain":
        tracer = Tracer()
        with instrument(tracer):
            traced = cls(args.seed, scratch=scratch / "traced")
            traced.tracer = tracer
            phases["traced"] = run_loop(traced, seconds, args.ops, tracer)
        failures += finish(traced)
        result["layers"], result["table"] = layer_metrics(
            tracer, traced, plain, len(phases["traced"]["lat"])
        )
        if args.spans:
            tracer.write(args.spans)
    result["phases"] = phases
    result["failures"] = failures
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
